// Package search implements WACO's schedule retrieval (§4.2): an index of
// candidate SuperSchedules whose program embeddings form an HNSW graph built
// on L2, searched at query time with the cost model's predicted runtime as
// the distance — plus the black-box baselines of Figure 16 (random search, a
// simulated-annealing OpenTuner stand-in, and a TPE-style HyperOpt
// stand-in), all driving the same cost model.
package search

import (
	"context"
	"fmt"
	"sync"
	"time"

	"waco/internal/asymcost"
	"waco/internal/costmodel"
	"waco/internal/hnsw"
	"waco/internal/parallelism"
	"waco/internal/schedule"
)

// Index holds the candidate SuperSchedules, their frozen program embeddings,
// and the KNN graph over them (Figure 1-(b)). Because the embeddings are
// memorized at build time, a query only runs the cost model's final
// predictor head per candidate — the reason ANNS spends almost all its time
// in cost evaluation (§5.4).
type Index struct {
	Model     *costmodel.Model
	Schedules []*schedule.SuperSchedule
	Graph     *hnsw.Graph

	// Metrics, when non-nil, receives the §5.4 per-query breakdown
	// (feature/eval/traversal time, evals per query) as histograms. It is
	// serving-side instrumentation attached by serve.NewServer, never
	// persisted in sealed artifacts.
	Metrics *Metrics

	// scratch recycles per-query working memory (inference buffers, graph
	// scratch, cost memo) so concurrent steady-state queries allocate
	// nothing. Unexported and zero-value-ready: Index literals elsewhere in
	// the tree keep working, and gob never sees it.
	scratch sync.Pool

	// Pre-filter state (EnablePrefilter): per-candidate asymptotic-cost
	// digests, folded against the query pattern's stats to prune candidates
	// whose bound is dominated by the best bound seen by more than margin
	// (in log2 units — orders of magnitude of asymptotic work).
	prefilterMargin float64
	terms           []asymcost.Terms
}

// EnablePrefilter turns on the analytic asymptotic-cost pre-filter with the
// given prune margin (log2 units: a candidate is skipped when its bound
// exceeds the best bound seen this query by more than margin). The
// per-candidate digests are precomputed here, once. margin <= 0 disables.
// Must be called before the index serves queries.
func (ix *Index) EnablePrefilter(margin float64) {
	if !(margin > 0) {
		ix.prefilterMargin, ix.terms = 0, nil
		return
	}
	terms := make([]asymcost.Terms, len(ix.Schedules))
	for i, ss := range ix.Schedules {
		terms[i] = asymcost.Precompute(ss)
	}
	ix.prefilterMargin, ix.terms = margin, terms
}

// PrefilterMargin returns the active prune margin, 0 when disabled.
func (ix *Index) PrefilterMargin() float64 { return ix.prefilterMargin }

// queryScratch is everything one Search needs that outlives no query:
// forward-only inference buffers, HNSW traversal scratch, and the
// slice-backed cost memo keyed by graph id (seen[id] guards costs[id] — a
// map here cost a hash per head evaluation and churned on every query).
type queryScratch struct {
	b     *costmodel.InferBuffers
	sc    hnsw.Scratch
	seen  []bool
	costs []float64
	fresh []int32
	embs  [][]float32
	out   []float64

	// Pre-filter memo, sized only when the pre-filter is enabled: bseen[id]
	// guards bounds[id] exactly as seen guards costs.
	bseen  []bool
	bounds []float64
}

// getScratch takes recycled query scratch sized for the graph.
func (ix *Index) getScratch() *queryScratch {
	qs, _ := ix.scratch.Get().(*queryScratch)
	if qs == nil {
		qs = &queryScratch{b: costmodel.NewInferBuffers()}
	}
	n := ix.Graph.Len()
	if cap(qs.seen) < n {
		qs.seen = make([]bool, n)
		qs.costs = make([]float64, n)
	}
	qs.seen = qs.seen[:n]
	qs.costs = qs.costs[:n]
	clear(qs.seen)
	if ix.prefilterMargin > 0 {
		if cap(qs.bseen) < n {
			qs.bseen = make([]bool, n)
			qs.bounds = make([]float64, n)
		}
		qs.bseen = qs.bseen[:n]
		qs.bounds = qs.bounds[:n]
		clear(qs.bseen)
	}
	return qs
}

func (ix *Index) putScratch(qs *queryScratch) {
	qs.b.Reset()
	ix.scratch.Put(qs)
}

// growF64 returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite every element. Growth
// lives here — outside the //waco:allocfree traversal — so the escape
// analysis gate attributes the (warmup-only) allocation to this helper.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// BuildOptions tunes how BuildIndexContext spends the machine; none of its
// fields can change the index that comes out.
type BuildOptions struct {
	// Workers bounds the embedding fan-out (and, unless cfg.Workers is
	// already set, the HNSW batch evaluator). <1 means one per CPU.
	Workers int
	// Metrics, when non-nil, records the embedding fan-out under the
	// "index" phase of the pool instruments.
	Metrics *parallelism.Metrics
}

// BuildIndex embeds and indexes the given schedules, deduplicating by
// canonical key. In the paper the index holds the SuperSchedules that
// appeared in the training dataset.
func BuildIndex(m *costmodel.Model, schedules []*schedule.SuperSchedule, cfg hnsw.Config) (*Index, error) {
	return BuildIndexContext(context.Background(), m, schedules, cfg, BuildOptions{})
}

// BuildIndexContext is BuildIndex with cancellation and a worker pool. The
// pipeline is: deduplicate in input order, embed every unique schedule
// concurrently (nil-tape inference only reads frozen weights, so workers
// share the model), then insert the embeddings into the HNSW graph strictly
// in input order. Insertion order and Config.Seed fully determine the graph,
// so the result is bit-identical for every worker count.
func BuildIndexContext(ctx context.Context, m *costmodel.Model, schedules []*schedule.SuperSchedule, cfg hnsw.Config, opts BuildOptions) (*Index, error) {
	seen := make(map[string]bool, len(schedules))
	unique := make([]*schedule.SuperSchedule, 0, len(schedules))
	for _, ss := range schedules {
		key := ss.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		unique = append(unique, ss)
	}
	if len(unique) == 0 {
		return nil, fmt.Errorf("search: no schedules to index")
	}

	workers := parallelism.Workers(opts.Workers)
	embs := make([][]float32, len(unique))
	bufs := make([]*costmodel.InferBuffers, workers)
	err := parallelism.ForEach(ctx, opts.Metrics, parallelism.PhaseIndex, len(unique), workers,
		func(w, i int) error {
			b := bufs[w]
			if b == nil {
				b = costmodel.NewInferBuffers()
				bufs[w] = b
			}
			b.Reset()
			// Forward-only embedding, bit-identical to the tape path (pinned
			// by the costmodel parity tests), so the graph — determined by
			// embedding bytes and insertion order — is unchanged. The arena
			// owns the embedding; copy it out to keep.
			embs[i] = append([]float32(nil), m.EmbedScheduleInfer(b, unique[i])...)
			return nil
		})
	if err != nil {
		return nil, err
	}

	if cfg.Workers == 0 {
		cfg.Workers = workers
	}
	ix := &Index{Model: m, Graph: hnsw.New(cfg), Schedules: unique}
	for _, emb := range embs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ix.Graph.Add(emb)
	}
	return ix, nil
}

// Candidate is one retrieved schedule with its predicted cost.
type Candidate struct {
	SS   *schedule.SuperSchedule
	Cost float64
}

// Result is the outcome of one ANNS query, with the §5.4 time breakdown.
type Result struct {
	Candidates  []Candidate // ascending by predicted cost
	Evals       int         // cost-model head evaluations
	FeatureTime time.Duration
	// SearchTime covers everything after feature extraction: graph traversal,
	// head evaluations, and candidate assembly (including any defensive
	// fallback evaluations, so EvalTime ⊆ SearchTime always holds and the
	// derived traversal time can never go negative).
	SearchTime time.Duration
	// EvalTime is the portion of SearchTime spent inside predictor-head
	// evaluations (the rest is graph traversal bookkeeping).
	EvalTime time.Duration
	// Pruned counts candidates the asymptotic-cost pre-filter skipped: their
	// bound exceeded the best bound seen this query by more than the margin,
	// so the predictor head never scored them. Zero when the pre-filter is
	// disabled.
	Pruned int
	// PrefilterTime is the portion of SearchTime spent computing asymptotic
	// bounds (disjoint from EvalTime; both are subsets of SearchTime).
	PrefilterTime time.Duration
	// Best-so-far predicted cost after each head evaluation.
	Trace []float64
}

// Search retrieves the top-k SuperSchedules for the pattern: the sparsity
// feature is extracted once, then the HNSW graph is traversed with
// dist(s) = head(feature, embedding(s)). Everything runs on the forward-only
// inference path with pooled scratch — predictions are bit-identical to the
// tape path (pinned by the parity tests) and a steady-state query performs
// zero heap allocations beyond its Result. The graph hands the batch
// evaluator whole adjacency lists, which the batched predictor head scores
// against the query-constant feature partial in one pass.
//
// The context is checked before feature extraction and between evaluation
// batches — once it is done, the remaining traversal degenerates to
// constant-time bookkeeping and Search returns the context's error, so a
// cancelled request never keeps burning cost-model time.
func (ix *Index) Search(ctx context.Context, p *costmodel.Pattern, k, ef int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qs := ix.getScratch()
	defer ix.putScratch(qs)
	t0 := time.Now()
	qs.b.Reset()
	feat, err := ix.Model.ExtractInfer(qs.b, p)
	if err != nil {
		return nil, err
	}
	res := &Result{FeatureTime: time.Since(t0)}

	t1 := time.Now()
	ids, cancelled := ix.searchForward(ctx, qs, feat, asymcost.FromCOO(p.COO), k, ef, res)
	if cancelled {
		return nil, ctx.Err()
	}
	res.Candidates = make([]Candidate, 0, len(ids))
	for _, id := range ids {
		res.Candidates = append(res.Candidates, Candidate{SS: ix.Schedules[id], Cost: ix.candidateCost(qs, feat, id, res)})
	}
	res.SearchTime = time.Since(t1)
	ix.Metrics.observe(res)
	return res, nil
}

// searchForward is the traversal core of one query: it walks the HNSW graph
// with dist(s) = head(feature, embedding(s)), memoizing every head
// evaluation in qs and recording the best-so-far trace into res. It returns
// the retrieved graph ids (owned by qs.sc, valid until its next search) and
// whether the context was cancelled mid-traversal.
//
// With the pre-filter enabled, each unseen candidate's asymptotic bound is
// folded (and memoized) first; candidates dominated by the best bound seen
// so far by more than the margin are marked seen with a sentinel cost and
// never reach the head.
//
//waco:allocfree
func (ix *Index) searchForward(ctx context.Context, qs *queryScratch, feat []float32, ast asymcost.Stats, k, ef int, res *Result) ([]int, bool) {
	best := inf()
	bestBound := inf()
	cancelled := false
	evals := 0
	prefilter := ix.prefilterMargin > 0
	// qs.seen/qs.costs memoize the head evaluation per candidate id, so
	// assembling Candidates in Search reuses what the traversal already
	// computed instead of re-running the predictor head — and Evals counts
	// exactly the distinct evaluations (post-cancellation sentinel returns
	// and pruned candidates are not evals).
	record := func(id int32, c float64) {
		qs.seen[id] = true
		qs.costs[id] = c
		evals++
		if c < best {
			best = c
		}
		res.Trace = append(res.Trace, best)
	}
	// prune reports whether the pre-filter rejects id, memoizing its bound
	// and tightening bestBound as a side effect. Only called on unseen ids
	// with the pre-filter enabled.
	prune := func(id int32) bool {
		b := qs.bounds[id]
		if !qs.bseen[id] {
			b = ix.terms[id].Bound(ast)
			qs.bseen[id] = true
			qs.bounds[id] = b
			if b < bestBound {
				bestBound = b
			}
		}
		if b > bestBound+ix.prefilterMargin {
			qs.seen[id] = true
			qs.costs[id] = prunedCost()
			res.Pruned++
			return true
		}
		return false
	}
	dist := func(id int) float64 {
		if qs.seen[id] {
			return qs.costs[id]
		}
		if cancelled || ctx.Err() != nil {
			cancelled = true
			return inf()
		}
		if prefilter {
			p0 := time.Now()
			pruned := prune(int32(id))
			res.PrefilterTime += time.Since(p0)
			if pruned {
				return prunedCost()
			}
		}
		e0 := time.Now()
		c := ix.Model.PredictHead(qs.b, feat, ix.Graph.Vector(id))
		res.EvalTime += time.Since(e0)
		record(int32(id), c)
		return c
	}
	batch := func(ids []int32, out []float64) {
		if prefilter && !cancelled {
			p0 := time.Now()
			for _, id := range ids {
				if !qs.seen[id] {
					prune(id)
				}
			}
			res.PrefilterTime += time.Since(p0)
		}
		fresh := qs.fresh[:0]
		embs := qs.embs[:0]
		for _, id := range ids {
			if !qs.seen[id] {
				fresh = append(fresh, id)
				embs = append(embs, ix.Graph.Vector(int(id)))
			}
		}
		if len(fresh) > 0 && !cancelled {
			if ctx.Err() != nil {
				cancelled = true
			} else {
				qs.out = growF64(qs.out, len(fresh))
				fout := qs.out
				e0 := time.Now()
				ix.Model.PredictHeadInto(qs.b, feat, embs, fout)
				res.EvalTime += time.Since(e0)
				// Record in ids order: the trace of best-so-far costs matches
				// the sequential dist path exactly.
				for i, id := range fresh {
					record(id, fout[i])
				}
			}
		}
		qs.fresh, qs.embs = fresh, embs
		for i, id := range ids {
			if qs.seen[id] {
				out[i] = qs.costs[id]
			} else {
				out[i] = inf()
			}
		}
	}
	ids := ix.Graph.SearchWith(dist, batch, k, ef, &qs.sc)
	res.Evals = evals
	return ids, cancelled
}

// candidateCost returns the memoized predicted cost of a returned id. Every
// id the graph returns was scored during traversal, so the fallback only runs
// if that invariant ever breaks — or if a pruned candidate survived into the
// top-k (possible only when the filter pruned so hard that fewer than k
// candidates were scored); either way the candidate gets a real head
// evaluation here, timed and counted like any other, so reported Costs are
// never sentinels and Evals/EvalTime stay consistent.
func (ix *Index) candidateCost(qs *queryScratch, feat []float32, id int, res *Result) float64 {
	if qs.seen[id] && qs.costs[id] < prunedCost() {
		return qs.costs[id]
	}
	e0 := time.Now()
	c := ix.Model.PredictHead(qs.b, feat, ix.Graph.Vector(id))
	res.EvalTime += time.Since(e0)
	res.Evals++
	qs.seen[id] = true
	qs.costs[id] = c
	return c
}

func inf() float64 { return 1e308 }

// prunedCost is the memoized cost of a pre-filter-pruned candidate: far
// above any real prediction so the traversal never expands it, but below
// inf() so cancellation sentinels stay distinguishable.
func prunedCost() float64 { return 1e290 }
