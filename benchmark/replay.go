package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/format"
	"waco/internal/kernel"
	"waco/internal/schedule"
	"waco/internal/search"
	"waco/internal/serve"
	"waco/internal/tensor"
)

// stageCore spans what core.TuneTensorContext does; its self time is the
// part of a tune the named stages do not cover.
const stageCore = "core.tune"

// tuneTrace is what replaying one cold tune counted.
type tuneTrace struct {
	Op            int
	Evals, Pruned int
	EvalShare     float64 // head evaluation's part of the search after extraction
	AssembleCalls int
	Rejects       int // candidates over the storage budget
	Skipped       int // candidates CheckWork refused
	ProbeRuns     int
	// Predicted and Probed are the model's cost and the probe's median for
	// each measured candidate, in retrieval (predicted-rank) order.
	Predicted []float64
	Probed    []float64
	ProbeTime time.Duration // all probing
	WinnerRun time.Duration // probing of the eventual winner
	Result    serve.TuneResult
}

// replayer sends operations stepwise through the public functions of each
// layer, in the order serve.Server.Tune and core.TuneTensorContext call them
// today, with a span around every call. It runs after the timed phase, on
// one goroutine.
type replayer struct {
	rec    *recorder
	t      *core.Tuner
	tunes  []tuneTrace
	decode map[bool]*samples // decode ms by body form: true = MatrixMarket
	bytes  int
}

func newReplayer(t *core.Tuner) *replayer {
	return &replayer{rec: newRecorder(), t: t, decode: map[bool]*samples{false: {}, true: {}}}
}

// timed runs fn inside a span.
func (r *replayer) timed(name string, op, parent int, fn func() error) error {
	id := r.rec.begin(name, op, parent)
	err := fn()
	r.rec.end(id)
	return err
}

// searchWidth is the (k, ef) core.TuneContext and Server.Predict derive.
func searchWidth(cfg core.Config, k int) (int, int) {
	ef := cfg.SearchEf
	if ef < 6*k {
		ef = 6 * k
	}
	return k, ef
}

// replay runs one op. answered is what the timed run returned for it, which
// a hit re-encodes.
func (r *replayer) replay(ctx context.Context, i int, o op, answered *serve.TuneResult) error {
	root := r.rec.begin(stageOp, i, -1)
	defer r.rec.end(root)

	coo := o.In.COO
	overWire := o.In.Body != nil
	if overWire {
		body := o.In.Body
		t0 := time.Now()
		err := r.timed(stageDecode, i, root, func() (err error) {
			coo, err = decodeBody(body)
			return err
		})
		if err != nil {
			return err
		}
		r.decode[o.In.MatrixMarket].addMs(time.Since(t0))
		r.bytes += len(body)
	}

	if err := r.timed(stageFingerprint, i, root, func() error {
		if err := coo.Validate(); err != nil {
			return err
		}
		if fp := serve.Fingerprint(coo); fp != o.In.Fingerprint {
			return fmt.Errorf("decoded matrix has fingerprint %.12s, sent %.12s", fp, o.In.Fingerprint)
		}
		return nil
	}); err != nil {
		return err
	}

	var payload any
	switch o.Kind {
	case opHit:
		payload = answered
	case opPredict:
		k, ef := searchWidth(r.t.Cfg, predictK)
		res, err := r.search(ctx, i, root, coo, k, ef)
		if err != nil {
			return err
		}
		out := make([]serve.Predicted, len(res.Candidates))
		for j, c := range res.Candidates {
			out[j] = serve.Predicted{Schedule: c.SS.String(), Cost: c.Cost}
		}
		payload = serve.PredictResponse{Schedules: out}
	case opCold:
		tt, err := r.tune(ctx, i, root, coo)
		if err != nil {
			return err
		}
		tt.Result.Fingerprint = o.In.Fingerprint
		r.tunes = append(r.tunes, *tt)
		payload = &tt.Result
	}
	if !overWire {
		return nil
	}
	return r.timed(stageEncode, i, root, func() error {
		_, err := json.Marshal(payload)
		return err
	})
}

// decodeBody is handlers.go's decodeBody and decodeMatrix through their
// public halves.
func decodeBody(body []byte) (*tensor.COO, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req serve.PredictRequest // a tune body is a predict body without k
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if req.Matrix != nil {
		return req.Matrix.ToCOO()
	}
	return tensor.ReadMatrixMarket(strings.NewReader(req.MatrixMarket))
}

// search calls Index.Search, which extracts the pattern's features and then
// walks the graph, and splits its span by the times its Result reports.
func (r *replayer) search(ctx context.Context, op, parent int, coo *tensor.COO, k, ef int) (*search.Result, error) {
	start := int64(time.Since(r.rec.t0))
	res, err := r.t.Index.Search(ctx, costmodel.NewPattern(coo), k, ef)
	end := int64(time.Since(r.rec.t0))
	if err != nil {
		return nil, err
	}
	split := min(start+int64(res.FeatureTime), end)
	r.rec.add(stageExtract, op, parent, start, split)
	r.rec.add(stageANNS, op, parent, split, end)
	return res, nil
}

// compile is Workload.Compile with its two halves timed apart. A decomposed
// schedule has one public entry point, kernel.CompilePartitioned, which
// decomposes, assembles every region and compiles the region plans; the
// replay books the whole call as assembly, which is nearly all of it.
func (r *replayer) compile(op, parent int, wl *kernel.Workload, ss *schedule.SuperSchedule) (kernel.Executable, error) {
	cfg := r.t.Cfg.Collect
	if ss.Decomp != schedule.DecompNone {
		var pp *kernel.PartitionedPlan
		err := r.timed(stageAssemble, op, parent, func() (err error) {
			pp, err = kernel.CompilePartitioned(ss, wl.COO, cfg.Profile, cfg.MaxEntries)
			return err
		})
		if err != nil {
			return nil, err
		}
		return pp, nil
	}
	var st *format.Stored
	err := r.timed(stageAssemble, op, parent, func() (err error) {
		st, err = format.Assemble(wl.COO, ss.AFormat, format.AssembleOptions{MaxEntries: cfg.MaxEntries})
		return err
	})
	if err != nil {
		return nil, err
	}
	var plan *kernel.Plan
	err = r.timed(stageCompile, op, parent, func() (err error) {
		plan, err = kernel.Compile(ss, st, cfg.Profile)
		return err
	})
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// tune is core.TuneTensorContext followed by the predicted-cost call that
// serve.tune makes after every cold tune.
func (r *replayer) tune(ctx context.Context, op, root int, coo *tensor.COO) (*tuneTrace, error) {
	cfg := r.t.Cfg
	tt := &tuneTrace{Op: op}
	coreSpan := r.rec.begin(stageCore, op, root)

	var wl *kernel.Workload
	if err := r.timed(stageWorkloadSetup, op, coreSpan, func() (err error) {
		wl, err = kernel.NewWorkload(cfg.Alg, coo, cfg.Collect.DenseN)
		return err
	}); err != nil {
		return nil, err
	}

	k, ef := searchWidth(cfg, cfg.TopK)
	res, err := r.search(ctx, op, coreSpan, coo, k, ef)
	if err != nil {
		return nil, err
	}
	tt.Evals, tt.Pruned = res.Evals, res.Pruned
	tt.EvalShare = safeDiv(res.EvalTime.Seconds(), res.SearchTime.Seconds())

	var best *schedule.SuperSchedule
	var bestTime time.Duration
	for _, cand := range res.Candidates {
		ss := cand.SS
		plan, err := r.compile(op, coreSpan, wl, ss)
		tt.AssembleCalls++
		if err != nil {
			if format.IsStorageLimit(err) {
				tt.Rejects++
				continue
			}
			return nil, err
		}
		if plan.CheckWork(0) != nil {
			tt.Skipped++
			continue
		}
		var d time.Duration
		t0 := time.Now()
		if err := r.timed(stageProbe, op, coreSpan, func() (err error) {
			d, err = wl.Measure(plan, probeRepeats)
			return err
		}); err != nil {
			return nil, err
		}
		spent := time.Since(t0)
		tt.ProbeRuns += probeRepeats
		tt.ProbeTime += spent
		tt.Predicted = append(tt.Predicted, cand.Cost)
		tt.Probed = append(tt.Probed, d.Seconds())
		if best == nil || d < bestTime {
			best, bestTime, tt.WinnerRun = ss, d, spent
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no retrieved candidate assembles under the storage budget")
	}

	repeats := max(cfg.Collect.Repeats, 5)
	var final time.Duration
	finalSpan := r.rec.begin(stageFinal, op, coreSpan)
	plan, err := r.compile(op, finalSpan, wl, best)
	tt.AssembleCalls++
	if err == nil {
		final, err = wl.Measure(plan, repeats)
	}
	r.rec.end(finalSpan)
	r.rec.end(coreSpan)
	if err != nil {
		return nil, err
	}

	var cost float64
	if err := r.timed(stagePredictedCost, op, root, func() (err error) {
		cost, err = r.t.Model.Cost(costmodel.NewPattern(coo), best)
		return err
	}); err != nil {
		return nil, err
	}
	tt.Result = serve.TuneResult{
		Schedule:      best.String(),
		PredictedCost: cost,
		KernelSeconds: final.Seconds(),
		Info:          fmt.Sprintf("measured %d of top-%d", len(tt.Probed), k),
	}
	return tt, nil
}

// probeRepeats is the median-of-3 probe core.TuneContext gives a candidate.
const probeRepeats = 3
