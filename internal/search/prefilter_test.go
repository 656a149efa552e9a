package search

import (
	"context"
	"math/rand"
	"testing"

	"waco/internal/costmodel"
	"waco/internal/format"
	"waco/internal/generate"
	"waco/internal/hnsw"
	"waco/internal/schedule"
)

// prefilterCorpus mixes CSR-backed schedules (asymptotic work bounded by nnz)
// with dense-format schedules (full dense iteration space) across thread and
// chunk choices, so on a very sparse matrix their asymptotic bounds separate
// by orders of magnitude.
func prefilterCorpus() []*schedule.SuperSchedule {
	var out []*schedule.SuperSchedule
	for _, threads := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{8, 16, 32, 64} {
			out = append(out, schedule.ConcordantSchedule(schedule.SpMM, format.CSR(), threads, chunk))
			out = append(out, schedule.ConcordantSchedule(schedule.SpMM, format.Dense(2), threads, chunk))
		}
	}
	return out
}

// sparsePattern is sparse enough (600 of 65536 cells) that dense-format
// bounds exceed CSR bounds by far more than the test margin.
func sparsePattern(seed int64) *costmodel.Pattern {
	rng := rand.New(rand.NewSource(seed))
	return costmodel.NewPattern(generate.Uniform(rng, 256, 256, 600))
}

// TestPrefilterPrunesDominatedCandidates: with the pre-filter on, dominated
// candidates are skipped (Pruned > 0, fewer head evals), yet the returned
// candidates still carry real predicted costs in sorted order — never the
// internal pruning sentinel.
func TestPrefilterPrunesDominatedCandidates(t *testing.T) {
	m := testModel(t)
	ix, err := BuildIndex(m, prefilterCorpus(), hnsw.Config{M: 8, EfConstruction: 48, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	p := sparsePattern(22)
	const k, ef = 5, 48

	base, err := ix.Search(context.Background(), p, k, ef)
	if err != nil {
		t.Fatal(err)
	}
	if base.Pruned != 0 || base.PrefilterTime != 0 {
		t.Fatalf("pre-filter disabled but Pruned=%d PrefilterTime=%v", base.Pruned, base.PrefilterTime)
	}

	ix.EnablePrefilter(2.0)
	if got := ix.PrefilterMargin(); got != 2.0 {
		t.Fatalf("PrefilterMargin = %v, want 2", got)
	}
	res, err := ix.Search(context.Background(), p, k, ef)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Fatal("pre-filter enabled on a corpus with order-of-magnitude bound gaps but pruned nothing")
	}
	if res.Evals >= base.Evals {
		t.Fatalf("pre-filtered query ran %d head evals, unfiltered ran %d", res.Evals, base.Evals)
	}
	if res.Evals+res.Pruned > len(ix.Schedules) {
		t.Fatalf("evals %d + pruned %d exceed corpus size %d", res.Evals, res.Pruned, len(ix.Schedules))
	}
	if len(res.Candidates) != k {
		t.Fatalf("got %d candidates, want %d", len(res.Candidates), k)
	}
	for i, c := range res.Candidates {
		if !(c.Cost < 1e280) {
			t.Fatalf("candidate %d cost %v is a pruning sentinel, not a prediction", i, c.Cost)
		}
		if i > 0 && res.Candidates[i-1].Cost > c.Cost {
			t.Fatal("candidates not sorted by predicted cost")
		}
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] > res.Trace[i-1] {
			t.Fatal("trace not monotone")
		}
	}

	// A margin wider than any bound gap must prune nothing and reproduce the
	// unfiltered evaluation count exactly.
	ix.EnablePrefilter(1e9)
	loose, err := ix.Search(context.Background(), p, k, ef)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Pruned != 0 {
		t.Fatalf("margin 1e9 pruned %d candidates", loose.Pruned)
	}
	if loose.Evals != base.Evals {
		t.Fatalf("loose-margin query ran %d evals, unfiltered ran %d", loose.Evals, base.Evals)
	}

	// Non-positive margin disables the filter and frees the digests.
	ix.EnablePrefilter(0)
	if ix.PrefilterMargin() != 0 {
		t.Fatal("EnablePrefilter(0) did not disable")
	}
	off, err := ix.Search(context.Background(), p, k, ef)
	if err != nil {
		t.Fatal(err)
	}
	if off.Pruned != 0 || off.PrefilterTime != 0 {
		t.Fatalf("disabled pre-filter still reported Pruned=%d PrefilterTime=%v", off.Pruned, off.PrefilterTime)
	}
}
