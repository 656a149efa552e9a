package search

import (
	"context"
	"math/rand"
	"testing"

	"waco/internal/costmodel"
	"waco/internal/generate"
	"waco/internal/hnsw"
	"waco/internal/schedule"
	"waco/internal/sparseconv"
)

// benchQuerySetup builds the shared fixture of the query-path benchmarks: a
// full-size WACONet cost model, an index of 512 schedules, and one pattern
// whose caches are warmed so both paths measure steady-state queries. The
// forward and tape benchmarks use the identical fixture — their ratio is the
// speedup the BENCH_search.json baseline tracks.
func benchQuerySetup(b *testing.B) (*Index, *costmodel.Pattern) {
	b.Helper()
	cfg := costmodel.Config{
		Extractor: costmodel.KindWACONet,
		ConvCfg:   sparseconv.Config{Dim: 2, Channels: 8, Depth: 4, FirstKernel: 5, OutDim: 32},
		EmbDim:    32,
		HeadDims:  []int{64, 32},
		Seed:      1,
	}
	m, err := costmodel.New(schedule.DefaultSpace(schedule.SpMM), cfg)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildIndex(m, sampleSchedules(512, 81), hnsw.Config{M: 12, EfConstruction: 64, Seed: 82})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	p := costmodel.NewPattern(generate.Uniform(rng, 256, 256, 4000))
	return ix, p
}

const (
	benchQueryK  = 10
	benchQueryEf = 64
)

// BenchmarkSearchQueryForward measures the production query path: forward-only
// inference with pooled scratch and batched head evaluation.
func BenchmarkSearchQueryForward(b *testing.B) {
	ix, p := benchQuerySetup(b)
	if _, err := ix.Search(context.Background(), p, benchQueryK, benchQueryEf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(context.Background(), p, benchQueryK, benchQueryEf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkSearchQueryPrefiltered measures the forward path behind the
// asymptotic-cost pre-filter (prune margin 2, in log2 units of asymptotic
// work) — the configuration the 1.3x queries/sec and pruned_frac gates in
// scripts/benchdiff.sh hold against the forward baseline. pruned_frac
// reports the fraction of visited candidates the filter kept away from the
// predictor head.
func BenchmarkSearchQueryPrefiltered(b *testing.B) {
	ix, p := benchQuerySetup(b)
	ix.EnablePrefilter(2.0)
	if _, err := ix.Search(context.Background(), p, benchQueryK, benchQueryEf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	evals, pruned := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := ix.Search(context.Background(), p, benchQueryK, benchQueryEf)
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Evals
		pruned += res.Pruned
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	if evals+pruned > 0 {
		b.ReportMetric(float64(pruned)/float64(evals+pruned), "pruned_frac")
	}
}

// BenchmarkSearchQueryTape measures the historical tape-path query the
// forward path replaced (and must stay bit-identical to); kept as the
// regression baseline for the speedup and allocation claims.
func BenchmarkSearchQueryTape(b *testing.B) {
	ix, p := benchQuerySetup(b)
	if _, err := searchTape(ix, p, benchQueryK, benchQueryEf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := searchTape(ix, p, benchQueryK, benchQueryEf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}
