package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"waco/internal/costmodel"
	"waco/internal/schedule"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		p, n int
		want bool
	}{
		{50, 19, false}, {50, 20, true}, {75, 39, false}, {75, 40, true}, {90, 99, false}, {90, 100, true},
		{95, 199, false}, {95, 200, true}, {99, 999, false}, {99, 1000, true},
	} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(p%d, n=%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	if s := (samples{4, 1, 3, 2}); s.median() != 2.5 || s.percentile(100) != 4 || s.percentile(0) != 1 {
		t.Errorf("percentiles of %v: p0 %v p50 %v p100 %v", s, s.percentile(0), s.median(), s.percentile(100))
	}
	if got := (samples{2, 8, 0}).geomean(); got != 4 {
		t.Errorf("geomean skipping the zero = %v, want 4", got)
	}
}

// TestCountsSupportTails: at run_seconds every workload collects enough of
// each kind of operation for the tail reported of it.
func TestCountsSupportTails(t *testing.T) {
	for _, s := range specs {
		for _, c := range []struct {
			what   string
			tail   int
			perSec float64
		}{{"cold tunes", coldTail, s.ColdPerSec}, {"hits", cachedTail, s.HitPerSec}, {"predicts", predictTail, s.PredictPerSec}} {
			if n := perRun(c.perSec, defaultSeconds); !supported(c.tail, n) {
				t.Errorf("%s: %d %s do not support p%d", s.Name, n, c.what, c.tail)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{}
	r.add(stageOp, 0, -1, 0, 100)           // 0
	r.add(stageAssemble, 0, 0, 10, 30)      // 1
	r.add(stageProbe, 0, 0, 20, 50)         // 2: overlaps 1 on [20,30]
	r.add(stageFinal, 0, 0, 60, 80)         // 3
	r.add(stageAssemble, 0, 3, 60, 65)      // 4: grandchild, covered by 3 already
	r.add(stageOp, 1, -1, 100, 110)         // 5: childless
	r.add(stageFingerprint, 1, 5, 105, 130) // 6: runs past its parent's end
	want := []time.Duration{40, 20, 30, 15, 5, 5, 25}
	got := r.selfTimes()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, r.spans[i].Name, got[i], want[i])
		}
	}
	perOp := r.stageSelf(got)
	if perOp[0][stageAssemble] != 25 || perOp[1][stageOp] != 5 {
		t.Errorf("per-op sums: %v", perOp)
	}
}

func httpSpec(t *testing.T) spec {
	t.Helper()
	s, ok := specByName("serve_mixed")
	if !ok {
		t.Fatal("no serve_mixed workload")
	}
	return s
}

func TestSeedDeterminism(t *testing.T) {
	s := httpSpec(t)
	plans := make([]*opPlan, 3)
	for i, seed := range []int64{7, 7, 8} {
		p, err := s.plan(newGenerator(seed), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	a, b, other := plans[0], plans[1], plans[2]
	if len(a.Ops) != len(b.Ops) || len(a.Prewarm) != len(b.Prewarm) {
		t.Fatalf("same seed, different plans: %d/%d ops, %d/%d warm-up", len(a.Ops), len(b.Ops), len(a.Prewarm), len(b.Prewarm))
	}
	seen := make(map[string]bool)
	forms := make(map[bool]int)
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Kind != y.Kind || !bytes.Equal(x.In.Body, y.In.Body) {
			t.Fatalf("op %d differs between two plans of one seed", i)
		}
		if len(x.In.Body) == 0 {
			t.Fatalf("op %d of an HTTP workload has no body", i)
		}
		seen[x.In.Fingerprint] = true
		forms[x.In.MatrixMarket]++
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Errorf("bodies do not alternate forms: %v", forms)
	}
	for i, o := range other.Ops {
		if seen[o.In.Fingerprint] {
			t.Fatalf("op %d of seed 8 repeats a fingerprint of seed 7", i)
		}
	}
}

func TestTunerDeterminism(t *testing.T) {
	ctx := context.Background()
	probe, err := newGenerator(3).matrix("probe", 0, shape{256, 2000})
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for round := 0; round < 2; round++ {
		ft, err := buildFixedTuner(ctx, schedule.SpMM, shortTuner, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, ef := searchWidth(ft.Tuner.Cfg, ft.Tuner.Cfg.TopK)
		res, err := ft.Tuner.Index.Search(ctx, costmodel.NewPattern(probe.COO), k, ef)
		if err != nil {
			t.Fatal(err)
		}
		var top []string
		for _, c := range res.Candidates {
			top = append(top, c.SS.String())
			if ft.ByString[c.SS.String()] == nil {
				t.Fatalf("candidate %s is not recoverable from its string", c.SS)
			}
		}
		if round == 0 {
			first = top
			continue
		}
		if len(top) != len(first) {
			t.Fatalf("two set-ups retrieved %d and %d candidates", len(first), len(top))
		}
		for i := range top {
			if top[i] != first[i] {
				t.Fatalf("rank %d differs between two set-ups:\n%s\n%s", i+1, first[i], top[i])
			}
		}
	}
}

// TestSmoke runs every workload at tiny counts, timed and traced: no
// operation may fail, every output must match the reference, and every
// end-to-end metric must come out above zero.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			rep, err := run(context.Background(), s, runOptions{
				Seed: 1, Seconds: 0.25, Trace: traced, Short: true, TempDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.Name, traced, err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d correct %v: %v", s.Name, traced, rep.Attempted, rep.Failed, rep.Correct, rep.Failures)
			}
			for _, d := range rep.defs() {
				// A per-layer metric may be 0 where the workload has no such layer.
				if v := rep.Values[d.Name].V; !traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.Name, d.Name, v)
				}
			}
			if _, err := rep.line(); err != nil {
				t.Errorf("%s: result line: %v", s.Name, err)
			}
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	file, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].Name || w.Why == "" {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range file.EndToEnd {
		if d.metricDef != endToEnd[i] {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, d.metricDef, endToEnd[i])
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range file.PerLayer {
		if d != perLayer[i] {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, d, perLayer[i])
		}
	}
	if float64(file.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default -seconds %v", file.RunSeconds, defaultSeconds)
	}
}
