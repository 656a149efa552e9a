package core

import (
	"context"
	"math/rand"
	"testing"

	"waco/internal/baselines"
	"waco/internal/costmodel"
	"waco/internal/dataset"
	"waco/internal/generate"
	"waco/internal/kernel"
	"waco/internal/schedule"
	"waco/internal/sparseconv"
)

// quickConfig returns a pipeline configuration small enough for unit tests.
func quickConfig(alg schedule.Algorithm) Config {
	cfg := DefaultConfig(alg)
	cfg.Collect.SchedulesPerMatrix = 8
	cfg.Collect.Repeats = 1
	cfg.Collect.DenseN = 8
	sp := schedule.DefaultSpace(alg)
	sp.SplitChoices = []int32{1, 2, 4, 8}
	sp.ThreadChoices = []int{1, 2}
	cfg.Collect.Space = sp
	cfg.Model = costmodel.Config{
		Extractor: costmodel.KindHumanFeature,
		ConvCfg:   sparseconv.Config{Dim: alg.SparseOrder(), Channels: 4, Depth: 2, FirstKernel: 3, OutDim: 12},
		EmbDim:    12,
		HeadDims:  []int{16},
		Seed:      1,
	}
	cfg.Train = costmodel.TrainConfig{Epochs: 3, PairsPerMatrix: 8, LR: 1e-3, Seed: 2, Loss: costmodel.LossRank}
	cfg.TopK = 3
	cfg.SearchEf = 24
	return cfg
}

func testCorpus(n int) []generate.Matrix {
	cc := generate.DefaultCorpusConfig()
	cc.Count = n
	cc.MinDim = 64
	cc.MaxDim = 160
	cc.MaxNNZ = 2500
	return generate.Corpus(cc)
}

func TestBuildAndTuneEndToEnd(t *testing.T) {
	cfg := quickConfig(schedule.SpMM)
	tuner, ds, err := Build(testCorpus(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() == 0 {
		t.Fatal("empty dataset")
	}
	if len(tuner.TrainTrace.Epochs) != cfg.Train.Epochs {
		t.Fatalf("%d epochs traced", len(tuner.TrainTrace.Epochs))
	}

	// Tune an unseen matrix.
	rng := rand.New(rand.NewSource(99))
	coo := generate.Uniform(rng, 128, 128, 2000)
	tuned, err := tuner.TuneTensor(coo)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.KernelSeconds <= 0 {
		t.Fatal("no kernel time")
	}
	if tuned.TuningSeconds <= 0 {
		t.Fatal("no tuning time")
	}
	if err := tuned.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}

	// The tuner satisfies the baselines.Method interface and can be compared
	// uniformly against the baselines.
	var m baselines.Method = tuner
	if m.Name() != "WACO" || !m.Supports(schedule.SpMM) || m.Supports(schedule.SpMV) {
		t.Fatal("method interface misbehaves")
	}
}

func TestBuildFromDatasetRejectsEmpty(t *testing.T) {
	cfg := quickConfig(schedule.SpMM)
	if _, err := BuildFromDataset(&dataset.Dataset{}, cfg); err == nil {
		t.Fatal("accepted empty dataset")
	}
}

func TestTuneRejectsWrongAlgorithm(t *testing.T) {
	cfg := quickConfig(schedule.SpMM)
	tuner, _, err := Build(testCorpus(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	coo := generate.Uniform(rng, 64, 64, 500)
	wl, err := kernel.NewWorkload(schedule.SpMV, coo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Tune(wl, kernel.DefaultProfile(), baselines.Config{Repeats: 1}); err == nil {
		t.Fatal("accepted SpMV workload on SpMM tuner")
	}
}

// TestTuneCarriesSearchPredictions: every probed candidate reports the
// predicted cost the search ranked it by, and the winner is probed exactly
// once (its probe plan serves the final measurement).
func TestTuneCarriesSearchPredictions(t *testing.T) {
	cfg := quickConfig(schedule.SpMM)
	cfg.TopK = 4 // SearchEf 24 = 6·TopK, so TuneContext does not raise ef
	tuner, _, err := Build(testCorpus(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	coo := generate.Uniform(rng, 128, 128, 1500)
	tuned, err := tuner.TuneTensor(coo)
	if err != nil {
		t.Fatal(err)
	}
	// Same (k, ef) as TuneContext derives from this config: the search is
	// deterministic, so it returns the same candidates and costs.
	res, err := tuner.Index.Search(context.Background(), costmodel.NewPattern(coo), cfg.TopK, cfg.SearchEf)
	if err != nil {
		t.Fatal(err)
	}
	costs := make(map[*schedule.SuperSchedule]float64, len(res.Candidates))
	for _, c := range res.Candidates {
		costs[c.SS] = c.Cost
	}
	if len(tuned.Measured) == 0 {
		t.Fatal("tune exposed no probe measurements")
	}
	winners := 0
	for i, m := range tuned.Measured {
		want, ok := costs[m.Schedule]
		if !ok {
			t.Fatalf("measurement %d (%s) is not a search candidate", i, m.Schedule)
		}
		if m.Predicted != want {
			t.Fatalf("measurement %d predicted %v, search ranked it at %v", i, m.Predicted, want)
		}
		if m.Schedule == tuned.Schedule {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("winner appears %d times in Measured, want 1", winners)
	}
}

// WACO's tuned schedule should usually not be slower than the median random
// schedule from its own dataset — a weak sanity bound that holds even for a
// barely trained model because the top-K are measured on hardware.
func TestTunedScheduleIsReasonable(t *testing.T) {
	cfg := quickConfig(schedule.SpMM)
	cfg.TopK = 5
	tuner, _, err := Build(testCorpus(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	coo := generate.Uniform(rng, 160, 160, 3000)
	wl, err := kernel.NewWorkload(schedule.SpMM, coo, 8)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := tuner.Tune(wl, cfg.Collect.Profile, baselines.Config{Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against 6 random schedules.
	srng := rand.New(rand.NewSource(8))
	worse := 0
	total := 0
	for i := 0; i < 6; i++ {
		ss := cfg.Collect.Space.Sample(srng)
		d, _, err := wl.MeasureSchedule(ss, cfg.Collect.Profile, 0, 3)
		if err != nil {
			continue
		}
		total++
		if d.Seconds() < tuned.KernelSeconds {
			worse++
		}
	}
	if total > 0 && worse == total {
		t.Fatalf("every random schedule beat the tuned one (%d/%d)", worse, total)
	}
}
