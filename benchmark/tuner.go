package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/dataset"
	"waco/internal/generate"
	"waco/internal/hnsw"
	"waco/internal/kernel"
	"waco/internal/parallelism"
	"waco/internal/schedule"
	"waco/internal/sparseconv"
)

// benchThreads pins the thread dimension of the schedule space and the
// machine profile, so the index holds the same schedules on every host.
const benchThreads = 2

// corpusSeed fixes the tuner's training corpus. It is deliberately not the
// -seed flag: the tuner is the same for every workload seed, so latency
// differences between runs come from the code, not from a different model.
const corpusSeed = 20230325

// tunerSize sizes the fixed tuner's training set.
type tunerSize struct {
	Matrices  int
	Schedules int // per matrix
	Epochs    int
}

var (
	fullTuner  = tunerSize{Matrices: 24, Schedules: 40, Epochs: 30}
	shortTuner = tunerSize{Matrices: 6, Schedules: 12, Epochs: 2}
)

func benchProfile() kernel.MachineProfile {
	return kernel.MachineProfile{Name: "bench", ThreadCap: benchThreads}
}

func benchSpace(alg schedule.Algorithm) schedule.Space {
	sp := schedule.DefaultSpace(alg)
	sp.ThreadChoices = []int{1, benchThreads}
	return sp
}

func denseNFor(alg schedule.Algorithm) int {
	if alg == schedule.SpMV {
		return 0
	}
	return 256
}

// benchConfig is the quick-scale WACONet pipeline (experiments.QuickScale's
// model) with the benchmark's pinned space, TopK 10 and SearchEf 80.
func benchConfig(alg schedule.Algorithm, epochs int) core.Config {
	cfg := core.DefaultConfig(alg)
	cfg.Collect.Space = benchSpace(alg)
	cfg.Collect.DenseN = denseNFor(alg)
	cfg.Collect.Profile = benchProfile()
	cfg.Collect.Repeats = 3
	cfg.Collect.Seed = corpusSeed
	cfg.Model = costmodel.Config{
		Extractor: costmodel.KindWACONet,
		ConvCfg: sparseconv.Config{
			Dim: alg.SparseOrder(), Channels: 4, Depth: 3, FirstKernel: 5, OutDim: 16,
		},
		EmbDim:   16,
		HeadDims: []int{32, 16},
		Seed:     1,
	}
	cfg.Train = costmodel.TrainConfig{
		Epochs: epochs, PairsPerMatrix: 32, LR: 1e-3, Seed: 1,
		Loss: costmodel.LossRank, MinRatio: 1.1, BatchMatrices: 8,
	}
	cfg.HNSW = hnsw.DefaultConfig()
	cfg.TopK = 10
	cfg.SearchEf = 80
	cfg.Workers = benchThreads
	return cfg
}

func trainingCorpus(n int, seed int64) []generate.Matrix {
	return generate.Corpus(generate.CorpusConfig{
		Count: n, Seed: seed, MinDim: 64, MaxDim: 320, MaxNNZ: 6000, Square: true,
	})
}

// analyticDataset samples schedules for every matrix and labels each with
// its compiled plan's work estimate divided by its thread count (the
// relabelAnalytic recipe of internal/experiments/transfer_test.go). No kernel
// is timed, so the labels — and, the trainer being deterministic, the
// weights and the index — are bit-identical on every run.
func analyticDataset(mats []generate.Matrix, cfg dataset.CollectConfig) (*dataset.Dataset, error) {
	ds := &dataset.Dataset{Alg: cfg.Alg, DenseN: cfg.DenseN, Profile: cfg.Profile}
	for i, m := range mats {
		wl, err := kernel.NewWorkload(cfg.Alg, m.COO, cfg.DenseN)
		if err != nil {
			return nil, err
		}
		rng := parallelism.ShardRand(cfg.Seed, int64(i))
		entry := &dataset.Entry{Name: m.Name, Family: m.Family, COO: m.COO}
		seen := make(map[string]bool, cfg.SchedulesPerMatrix)
		for n := 0; n < cfg.SchedulesPerMatrix; n++ {
			var ss *schedule.SuperSchedule
			if rng.Float64() < cfg.ConcordantFrac {
				ss = cfg.Space.SampleConcordant(rng)
			} else {
				ss = cfg.Space.Sample(rng)
			}
			if key := ss.String(); seen[key] {
				continue
			} else {
				seen[key] = true
			}
			plan, err := wl.Compile(ss, cfg.Profile, cfg.MaxEntries)
			if err != nil || plan.CheckWork(cfg.MaxWork) != nil {
				continue // storage blow-up or hopeless plan: excluded, as in dataset.Collect
			}
			entry.Samples = append(entry.Samples, dataset.Sample{
				SS:      ss,
				Seconds: plan.EstimateWork() * 1e-9 / float64(ss.Threads),
				Bytes:   plan.StoredBytes(),
			})
		}
		if len(entry.Samples) > 0 {
			ds.Entries = append(ds.Entries, entry)
		}
	}
	if len(ds.Entries) == 0 {
		return nil, fmt.Errorf("benchmark: no schedule of the training corpus compiled")
	}
	return ds, nil
}

// fixedTuner is one set-up's product.
type fixedTuner struct {
	Tuner *core.Tuner
	// ByString recovers a *SuperSchedule from TuneResult.Schedule: the wire
	// form has no parser, and every answer comes from the index.
	ByString map[string]*schedule.SuperSchedule
	Artifact []byte

	LabelS float64 // corpus + analytic labels
	BuildS float64 // train + index + seal + load; the median where built more than once
	SealS  float64
	LoadS  float64
}

// fixedBuilds is how often a timed run trains, indexes, seals and loads the
// fixed tuner; build_s and setup_s take the median. One such build is 1.6 s
// of deterministic work, and a neighbour's burst on the shared host stretched
// three in ten of them by a quarter: a spread of 0.21 between runs of one
// commit, where the largest bound a metric may have is 0.25.
const fixedBuilds = 3

// buildFixedTuner builds the benchmark's tuner from source and passes it
// through SaveTuner/LoadTuner, because a sealed artifact is what waco-serve
// serves. A timed run (stages nil) makes the one production call,
// core.BuildFromDatasetContext, builds times on the same labels; a traced
// run walks the same stages once through their public functions and times
// them apart into stages.
func buildFixedTuner(ctx context.Context, alg schedule.Algorithm, size tunerSize, builds int, stages *buildStages) (*fixedTuner, error) {
	cfg := benchConfig(alg, size.Epochs)
	cfg.Collect.SchedulesPerMatrix = size.Schedules

	t0 := time.Now()
	ds, err := analyticDataset(trainingCorpus(size.Matrices, corpusSeed), cfg.Collect)
	if err != nil {
		return nil, err
	}
	ft := &fixedTuner{LabelS: time.Since(t0).Seconds()}
	if stages != nil {
		stages.CollectS = ft.LabelS
		stages.Samples, stages.Requested = ds.NumSamples(), size.Matrices*size.Schedules
	}

	var took samples
	for i := 0; i < builds; i++ {
		t1 := time.Now()
		var built *core.Tuner
		if stages == nil {
			built, err = core.BuildFromDatasetContext(ctx, ds, cfg)
		} else {
			built, err = trainAndIndex(ctx, ds, cfg, stages)
		}
		if err != nil {
			return nil, err
		}
		if err := ft.sealAndLoad(built); err != nil {
			return nil, err
		}
		took.add(time.Since(t1).Seconds())
	}
	ft.BuildS = took.median()
	return ft, nil
}

// sealAndLoad round-trips built through the artifact format and keeps the
// loaded tuner.
func (ft *fixedTuner) sealAndLoad(built *core.Tuner) error {
	t0 := time.Now()
	var buf bytes.Buffer
	if err := core.SaveTuner(&buf, built); err != nil {
		return err
	}
	ft.SealS = time.Since(t0).Seconds()
	ft.Artifact = buf.Bytes()

	t1 := time.Now()
	loaded, err := core.LoadTuner(bytes.NewReader(ft.Artifact))
	if err != nil {
		return err
	}
	ft.LoadS = time.Since(t1).Seconds()
	ft.Tuner = loaded
	ft.ByString = make(map[string]*schedule.SuperSchedule, len(loaded.Index.Schedules))
	for _, ss := range loaded.Index.Schedules {
		ft.ByString[ss.String()] = ss
	}
	return nil
}
