// Package core assembles the full WACO pipeline (Figure 1): collect a
// training dataset of measured (matrix, SuperSchedule, runtime) tuples,
// train the cost model with the pairwise ranking loss, build the KNN graph
// over program embeddings of the dataset's SuperSchedules, and answer
// queries — for an input sparse tensor, retrieve the top-K SuperSchedules by
// approximate nearest neighbor search, measure them on the machine, and
// return the fastest (the paper's protocol in §5.2).
package core

import (
	"context"
	"fmt"
	"time"

	"waco/internal/baselines"
	"waco/internal/costmodel"
	"waco/internal/dataset"
	"waco/internal/format"
	"waco/internal/generate"
	"waco/internal/hnsw"
	"waco/internal/kernel"
	"waco/internal/parallelism"
	"waco/internal/schedule"
	"waco/internal/search"
	"waco/internal/tensor"
)

// Config parameterizes the whole pipeline.
type Config struct {
	Alg     schedule.Algorithm
	Collect dataset.CollectConfig
	Model   costmodel.Config
	Train   costmodel.TrainConfig
	HNSW    hnsw.Config
	// TopK candidates are measured on the machine after the ANNS retrieval
	// (the paper reports the fastest of the top 10 from a ~2M-schedule
	// index). TopK <= 0 selects adaptively: max(10, indexSize/25), keeping
	// the measured fraction comparable at reduced index sizes.
	TopK int
	// SearchEf is the ANNS beam width; raised to 6*K when smaller.
	SearchEf int
	// ValFrac is the train/validation split (paper: 20%).
	ValFrac float64
	// Workers bounds the offline pipeline's parallelism (collection,
	// training, index construction). <1 means one worker per CPU. It is a
	// pure throughput knob: every stage is deterministic in (config, seed)
	// regardless of worker count. A stage whose own Workers field is set
	// explicitly (Collect.Workers, Train.Workers, HNSW.Workers) keeps it.
	Workers int
	// PoolMetrics, when non-nil, instruments the offline worker pool across
	// all stages. Runtime wiring; never persisted in sealed artifacts.
	PoolMetrics *parallelism.Metrics
}

// withWorkers resolves the pipeline-wide worker count into any stage that
// did not set its own, and fans the pool instruments out the same way.
func (cfg Config) withWorkers() Config {
	w := parallelism.Workers(cfg.Workers)
	if cfg.Collect.Workers == 0 {
		cfg.Collect.Workers = w
	}
	if cfg.Train.Workers == 0 {
		cfg.Train.Workers = w
	}
	if cfg.HNSW.Workers == 0 {
		cfg.HNSW.Workers = w
	}
	if cfg.PoolMetrics != nil {
		if cfg.Collect.PoolMetrics == nil {
			cfg.Collect.PoolMetrics = cfg.PoolMetrics
		}
		if cfg.Train.Metrics == nil {
			cfg.Train.Metrics = cfg.PoolMetrics
		}
	}
	return cfg
}

// DefaultConfig returns reduced-scale defaults for the algorithm.
func DefaultConfig(alg schedule.Algorithm) Config {
	return Config{
		Alg:      alg,
		Collect:  dataset.DefaultCollectConfig(alg),
		Model:    costmodel.DefaultConfig(alg),
		Train:    costmodel.DefaultTrainConfig(),
		HNSW:     hnsw.DefaultConfig(),
		TopK:     5,
		SearchEf: 64,
		ValFrac:  0.2,
	}
}

// Tuner is a trained WACO instance: cost model plus schedule index.
//
// A Tuner is safe for concurrent Tune/TuneContext calls: queries only read
// the model weights and the index graph (see the concurrency notes on
// costmodel.Model), and every call builds its own Pattern and Workload.
type Tuner struct {
	Cfg        Config
	Model      *costmodel.Model
	Index      *search.Index
	TrainTrace costmodel.TrainResult
	// BuildSeconds is the wall-clock cost of constructing this tuner
	// (training and/or index building). It is persisted in sealed artifacts
	// so the cached startup path can report its speedup.
	BuildSeconds float64
	// KernelMetrics, when non-nil, is attached to every workload the tuner
	// builds (TuneTensor/TuneTensorContext), so candidate probing and final
	// measurements are recorded. Serving-side instrumentation; never
	// persisted.
	KernelMetrics *kernel.Metrics
	// ArtifactStamp is the SHA-256 hex digest of the sealed artifact this
	// tuner was loaded from (set by LoadTuner). Empty for tuners built
	// in-process; never persisted — it identifies bytes on disk, not the
	// tuner's contents.
	ArtifactStamp string
}

// Build runs the full offline pipeline on a training corpus.
func Build(trainMatrices []generate.Matrix, cfg Config) (*Tuner, *dataset.Dataset, error) {
	return BuildContext(context.Background(), trainMatrices, cfg)
}

// BuildContext is Build with cancellation; cfg.Workers bounds every stage's
// parallelism without changing its output.
func BuildContext(ctx context.Context, trainMatrices []generate.Matrix, cfg Config) (*Tuner, *dataset.Dataset, error) {
	cfg = cfg.withWorkers()
	ds, err := dataset.CollectContext(ctx, trainMatrices, cfg.Collect)
	if err != nil {
		return nil, nil, err
	}
	t, err := BuildFromDatasetContext(ctx, ds, cfg)
	return t, ds, err
}

// BuildFromDataset trains the cost model and builds the index from an
// existing dataset (e.g. loaded from disk).
func BuildFromDataset(ds *dataset.Dataset, cfg Config) (*Tuner, error) {
	return BuildFromDatasetContext(context.Background(), ds, cfg)
}

// BuildFromDatasetContext is BuildFromDataset with cancellation and the
// pipeline-wide worker pool.
func BuildFromDatasetContext(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Tuner, error) {
	cfg = cfg.withWorkers()
	t0 := time.Now()
	if len(ds.Entries) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	model, err := costmodel.New(cfg.Collect.Space, cfg.Model)
	if err != nil {
		return nil, err
	}
	train, val := ds.Split(cfg.ValFrac, cfg.Train.Seed)
	if len(train) == 0 {
		train = ds.Entries
	}
	trace, err := costmodel.TrainContext(ctx, model, train, val, cfg.Train)
	if err != nil {
		return nil, err
	}
	ix, err := buildIndex(ctx, model, ds, cfg)
	if err != nil {
		return nil, err
	}
	return &Tuner{Cfg: cfg, Model: model, Index: ix, TrainTrace: trace,
		BuildSeconds: time.Since(t0).Seconds()}, nil
}

// NewTuner wraps an already trained model with an index built from the
// dataset's SuperSchedules (no retraining) — used by cmd/waco-tune with a
// model file produced by cmd/waco-train.
func NewTuner(model *costmodel.Model, ds *dataset.Dataset, cfg Config) (*Tuner, error) {
	return NewTunerContext(context.Background(), model, ds, cfg)
}

// NewTunerContext is NewTuner with cancellation and the worker pool.
func NewTunerContext(ctx context.Context, model *costmodel.Model, ds *dataset.Dataset, cfg Config) (*Tuner, error) {
	cfg = cfg.withWorkers()
	t0 := time.Now()
	ix, err := buildIndex(ctx, model, ds, cfg)
	if err != nil {
		return nil, err
	}
	return &Tuner{Cfg: cfg, Model: model, Index: ix,
		BuildSeconds: time.Since(t0).Seconds()}, nil
}

// buildIndex indexes every SuperSchedule appearing in the dataset.
func buildIndex(ctx context.Context, model *costmodel.Model, ds *dataset.Dataset, cfg Config) (*search.Index, error) {
	var scheds []*schedule.SuperSchedule
	for _, e := range ds.Entries {
		for _, s := range e.Samples {
			scheds = append(scheds, s.SS)
		}
	}
	return search.BuildIndexContext(ctx, model, scheds, cfg.HNSW,
		search.BuildOptions{Workers: cfg.Workers, Metrics: cfg.PoolMetrics})
}

// Name implements baselines.Method.
func (t *Tuner) Name() string { return "WACO" }

// Supports implements baselines.Method.
func (t *Tuner) Supports(alg schedule.Algorithm) bool { return alg == t.Cfg.Alg }

// Tune implements baselines.Method: ANNS retrieval of TopK candidates, then
// on-machine measurement of each, returning the fastest. Tuning time covers
// feature extraction, graph search, and candidate measurement; conversion
// time is the winning format's assembly.
func (t *Tuner) Tune(wl *kernel.Workload, profile kernel.MachineProfile, cfg baselines.Config) (*baselines.Tuned, error) {
	return t.TuneContext(context.Background(), wl, profile, cfg)
}

// TuneContext is Tune with cancellation: the context is checked before the
// ANNS search and between candidate measurements, so a server can bound a
// request's tuning time. A single kernel measurement is never interrupted
// mid-run (the executor has no preemption points), which bounds cancellation
// latency to one candidate's measurement.
func (t *Tuner) TuneContext(ctx context.Context, wl *kernel.Workload, profile kernel.MachineProfile, cfg baselines.Config) (*baselines.Tuned, error) {
	if wl.Alg != t.Cfg.Alg {
		return nil, fmt.Errorf("core: %v tuner on %v workload", t.Cfg.Alg, wl.Alg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pattern := costmodel.NewPattern(wl.COO)
	k := t.Cfg.TopK
	if k <= 0 {
		k = len(t.Index.Schedules) / 25
		if k < 10 {
			k = 10
		}
	}
	ef := t.Cfg.SearchEf
	if ef < 6*k {
		ef = 6 * k
	}
	res, err := t.Index.Search(ctx, pattern, k, ef)
	if err != nil {
		return nil, err
	}
	tuning := res.FeatureTime + res.SearchTime

	var best kernel.Executable
	var bestTime time.Duration
	var bestConvert time.Duration
	measured := 0
	var probes []baselines.Measurement
	for _, cand := range res.Candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		plan, err := wl.Compile(cand.SS, profile, cfg.MaxEntries)
		if err != nil {
			if format.IsStorageLimit(err) {
				continue
			}
			return nil, err
		}
		if plan.CheckWork(0) != nil {
			continue // would run unboundedly long on this matrix
		}
		convert := time.Since(t0)
		// Median of 3 probe runs: candidate selection is noise-sensitive at
		// microsecond kernel scales.
		d, err := wl.Measure(plan, 3)
		if err != nil {
			return nil, err
		}
		tuning += convert + d
		measured++
		// Every probed candidate is a (pattern, schedule, runtime) triple;
		// probe timings share a repeat count, so they rank against each other.
		probes = append(probes, baselines.Measurement{Schedule: cand.SS, Seconds: d.Seconds(), Predicted: cand.Cost})
		if best == nil || d < bestTime {
			best, bestTime, bestConvert = plan, d, convert
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no retrieved candidate assembles under the storage budget")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The winner's probe plan is reused: re-assembling it would only repeat
	// work the probe loop already did.
	med, err := wl.Measure(best, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	return &baselines.Tuned{
		Method:         "WACO",
		KernelSeconds:  med.Seconds(),
		TuningSeconds:  tuning.Seconds(),
		ConvertSeconds: bestConvert.Seconds(),
		Schedule:       best.Super(),
		Info:           fmt.Sprintf("measured %d of top-%d", measured, k),
		Measured:       probes,
	}, nil
}

// TuneTensor is the convenience entry point: builds a workload for the
// tensor and tunes it with default measurement settings.
func (t *Tuner) TuneTensor(coo *tensor.COO) (*baselines.Tuned, error) {
	return t.TuneTensorContext(context.Background(), coo)
}

// TuneTensorContext is TuneTensor with cancellation.
func (t *Tuner) TuneTensorContext(ctx context.Context, coo *tensor.COO) (*baselines.Tuned, error) {
	wl, err := kernel.NewWorkload(t.Cfg.Alg, coo, t.Cfg.Collect.DenseN)
	if err != nil {
		return nil, err
	}
	wl.Metrics = t.KernelMetrics
	repeats := t.Cfg.Collect.Repeats
	if repeats < 5 {
		repeats = 5
	}
	return t.TuneContext(ctx, wl, t.Cfg.Collect.Profile, baselines.Config{
		Repeats:    repeats,
		MaxEntries: t.Cfg.Collect.MaxEntries,
	})
}
