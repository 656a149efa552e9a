package main

import (
	"context"
	"time"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/dataset"
	"waco/internal/generate"
	"waco/internal/schedule"
	"waco/internal/search"
)

// The offline_build workload's pipeline: wall-clock labels, unlike the
// fixed tuner's.
var (
	fullOffline  = tunerSize{Matrices: 32, Schedules: 32, Epochs: 30}
	shortOffline = tunerSize{Matrices: 6, Schedules: 8, Epochs: 2}
)

// heldOut matrices are ranked by the freshly trained model.
const heldOut = 4

// buildStages are the offline pipeline's stages timed apart, which only a
// traced run does.
type buildStages struct {
	CollectS        float64
	Samples         int
	Requested       int // schedules asked for: matrices x schedules per matrix
	TrainS          float64
	TrainPairs      int // ranking pairs drawn over all epochs
	IndexS          float64
	HoldoutSpearman float64
}

// offlineBuild runs datagen, training and index build on real kernel
// timings, then seals and loads the artifact. The corpus ends with the
// heldOut matrices, which are not trained on. A timed run makes the one
// production call, core.BuildContext; a traced run walks the same stages
// through their public functions and ranks the held-out matrices.
func offlineBuild(ctx context.Context, corpus []generate.Matrix, size tunerSize, traced bool) (*fixedTuner, buildStages, error) {
	cfg := benchConfig(schedule.SpMM, size.Epochs)
	cfg.Collect.SchedulesPerMatrix = size.Schedules
	train, held := corpus[:len(corpus)-heldOut], corpus[len(corpus)-heldOut:]

	ft := &fixedTuner{}
	var stages buildStages
	t0 := time.Now()
	var built *core.Tuner
	if !traced {
		var err error
		if built, _, err = core.BuildContext(ctx, train, cfg); err != nil {
			return nil, stages, err
		}
	} else {
		cfg.Collect.Workers = benchThreads
		ds, err := dataset.CollectContext(ctx, train, cfg.Collect)
		if err != nil {
			return nil, stages, err
		}
		stages.CollectS = time.Since(t0).Seconds()
		stages.Samples, stages.Requested = ds.NumSamples(), len(train)*size.Schedules
		if built, err = trainAndIndex(ctx, ds, cfg, &stages); err != nil {
			return nil, stages, err
		}
	}
	if err := ft.sealAndLoad(built); err != nil {
		return nil, stages, err
	}
	ft.BuildS = time.Since(t0).Seconds()

	if traced {
		hds, err := dataset.CollectContext(ctx, held, cfg.Collect)
		if err != nil {
			return nil, stages, err
		}
		// Its only error is "no rankable entry", which leaves the figure at 0.
		if rho, err := costmodel.RankQuality(built.Model, hds.Entries); err == nil {
			stages.HoldoutSpearman = rho
		}
	}
	return ft, stages, nil
}

// trainAndIndex is core.BuildFromDatasetContext through the public
// functions it calls, each timed. The validation split doubles as the
// hold-out the trained model is scored on.
func trainAndIndex(ctx context.Context, ds *dataset.Dataset, cfg core.Config, stages *buildStages) (*core.Tuner, error) {
	cfg.Train.Workers, cfg.HNSW.Workers = cfg.Workers, cfg.Workers
	t0 := time.Now()
	model, err := costmodel.New(cfg.Collect.Space, cfg.Model)
	if err != nil {
		return nil, err
	}
	train, val := ds.Split(cfg.ValFrac, cfg.Train.Seed)
	trace, err := costmodel.TrainContext(ctx, model, train, val, cfg.Train)
	if err != nil {
		return nil, err
	}
	stages.TrainS = time.Since(t0).Seconds()
	stages.TrainPairs = cfg.Train.Epochs * len(train) * cfg.Train.PairsPerMatrix
	if rho, err := costmodel.RankQuality(model, val); err == nil { // its only error: no rankable entry
		stages.HoldoutSpearman = rho
	}

	t1 := time.Now()
	var scheds []*schedule.SuperSchedule
	for _, e := range ds.Entries {
		for _, s := range e.Samples {
			scheds = append(scheds, s.SS)
		}
	}
	ix, err := search.BuildIndexContext(ctx, model, scheds, cfg.HNSW, search.BuildOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	stages.IndexS = time.Since(t1).Seconds()
	return &core.Tuner{Cfg: cfg, Model: model, Index: ix, TrainTrace: trace}, nil
}
