// Command waco-train trains a WACO cost model from a dataset produced by
// waco-datagen and writes the model (architecture + weights) to a file
// consumable by waco-tune. With -artifact it additionally seals a tuner
// artifact (model + HNSW schedule index + configuration) that waco-serve
// and waco-tune can load without retraining or re-indexing.
//
// Usage:
//
//	waco-train -data spmm.dataset -scale default -out spmm.model
//	waco-train -data spmm.dataset -scale default -out spmm.model -artifact spmm.tuner
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/dataset"
	"waco/internal/experiments"
	"waco/internal/kernel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("waco-train: ")
	dataPath := flag.String("data", "waco.dataset", "input dataset file from waco-datagen")
	out := flag.String("out", "waco.model", "output model file")
	artifact := flag.String("artifact", "", "also seal a tuner artifact (model + schedule index) to this file")
	scaleName := flag.String("scale", "quick", "scale preset sizing the network: quick|default|paper")
	extractor := flag.String("extractor", "", "override feature extractor: waconet|minkowski|denseconv|human")
	epochs := flag.Int("epochs", 0, "override training epochs")
	lr := flag.Float64("lr", 0, "override learning rate")
	valFrac := flag.Float64("val", 0.2, "validation fraction")
	seed := flag.Int64("seed", 0, "override RNG seed")
	workers := flag.Int("workers", 0, "worker goroutines for training and indexing (0 = one per CPU; results are identical for any value)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	f, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.Load(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %v dataset: %d matrices, %d samples", ds.Alg, len(ds.Entries), ds.NumSamples())

	s := experiments.ScaleByName(*scaleName)
	if *seed != 0 {
		s.Seed = *seed
	}
	if *extractor != "" {
		s.Extractor = costmodel.ExtractorKind(*extractor)
	}
	if *epochs > 0 {
		s.Epochs = *epochs
	}
	if *lr > 0 {
		s.LR = float32(*lr)
	}

	cfg := experiments.PipelineConfigFor(ds.Alg, s, kernel.DefaultProfile())
	cfg.Workers = *workers
	buildStart := time.Now()
	model, err := costmodel.New(cfg.Collect.Space, cfg.Model)
	if err != nil {
		log.Fatal(err)
	}
	train, val := ds.Split(*valFrac, cfg.Train.Seed)
	if len(train) == 0 {
		train = ds.Entries
	}
	tc := cfg.Train
	tc.Workers = *workers
	tc.Verbose = func(line string) { log.Print(line) }
	if _, err := costmodel.TrainContext(ctx, model, train, val, tc); err != nil {
		log.Fatal(err)
	}
	if len(val) > 0 {
		if acc, err := costmodel.PairAccuracy(model, val, 32, s.Seed); err == nil {
			log.Printf("validation pair-ranking accuracy: %.1f%%", 100*acc)
		}
	}

	w, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	saveErr := model.Save(w)
	if cerr := w.Close(); saveErr == nil {
		saveErr = cerr
	}
	if saveErr != nil {
		log.Fatal(saveErr)
	}
	log.Printf("wrote %s", *out)

	if *artifact != "" {
		// Workloads tuned against this artifact must use the dataset's dense
		// inner dimension, not the scale preset's.
		cfg.Collect.DenseN = ds.DenseN
		tuner, err := core.NewTunerContext(ctx, model, ds, cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Record the full offline cost (training + indexing) so cached
		// startups can report their speedup against it.
		tuner.BuildSeconds = time.Since(buildStart).Seconds()
		af, err := os.Create(*artifact)
		if err != nil {
			log.Fatal(err)
		}
		sealErr := core.SaveTuner(af, tuner)
		if cerr := af.Close(); sealErr == nil {
			sealErr = cerr
		}
		if sealErr != nil {
			log.Fatal(sealErr)
		}
		log.Printf("sealed tuner artifact %s (%d indexed schedules, built in %.2fs)",
			*artifact, len(tuner.Index.Schedules), tuner.BuildSeconds)
	}
}
