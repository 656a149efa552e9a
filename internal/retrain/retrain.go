// Package retrain closes the online learning loop: it replays the
// serving-observed measurement log (internal/obslog) into dataset entries,
// fine-tunes the sealed cost model on them with the deterministic worker-pool
// trainer, and promotes the candidate into a versioned artifact directory —
// but only when it passes the rank-quality gate against the incumbent on a
// held-out log slice. cmd/waco-retrain is the CLI wrapper; the CI retrain-e2e
// job drives the whole loop in-process.
//
// Two modes:
//
//   - Full retrain: every weight adapts, and the HNSW index is rebuilt (the
//     embedder moved, so the frozen graph embeddings are stale).
//   - Transfer (COGNATE-style few-shot): the extractor and embedder freeze and
//     only the predictor head adapts from a small measurement budget — the
//     bring-up path on a new machine. A frozen embedder keeps the incumbent's
//     graph embeddings valid, so the index is reused, not rebuilt.
package retrain

import (
	"context"
	"fmt"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/obslog"
	"waco/internal/search"
)

// Config controls one retrain run.
type Config struct {
	// LogPath is the obslog file to replay.
	LogPath string
	// ArtifactPath is the incumbent sealed artifact — the model to fine-tune
	// and the baseline the candidate must beat on the held-out slice.
	ArtifactPath string
	// ModelDir, when set, is the versioned artifact directory (core.Manifest)
	// a gate-passing candidate is promoted into. Empty skips promotion (dry
	// run: gates still evaluate and Result reports them).
	ModelDir string
	// Transfer freezes the extractor and embedder and adapts only the head.
	Transfer bool
	// Budget, when > 0, uses only the most recent Budget log records — the
	// few-shot measurement budget of the transfer experiments.
	Budget int
	// MinRecords is the fewest intact log records required to attempt a
	// retrain. Default 16.
	MinRecords int
	// HoldoutFrac is the fraction of replayed entries held out for the
	// promotion gate (never trained on). Default 0.34.
	HoldoutFrac float64
	// GateSlack is how far (absolute Spearman) the candidate may fall below
	// the incumbent on the held-out slice and still promote — measured
	// runtimes are noisy, and both models are scored on the same slice, so a
	// small slack rejects regressions without flapping on noise. Default 0.02.
	GateSlack float64
	// Epochs, LR, Seed, Workers parameterize the fine-tune. Epochs default 4,
	// LR 1e-3, Seed 1.
	Epochs  int
	LR      float32
	Seed    int64
	Workers int
	// Verbose, if non-nil, receives progress lines.
	Verbose func(string)
}

func (c Config) withDefaults() Config {
	if c.MinRecords <= 0 {
		c.MinRecords = 16
	}
	if c.HoldoutFrac <= 0 || c.HoldoutFrac >= 1 {
		c.HoldoutFrac = 0.34
	}
	if c.GateSlack < 0 {
		c.GateSlack = 0
	} else if c.GateSlack == 0 {
		c.GateSlack = 0.02
	}
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result reports one retrain run: the data volume, the gate's two scores, and
// the promotion outcome. Promoted=false with an empty Err means the gate rejected
// the candidate — an expected outcome, not a failure.
type Result struct {
	Records        int     `json:"records"`
	Used           int     `json:"used"`
	SkippedRecords int     `json:"skipped_records"`
	TrainEntries   int     `json:"train_entries"`
	HoldoutEntries int     `json:"holdout_entries"`
	Transfer       bool    `json:"transfer"`
	IncumbentRank  float64 `json:"incumbent_rank"`
	CandidateRank  float64 `json:"candidate_rank"`
	Promoted       bool    `json:"promoted"`
	Reason         string  `json:"reason"`
	Version        int     `json:"version,omitempty"`
	Stamp          string  `json:"stamp,omitempty"`
	PromotedPath   string  `json:"promoted_path,omitempty"`
}

// Run executes one observe→retrain→gate→promote cycle. The returned Result
// is non-nil whenever the run reached the gates, including gate rejections;
// errors are reserved for operational failures (unreadable log or artifact,
// training errors).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if cfg.Verbose != nil {
			cfg.Verbose(fmt.Sprintf(format, args...))
		}
	}

	recs, err := obslog.ReadFile(cfg.LogPath)
	if err != nil {
		return nil, err
	}
	res := &Result{Records: len(recs), Transfer: cfg.Transfer}
	if len(recs) < cfg.MinRecords {
		return nil, fmt.Errorf("retrain: log %s holds %d records, need at least %d", cfg.LogPath, len(recs), cfg.MinRecords)
	}
	used := recs
	if cfg.Budget > 0 && cfg.Budget < len(recs) {
		used = recs[len(recs)-cfg.Budget:]
	}
	res.Used = len(used)

	entries, skipped := obslog.Entries(used)
	res.SkippedRecords = skipped
	train, holdout, err := obslog.SplitHoldout(entries, cfg.HoldoutFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res.TrainEntries, res.HoldoutEntries = len(train), len(holdout)
	logf("replayed %d/%d records into %d entries (%d train, %d holdout, %d skipped)",
		len(used), len(recs), len(entries), len(train), len(holdout), skipped)

	incumbent, err := core.LoadTunerFile(cfg.ArtifactPath)
	if err != nil {
		return nil, err
	}
	cand, err := incumbent.Model.Clone()
	if err != nil {
		return nil, err
	}

	tc := incumbent.Cfg.Train
	tc.Epochs = cfg.Epochs
	tc.LR = cfg.LR
	tc.Seed = cfg.Seed
	tc.Workers = cfg.Workers
	tc.HeadOnly = cfg.Transfer
	tc.Verbose = nil
	if cfg.Verbose != nil {
		tc.Verbose = func(line string) { logf("train: %s", line) }
	}
	if _, err := costmodel.TrainContext(ctx, cand, train, holdout, tc); err != nil {
		return nil, fmt.Errorf("retrain: fine-tune: %w", err)
	}

	// Promotion gate: both models scored on the same held-out slice —
	// data neither fine-tuned on — so measurement noise hits both equally.
	res.IncumbentRank, err = costmodel.RankQuality(incumbent.Model, holdout)
	if err != nil {
		return nil, fmt.Errorf("retrain: scoring incumbent: %w", err)
	}
	res.CandidateRank, err = costmodel.RankQuality(cand, holdout)
	if err != nil {
		return nil, fmt.Errorf("retrain: scoring candidate: %w", err)
	}
	logf("holdout rank quality: candidate %.4f vs incumbent %.4f (slack %.3f)",
		res.CandidateRank, res.IncumbentRank, cfg.GateSlack)
	if res.CandidateRank+cfg.GateSlack < res.IncumbentRank {
		res.Promoted = false
		res.Reason = fmt.Sprintf("gate rejected: candidate rank %.4f below incumbent %.4f - slack %.3f",
			res.CandidateRank, res.IncumbentRank, cfg.GateSlack)
		return res, nil
	}

	tuner, err := candidateTuner(ctx, incumbent, cand, cfg)
	if err != nil {
		return nil, err
	}

	res.Promoted = true
	res.Reason = "gate passed"
	if cfg.ModelDir == "" {
		res.Reason = "gate passed (dry run: no -modeldir, nothing promoted)"
		return res, nil
	}
	man, err := core.OpenManifest(cfg.ModelDir)
	if err != nil {
		return nil, err
	}
	mode := "full"
	if cfg.Transfer {
		mode = "transfer"
	}
	entry, err := man.Promote(tuner, fmt.Sprintf("%s retrain over %d records: rank %.4f vs %.4f",
		mode, len(used), res.CandidateRank, res.IncumbentRank))
	if err != nil {
		return nil, err
	}
	res.Version = entry.Version
	res.Stamp = entry.Stamp
	res.PromotedPath = man.VersionPath(entry.Version)
	logf("promoted model.v%d.waco (stamp %.16s)", entry.Version, entry.Stamp)
	return res, nil
}

// candidateTuner assembles the candidate's serving tuner. Transfer mode
// reuses the incumbent's graph and schedules: the embedder is frozen, so
// every stored embedding is still exactly what the candidate would compute.
// A full retrain moved the embedder and must re-embed and rebuild.
func candidateTuner(ctx context.Context, incumbent *core.Tuner, cand *costmodel.Model, cfg Config) (*core.Tuner, error) {
	t := &core.Tuner{
		Cfg:          incumbent.Cfg,
		Model:        cand,
		BuildSeconds: incumbent.BuildSeconds,
	}
	if cfg.Transfer {
		t.Index = &search.Index{Model: cand, Schedules: incumbent.Index.Schedules, Graph: incumbent.Index.Graph}
		return t, nil
	}
	ix, err := search.BuildIndexContext(ctx, cand, incumbent.Index.Schedules, incumbent.Cfg.HNSW,
		search.BuildOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("retrain: rebuilding index: %w", err)
	}
	t.Index = ix
	return t, nil
}
