// Package baselines implements the four comparison systems of the paper's
// evaluation (§5.1): Fixed CSR (TACO's default format and schedule), an
// Intel-MKL-style inspector–executor that auto-tunes the schedule on a fixed
// CSR format, BestFormat (a learned classifier choosing among a handful of
// candidate formats), and ASpT (adaptive sparse tiling). Each reports its
// tuned kernel time along with its tuning and format-conversion costs so the
// overhead experiments (Figure 17, Table 8) can account for them.
package baselines

import (
	"fmt"
	"time"

	"waco/internal/kernel"
	"waco/internal/schedule"
)

// Config controls baseline measurement.
type Config struct {
	Repeats    int   // runs per final measurement (median)
	MaxEntries int64 // assembly budget (0 = default)
}

// DefaultConfig uses 5 repetitions.
func DefaultConfig() Config { return Config{Repeats: 5} }

// Measurement is one candidate actually timed during tuning: the schedule
// and its probe runtime. Tuners that race several candidates expose every
// measurement, not just the winner — each one is a (pattern, schedule,
// runtime) training triple the online learning loop would otherwise lose.
type Measurement struct {
	Schedule *schedule.SuperSchedule
	Seconds  float64
	// Predicted is the cost-model score the tuner ranked this candidate by
	// (0 for tuners without a cost model).
	Predicted float64
}

// Tuned is the outcome of one baseline on one workload.
type Tuned struct {
	Method         string
	KernelSeconds  float64 // median tuned-kernel runtime
	TuningSeconds  float64 // inspector / classifier / search cost
	ConvertSeconds float64 // format conversion (assembly) cost
	Schedule       *schedule.SuperSchedule
	Info           string
	// Measured holds every candidate timed while tuning (empty for
	// baselines that only run their single fixed choice).
	Measured []Measurement
}

// Method is a tunable sparse-kernel implementation.
type Method interface {
	Name() string
	Supports(alg schedule.Algorithm) bool
	Tune(wl *kernel.Workload, profile kernel.MachineProfile, cfg Config) (*Tuned, error)
}

// FixedCSR is the paper's fixed-implementation baseline: CSR (CSF for
// MTTKRP) with TACO's default schedule — row-parallel, OpenMP chunk 128 for
// SpMV and 32 otherwise.
type FixedCSR struct{}

// Name implements Method.
func (FixedCSR) Name() string { return "FixedCSR" }

// Supports implements Method: all four algorithms.
func (FixedCSR) Supports(schedule.Algorithm) bool { return true }

// Tune implements Method. There is no tuning; conversion time is the CSR
// assembly.
func (FixedCSR) Tune(wl *kernel.Workload, profile kernel.MachineProfile, cfg Config) (*Tuned, error) {
	ss := schedule.DefaultSchedule(wl.Alg, profile.ThreadCap)
	t0 := time.Now()
	plan, err := wl.Compile(ss, profile, cfg.MaxEntries)
	if err != nil {
		return nil, fmt.Errorf("baselines: FixedCSR: %w", err)
	}
	convert := time.Since(t0)
	med, err := wl.Measure(plan, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	return &Tuned{
		Method:         "FixedCSR",
		KernelSeconds:  med.Seconds(),
		ConvertSeconds: convert.Seconds(),
		Schedule:       ss,
	}, nil
}

// MKLLike is the inspector–executor baseline: the format is pinned to CSR
// (the paper notes MKL "limits the tuning space by fixing the format"), and
// the inspector probes schedule-only variants — chunk sizes and worker
// counts — picking the fastest. Like MKL's sparse BLAS it covers only SpMV
// and SpMM.
type MKLLike struct {
	Chunks  []int
	Threads []int
}

// NewMKLLike returns the inspector with its default probe grid.
func NewMKLLike() *MKLLike {
	return &MKLLike{Chunks: []int{8, 32, 128, 256}, Threads: []int{0, -2}} // 0 = profile cap, -2 = cap/2
}

// Name implements Method.
func (*MKLLike) Name() string { return "MKL" }

// Supports implements Method.
func (*MKLLike) Supports(alg schedule.Algorithm) bool {
	return alg == schedule.SpMV || alg == schedule.SpMM
}

// Tune implements Method: the inspection cost (probing) is the tuning time;
// conversion is free because the input is assumed to arrive in CSR.
func (m *MKLLike) Tune(wl *kernel.Workload, profile kernel.MachineProfile, cfg Config) (*Tuned, error) {
	if !m.Supports(wl.Alg) {
		return nil, fmt.Errorf("baselines: MKL does not support %v", wl.Alg)
	}
	base := schedule.DefaultSchedule(wl.Alg, profile.ThreadCap)
	plan, err := wl.Compile(base, profile, cfg.MaxEntries)
	if err != nil {
		return nil, err
	}
	tuneStart := time.Now()
	best := base
	bestTime, err := wl.Measure(plan, 1)
	if err != nil {
		return nil, err
	}
	cap := profile.ThreadCap
	if cap <= 0 {
		cap = base.Threads
	}
	for _, th := range m.Threads {
		threads := cap
		if th == -2 {
			threads = cap / 2
		}
		if threads < 1 {
			threads = 1
		}
		for _, chunk := range m.Chunks {
			cand := base.Clone()
			cand.Threads = threads
			cand.Chunk = chunk
			p, err := kernelCompile(wl, cand, profile, cfg)
			if err != nil {
				return nil, err
			}
			d, err := wl.Measure(p, 1)
			if err != nil {
				return nil, err
			}
			if d < bestTime {
				bestTime, best = d, cand
			}
		}
	}
	tuning := time.Since(tuneStart)
	finalPlan, err := kernelCompile(wl, best, profile, cfg)
	if err != nil {
		return nil, err
	}
	med, err := wl.Measure(finalPlan, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	return &Tuned{
		Method:        "MKL",
		KernelSeconds: med.Seconds(),
		TuningSeconds: tuning.Seconds(),
		Schedule:      best,
		Info:          fmt.Sprintf("chunk=%d threads=%d", best.Chunk, best.Threads),
	}, nil
}

func kernelCompile(wl *kernel.Workload, ss *schedule.SuperSchedule, profile kernel.MachineProfile, cfg Config) (kernel.Executable, error) {
	return wl.Compile(ss, profile, cfg.MaxEntries)
}
