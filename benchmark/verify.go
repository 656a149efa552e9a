package main

import (
	"fmt"
	"time"

	"waco/internal/kernel"
	"waco/internal/schedule"
	"waco/internal/tensor"
)

// tolerance is difftest.Tol: float32 reassociation stays below it, a dropped
// or doubled nonzero does not.
const tolerance = 2e-3

// The winner and the CSR default are each run at least kernelRuns times and
// until the pair has run for kernelTime, so that a microsecond SpMV kernel
// gets as steady a median as a millisecond SpMM one; in alternation, so that
// drift in the host's speed falls on both alike.
const (
	kernelRuns = 15
	kernelTime = 10 * time.Millisecond
)

// verdict is what re-running one cold tune's winner showed.
type verdict struct {
	TunedS float64 // median run of the winning schedule
	CSRS   float64 // median run of schedule.DefaultSchedule(alg, benchThreads)
	Bytes  int64   // winner's stored footprint
	Wrong  string  // non-empty: the winner's output differs from the reference
}

// verifier re-measures winners against the CSR default and checks their
// output, outside any timed region.
type verifier struct {
	ft  *fixedTuner
	alg schedule.Algorithm
}

// check compiles the schedule a tune returned, runs it once against the
// dense reference, and times it against the CSR default. The times are the
// benchmark's own, not the KernelSeconds the tuner reported.
func (v verifier) check(in *input, scheduleString string) (verdict, error) {
	ss := v.ft.ByString[scheduleString]
	if ss == nil {
		return verdict{Wrong: "returned schedule is not one the index holds"}, nil
	}
	cfg := v.ft.Tuner.Cfg.Collect
	wl, err := kernel.NewWorkload(v.alg, in.COO, cfg.DenseN)
	if err != nil {
		return verdict{}, err
	}
	tuned, err := wl.Compile(ss, cfg.Profile, cfg.MaxEntries)
	if err != nil {
		return verdict{}, fmt.Errorf("compiling the winner: %w", err)
	}
	csr, err := wl.Compile(schedule.DefaultSchedule(v.alg, benchThreads), cfg.Profile, cfg.MaxEntries)
	if err != nil {
		return verdict{}, fmt.Errorf("compiling the CSR default: %w", err)
	}

	out := verdict{Bytes: tuned.StoredBytes()}
	if _, err := wl.Run(tuned); err != nil {
		return verdict{}, err
	}
	if diff := refDiff(wl); diff > tolerance {
		out.Wrong = fmt.Sprintf("output differs from the reference by %g", diff)
	}

	var tunedRuns, csrRuns samples
	for r, start := 0, time.Now(); r < kernelRuns || time.Since(start) < kernelTime; r++ {
		for _, side := range []struct {
			plan kernel.Executable
			into *samples
		}{{tuned, &tunedRuns}, {csr, &csrRuns}} {
			t0 := time.Now()
			if _, err := wl.Run(side.plan); err != nil {
				return verdict{}, err
			}
			side.into.add(time.Since(t0).Seconds())
		}
	}
	out.TunedS, out.CSRS = tunedRuns.median(), csrRuns.median()
	return out, nil
}

// refDiff is the largest absolute difference between the workload's output
// buffer and the schedule-free reference kernel.
func refDiff(wl *kernel.Workload) float32 {
	if wl.Alg == schedule.SpMV {
		return tensor.VecMaxAbsDiff(wl.OutVec(), kernel.RefSpMV(wl.COO, wl.BVec()))
	}
	return wl.OutMat().MaxAbsDiff(kernel.RefSpMM(wl.COO, wl.BMat()))
}
