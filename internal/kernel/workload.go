package kernel

import (
	"fmt"
	"sort"
	"time"

	"waco/internal/format"
	"waco/internal/schedule"
	"waco/internal/tensor"
)

// Workload bundles a sparse operand with deterministic dense operands and
// pre-allocated outputs for one algorithm, so many SuperSchedules can be
// measured against the same inputs.
type Workload struct {
	Alg    schedule.Algorithm
	COO    *tensor.COO
	DenseN int // inner dense dimension (N for SpMM, K for SDDMM, J for MTTKRP)

	// Metrics, when non-nil, records every Measure call (repeats, per-run
	// seconds, total kernel busy time). Attached by the serving path;
	// offline pipelines leave it nil.
	Metrics *Metrics

	bVec   []float32
	outVec []float32
	bMat   *tensor.Dense
	cMat   *tensor.Dense
	outMat *tensor.Dense
}

// NewWorkload prepares operands for the algorithm. denseN is ignored for
// SpMV. The dense operands are filled with a deterministic pattern.
func NewWorkload(alg schedule.Algorithm, coo *tensor.COO, denseN int) (*Workload, error) {
	if coo.Order() != alg.SparseOrder() {
		return nil, fmt.Errorf("kernel: order-%d tensor for %v", coo.Order(), alg)
	}
	wl := &Workload{Alg: alg, COO: coo, DenseN: denseN}
	rows, cols := coo.Dims[0], coo.Dims[1]
	// The dense operands are sized by the sparse operand's dims, which a
	// request chooses: refuse any past the assembly budget rather than
	// allocate it.
	n := denseN
	if alg == schedule.SpMV {
		n = 1
	}
	for _, r := range coo.Dims {
		if r < 0 || n < 0 || (n > 0 && int64(r) > format.DefaultMaxEntries/int64(n)) {
			return nil, fmt.Errorf("kernel: %d x %d dense operand exceeds %d entries", r, n, format.DefaultMaxEntries)
		}
	}
	switch alg {
	case schedule.SpMV:
		wl.bVec = make([]float32, cols)
		for i := range wl.bVec {
			h := uint32(i*2654435761) ^ 0x9e3779b9
			h ^= h >> 13
			wl.bVec[i] = float32(h%1024)/1024 - 0.5
		}
		wl.outVec = make([]float32, rows)
	case schedule.SpMM:
		wl.bMat = tensor.NewDense(cols, denseN)
		wl.bMat.FillIota()
		wl.outMat = tensor.NewDense(rows, denseN)
	case schedule.SDDMM:
		wl.bMat = tensor.NewDense(rows, denseN)
		wl.bMat.FillIota()
		wl.cMat = tensor.NewDense(cols, denseN) // C^T
		wl.cMat.FillIota()
	case schedule.MTTKRP:
		wl.bMat = tensor.NewDense(cols, denseN)
		wl.bMat.FillIota()
		wl.cMat = tensor.NewDense(coo.Dims[2], denseN)
		wl.cMat.FillIota()
		wl.outMat = tensor.NewDense(rows, denseN)
	}
	return wl, nil
}

// Compile assembles the sparse operand in the schedule's format and builds
// an executable. A schedule with a decomposition yields a PartitionedPlan
// (per-region storage and sub-plans); otherwise a single-format Plan.
// maxEntries bounds assembly (0 = format.DefaultMaxEntries); formats whose
// storage blows past it return format.ErrStorageLimit, which the dataset
// pipeline treats as "excluded configuration".
func (wl *Workload) Compile(ss *schedule.SuperSchedule, profile MachineProfile, maxEntries int64) (Executable, error) {
	if ss.Alg != wl.Alg {
		return nil, fmt.Errorf("kernel: %v schedule for %v workload", ss.Alg, wl.Alg)
	}
	if ss.Decomp != schedule.DecompNone {
		pp, err := CompilePartitioned(ss, wl.COO, profile, maxEntries)
		if err != nil {
			return nil, err
		}
		return pp, nil
	}
	st, err := format.Assemble(wl.COO, ss.AFormat, format.AssembleOptions{MaxEntries: maxEntries})
	if err != nil {
		return nil, err
	}
	p, err := Compile(ss, st, profile)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Run executes the plan once against the workload operands and returns the
// SDDMM output values slice when applicable (outputs for the other
// algorithms are retrievable via OutVec/OutMat).
func (wl *Workload) Run(p Executable) ([]float32, error) {
	switch wl.Alg {
	case schedule.SpMV:
		return nil, p.RunSpMV(wl.bVec, wl.outVec)
	case schedule.SpMM:
		return nil, p.RunSpMM(wl.bMat, wl.outMat)
	case schedule.SDDMM:
		out := make([]float32, p.StoredVals())
		return out, p.RunSDDMM(wl.bMat, wl.cMat, out)
	case schedule.MTTKRP:
		return nil, p.RunMTTKRP(wl.bMat, wl.cMat, wl.outMat)
	}
	return nil, fmt.Errorf("kernel: unknown algorithm %v", wl.Alg)
}

// OutVec returns the SpMV output buffer.
func (wl *Workload) OutVec() []float32 { return wl.outVec }

// OutMat returns the SpMM/MTTKRP output buffer.
func (wl *Workload) OutMat() *tensor.Dense { return wl.outMat }

// BVec returns the SpMV input vector.
func (wl *Workload) BVec() []float32 { return wl.bVec }

// BMat and CMat return the dense operands.
func (wl *Workload) BMat() *tensor.Dense { return wl.bMat }

// CMat returns the second dense operand (SDDMM: C transposed).
func (wl *Workload) CMat() *tensor.Dense { return wl.cMat }

// Measure runs the plan repeats times and returns the median wall-clock
// duration — the paper's ground-truth runtime protocol (§4.1.3 uses the
// median of 50 rounds; reduced-scale runs use fewer).
func (wl *Workload) Measure(p Executable, repeats int) (time.Duration, error) {
	if repeats < 1 {
		repeats = 1
	}
	times := make([]time.Duration, repeats)
	for r := range times {
		start := time.Now()
		if _, err := wl.Run(p); err != nil {
			return 0, err
		}
		times[r] = time.Since(start)
	}
	wl.Metrics.observeMeasure(repeats, times)
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	return times[len(times)/2], nil
}

// MeasureSchedule assembles, compiles, and measures in one step, returning
// the median kernel time and the assembled storage footprint. Assembly and
// compile time are excluded from the runtime (they are the format-conversion
// cost, accounted separately in the end-to-end experiments).
func (wl *Workload) MeasureSchedule(ss *schedule.SuperSchedule, profile MachineProfile, maxEntries int64, repeats int) (time.Duration, int64, error) {
	p, err := wl.Compile(ss, profile, maxEntries)
	if err != nil {
		return 0, 0, err
	}
	d, err := wl.Measure(p, repeats)
	if err != nil {
		return 0, 0, err
	}
	return d, p.StoredBytes(), nil
}
