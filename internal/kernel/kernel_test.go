package kernel

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"waco/internal/format"
	"waco/internal/generate"
	"waco/internal/metrics"
	"waco/internal/schedule"
	"waco/internal/tensor"
)

const testTol = 2e-3

func testMatrix(seed int64, rows, cols, nnz int) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	return generate.Uniform(rng, rows, cols, nnz)
}

func TestSpMVDefaultScheduleMatchesReference(t *testing.T) {
	coo := testMatrix(1, 80, 60, 500)
	wl, err := NewWorkload(schedule.SpMV, coo, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wl.Compile(schedule.DefaultSchedule(schedule.SpMV, 4), DefaultProfile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Run(p); err != nil {
		t.Fatal(err)
	}
	ref := RefSpMV(coo, wl.BVec())
	if d := tensor.VecMaxAbsDiff(wl.OutVec(), ref); d > testTol {
		t.Fatalf("SpMV differs from reference by %g", d)
	}
}

// The central correctness property: ANY sampled SuperSchedule computes the
// same result as the reference, across formats, loop orders, discordant
// traversals, blocked vector layouts, threads, and chunk sizes.
func TestSpMVRandomSchedulesMatchReference(t *testing.T) {
	coo := testMatrix(2, 70, 90, 600)
	wl, err := NewWorkload(schedule.SpMV, coo, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := RefSpMV(coo, wl.BVec())
	sp := spaceForTest(schedule.SpMV)
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		ss := sp.Sample(rng)
		p, err := wl.Compile(ss, DefaultProfile(), 1<<22)
		if errors.Is(err, format.ErrStorageLimit) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, ss, err)
		}
		if _, err := wl.Run(p); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, ss, err)
		}
		if d := tensor.VecMaxAbsDiff(wl.OutVec(), ref); d > testTol {
			t.Fatalf("trial %d differs by %g: %s", trial, d, ss)
		}
		checked++
	}
	if checked < 60 {
		t.Fatalf("only %d/120 schedules were checkable", checked)
	}
}

func TestSpMMRandomSchedulesMatchReference(t *testing.T) {
	coo := testMatrix(4, 60, 50, 400)
	wl, err := NewWorkload(schedule.SpMM, coo, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := RefSpMM(coo, wl.BMat())
	sp := spaceForTest(schedule.SpMM)
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 100; trial++ {
		ss := sp.Sample(rng)
		p, err := wl.Compile(ss, DefaultProfile(), 1<<22)
		if errors.Is(err, format.ErrStorageLimit) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, ss, err)
		}
		if _, err := wl.Run(p); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := wl.OutMat().MaxAbsDiff(ref); d > testTol {
			t.Fatalf("trial %d differs by %g: %s", trial, d, ss)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d/100 schedules were checkable", checked)
	}
}

func TestSDDMMRandomSchedulesMatchReference(t *testing.T) {
	coo := testMatrix(6, 50, 40, 300)
	wl, err := NewWorkload(schedule.SDDMM, coo, 12)
	if err != nil {
		t.Fatal(err)
	}
	ref := RefSDDMM(coo, wl.BMat(), wl.CMat())
	sp := spaceForTest(schedule.SDDMM)
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 100; trial++ {
		ss := sp.Sample(rng)
		p, err := wl.Compile(ss, DefaultProfile(), 1<<22)
		if errors.Is(err, format.ErrStorageLimit) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, ss, err)
		}
		out, err := wl.Run(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Check every original nonzero by locating its stored position.
		for q := 0; q < coo.NNZ(); q++ {
			ij := [2]int32{coo.Coords[0][q], coo.Coords[1][q]}
			pos, ok := p.LocateStored([]int32{ij[0], ij[1]})
			if !ok {
				t.Fatalf("trial %d: nonzero (%d,%d) missing from storage", trial, ij[0], ij[1])
			}
			d := out[pos] - ref[ij]
			if d < 0 {
				d = -d
			}
			if d > testTol {
				t.Fatalf("trial %d: D(%d,%d) = %g, want %g (%s)", trial, ij[0], ij[1], out[pos], ref[ij], ss)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d/100 schedules were checkable", checked)
	}
}

func TestMTTKRPRandomSchedulesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := generate.Uniform(rng, 40, 30, 250)
	coo := generate.Tensor3D(rng, base, 20, 2)
	wl, err := NewWorkload(schedule.MTTKRP, coo, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref := RefMTTKRP(coo, wl.BMat(), wl.CMat())
	sp := spaceForTest(schedule.MTTKRP)
	srng := rand.New(rand.NewSource(9))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		ss := sp.Sample(srng)
		p, err := wl.Compile(ss, DefaultProfile(), 1<<22)
		if errors.Is(err, format.ErrStorageLimit) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, ss, err)
		}
		if _, err := wl.Run(p); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := wl.OutMat().MaxAbsDiff(ref); d > testTol {
			t.Fatalf("trial %d differs by %g: %s", trial, d, ss)
		}
		checked++
	}
	if checked < 25 {
		t.Fatalf("only %d/60 schedules were checkable", checked)
	}
}

// spaceForTest shrinks split choices so random formats usually fit the
// assembly budget on small test matrices.
func spaceForTest(alg schedule.Algorithm) schedule.Space {
	sp := schedule.DefaultSpace(alg)
	sp.SplitChoices = []int32{1, 2, 4, 8, 16}
	sp.ThreadChoices = []int{1, 2, 4}
	return sp
}

func TestCompileRejectsMismatches(t *testing.T) {
	coo := testMatrix(10, 20, 20, 50)
	ssMM := schedule.DefaultSchedule(schedule.SpMM, 2)
	stored, err := format.Assemble(coo, ssMM.AFormat, format.AssembleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched format.
	other := ssMM.Clone()
	other.AFormat.Levels[1].Kind = format.Uncompressed
	if _, err := Compile(other, stored, DefaultProfile()); err == nil {
		t.Fatal("accepted format mismatch")
	}
	// Invalid schedule.
	bad := ssMM.Clone()
	bad.Chunk = 0
	if _, err := Compile(bad, stored, DefaultProfile()); err == nil {
		t.Fatal("accepted invalid schedule")
	}
}

func TestWorkloadRejectsMismatches(t *testing.T) {
	coo := testMatrix(11, 20, 20, 50)
	if _, err := NewWorkload(schedule.MTTKRP, coo, 8); err == nil {
		t.Fatal("accepted 2-D tensor for MTTKRP")
	}
	wl, err := NewWorkload(schedule.SpMM, coo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Compile(schedule.DefaultSchedule(schedule.SpMV, 2), DefaultProfile(), 0); err == nil {
		t.Fatal("accepted SpMV schedule on SpMM workload")
	}
}

func TestRunWrongAlgorithm(t *testing.T) {
	coo := testMatrix(12, 20, 20, 50)
	wl, _ := NewWorkload(schedule.SpMM, coo, 4)
	p, err := wl.Compile(schedule.DefaultSchedule(schedule.SpMM, 2), DefaultProfile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunSpMV(make([]float32, 20), make([]float32, 20)); err == nil {
		t.Fatal("RunSpMV accepted SpMM plan")
	}
	if err := p.RunSpMM(tensor.NewDense(5, 4), tensor.NewDense(20, 4)); err == nil {
		t.Fatal("accepted wrong operand shape")
	}
}

func TestMachineProfileCapsThreads(t *testing.T) {
	coo := testMatrix(13, 64, 64, 400)
	wl, _ := NewWorkload(schedule.SpMM, coo, 8)
	ss := schedule.DefaultSchedule(schedule.SpMM, 8)
	p, err := compileSingle(wl, ss, MachineProfile{Name: "tiny", ThreadCap: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.threads != 2 {
		t.Fatalf("threads = %d, want 2", p.threads)
	}
	// Capped execution is still correct.
	if _, err := wl.Run(p); err != nil {
		t.Fatal(err)
	}
	ref := RefSpMM(coo, wl.BMat())
	if d := wl.OutMat().MaxAbsDiff(ref); d > testTol {
		t.Fatalf("capped run differs by %g", d)
	}
}

func TestMeasureSchedule(t *testing.T) {
	coo := testMatrix(14, 128, 128, 1000)
	wl, _ := NewWorkload(schedule.SpMM, coo, 8)
	d, bytes, err := wl.MeasureSchedule(schedule.DefaultSchedule(schedule.SpMM, 2), DefaultProfile(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("measured duration %v", d)
	}
	if bytes <= 0 {
		t.Fatalf("storage bytes %d", bytes)
	}
	// Storage-limit exclusion propagates.
	dense := schedule.DefaultSchedule(schedule.SpMM, 2)
	for l := range dense.AFormat.Levels {
		dense.AFormat.Levels[l].Kind = format.Uncompressed
	}
	if _, _, err := wl.MeasureSchedule(dense, DefaultProfile(), 100, 1); !errors.Is(err, format.ErrStorageLimit) {
		t.Fatalf("expected storage limit, got %v", err)
	}
}

// TestMeasureRecordsMetrics checks the serving-side instrumentation: an
// attached kernel.Metrics sees every Measure call with exact repeat and run
// totals, and an unattached workload pays nothing (nil receiver no-op).
func TestMeasureRecordsMetrics(t *testing.T) {
	coo := testMatrix(15, 96, 96, 800)
	wl, err := NewWorkload(schedule.SpMM, coo, 8)
	if err != nil {
		t.Fatal(err)
	}
	wl.Metrics = NewMetrics(metrics.NewRegistry())
	p, err := wl.Compile(schedule.DefaultSchedule(schedule.SpMM, 2), DefaultProfile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Measure(p, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Measure(p, 5); err != nil {
		t.Fatal(err)
	}
	m := wl.Metrics
	if got := m.Measurements.Value(); got != 2 {
		t.Fatalf("measurements = %v, want 2", got)
	}
	if got := m.Runs.Value(); got != 8 {
		t.Fatalf("runs = %v, want 3+5", got)
	}
	if m.Repeats.Count() != 2 || m.Repeats.Sum() != 8 {
		t.Fatalf("repeats histogram count=%d sum=%v, want 2/8", m.Repeats.Count(), m.Repeats.Sum())
	}
	if m.RunSeconds.Count() != 8 || m.BusySeconds.Value() <= 0 {
		t.Fatalf("run seconds count=%d busy=%v", m.RunSeconds.Count(), m.BusySeconds.Value())
	}

	// Unattached workload: Measure still works.
	wl.Metrics = nil
	if _, err := wl.Measure(p, 1); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, chunk := range []int{1, 3, 16, 1000} {
			n := int64(257)
			hits := make([]int32, n)
			ParallelFor(n, chunk, workers, func(id int, lo, hi int64) {
				for i := lo; i < hi; i++ {
					hits[i]++ // disjoint ranges: no race
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d chunk=%d: index %d hit %d times", workers, chunk, i, h)
				}
			}
		}
	}
	// Empty and negative ranges are no-ops.
	ParallelFor(0, 4, 4, func(int, int64, int64) { t.Fatal("called on empty range") })
	ParallelFor(-5, 4, 4, func(int, int64, int64) { t.Fatal("called on negative range") })
}

func TestDeterministicAcrossThreadCounts(t *testing.T) {
	// The same schedule executed serially and in parallel produces identical
	// results (each output location is owned by one worker).
	coo := testMatrix(15, 96, 96, 800)
	wl, _ := NewWorkload(schedule.SpMM, coo, 8)
	serial := schedule.DefaultSchedule(schedule.SpMM, 1)
	pSerial, err := wl.Compile(serial, DefaultProfile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Run(pSerial); err != nil {
		t.Fatal(err)
	}
	want := wl.OutMat().Clone()
	par := schedule.DefaultSchedule(schedule.SpMM, 4)
	par.Chunk = 3
	pPar, err := wl.Compile(par, DefaultProfile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		if _, err := wl.Run(pPar); err != nil {
			t.Fatal(err)
		}
		if d := wl.OutMat().MaxAbsDiff(want); d != 0 {
			t.Fatalf("parallel result differs by %g on repeat %d", d, rep)
		}
	}
}

// TestNewWorkloadRefusesHugeDenseOperand: a COO-JSON body with one nonzero
// and dims [1, 1<<30] would need a 2^30-entry dense operand (times N for
// SpMM); NewWorkload must refuse it instead of allocating.
func TestNewWorkloadRefusesHugeDenseOperand(t *testing.T) {
	var body struct {
		Dims   []int     `json:"dims"`
		Coords [][]int32 `json:"coords"`
	}
	if err := json.Unmarshal([]byte(`{"dims":[1,1073741824],"coords":[[0],[5]]}`), &body); err != nil {
		t.Fatal(err)
	}
	coo := tensor.NewCOO(body.Dims, 1)
	coo.Append(1, body.Coords[0][0], body.Coords[1][0])
	for _, alg := range []schedule.Algorithm{schedule.SpMV, schedule.SpMM, schedule.SDDMM} {
		if _, err := NewWorkload(alg, coo, 256); err == nil {
			t.Errorf("%v: accepted a %v matrix", alg, coo.Dims)
		}
	}
	// A transposed shape trips the output operand instead.
	tall := tensor.NewCOO([]int{1 << 27, 1}, 1)
	tall.Append(1, 0, 0)
	if _, err := NewWorkload(schedule.SpMM, tall, 1); err == nil {
		t.Errorf("accepted a %v SpMM output", tall.Dims)
	}
	// An ordinary matrix still builds.
	if _, err := NewWorkload(schedule.SpMV, testMatrix(1, 64, 64, 100), 0); err != nil {
		t.Fatal(err)
	}
}
