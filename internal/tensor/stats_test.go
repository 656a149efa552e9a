package tensor

import (
	"math"
	"reflect"
	"testing"
)

func TestComputeStatsDiagonal(t *testing.T) {
	n := 16
	c := NewCOO([]int{n, n}, n)
	for i := 0; i < n; i++ {
		c.Append(1, int32(i), int32(i))
	}
	st := ComputeStats(c)
	if st.NNZ != n {
		t.Fatalf("NNZ = %d", st.NNZ)
	}
	if st.DiagFraction != 1 {
		t.Fatalf("DiagFraction = %g, want 1", st.DiagFraction)
	}
	if st.AvgBandwidth != 0 {
		t.Fatalf("AvgBandwidth = %g, want 0", st.AvgBandwidth)
	}
	if st.RowNNZMean != 1 || st.RowNNZStd != 0 {
		t.Fatalf("row stats mean=%g std=%g", st.RowNNZMean, st.RowNNZStd)
	}
	if st.SymmetryScore != 1 { // no off-diagonal entries => vacuously symmetric
		t.Fatalf("SymmetryScore = %g, want 1", st.SymmetryScore)
	}
	if math.Abs(st.Density-1.0/float64(n)) > 1e-12 {
		t.Fatalf("Density = %g", st.Density)
	}
}

func TestComputeStatsDenseBlock(t *testing.T) {
	// One fully dense 8x8 block: BlockFill8 must be 1, BlockFill2 must be 1.
	c := NewCOO([]int{32, 32}, 64)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			c.Append(1, int32(i), int32(j))
		}
	}
	st := ComputeStats(c)
	if st.BlockFill8 != 1 {
		t.Fatalf("BlockFill8 = %g, want 1", st.BlockFill8)
	}
	if st.BlockFill2 != 1 {
		t.Fatalf("BlockFill2 = %g, want 1", st.BlockFill2)
	}
}

func TestComputeStatsScattered(t *testing.T) {
	// Nonzeros spaced far apart: each lives in its own 8x8 block => fill 1/64.
	c := NewCOO([]int{64, 64}, 4)
	for i := 0; i < 4; i++ {
		c.Append(1, int32(i*16), int32(i*16))
	}
	st := ComputeStats(c)
	if math.Abs(st.BlockFill8-1.0/64) > 1e-12 {
		t.Fatalf("BlockFill8 = %g, want %g", st.BlockFill8, 1.0/64)
	}
}

func TestComputeStatsSkew(t *testing.T) {
	// One heavy row of 30 nonzeros, others empty: std should be large and
	// RowNNZMax = 30.
	c := NewCOO([]int{10, 40}, 30)
	for j := 0; j < 30; j++ {
		c.Append(1, 0, int32(j))
	}
	st := ComputeStats(c)
	if st.RowNNZMax != 30 {
		t.Fatalf("RowNNZMax = %d", st.RowNNZMax)
	}
	if st.EmptyRows != 9 {
		t.Fatalf("EmptyRows = %d", st.EmptyRows)
	}
	if st.RowNNZStd < 5 {
		t.Fatalf("RowNNZStd = %g, expected strongly skewed", st.RowNNZStd)
	}
}

func TestSymmetryScoreAsymmetric(t *testing.T) {
	c := NewCOO([]int{4, 4}, 2)
	c.Append(1, 0, 1)
	c.Append(1, 0, 2)
	st := ComputeStats(c)
	if st.SymmetryScore != 0 {
		t.Fatalf("SymmetryScore = %g, want 0", st.SymmetryScore)
	}
}

func TestFeatureVectorLength(t *testing.T) {
	c := NewCOO([]int{8, 8}, 1)
	c.Append(1, 0, 0)
	v := ComputeStats(c).FeatureVector()
	if len(v) != HumanFeatureDim {
		t.Fatalf("FeatureVector length %d, want %d", len(v), HumanFeatureDim)
	}
	for i, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			t.Fatalf("feature %d is %g", i, x)
		}
	}
}

func TestDenseHelpers(t *testing.T) {
	d := NewDense(3, 4)
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	if len(d.Row(1)) != 4 || d.Row(1)[2] != 5 {
		t.Fatal("Row slice wrong")
	}
	e := d.Clone()
	e.Set(0, 0, 9)
	if d.At(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
	if diff := d.MaxAbsDiff(e); diff != 9 {
		t.Fatalf("MaxAbsDiff = %g", diff)
	}
	d.FillIota()
	var nonzero bool
	for _, v := range d.Data {
		if v != 0 {
			nonzero = true
		}
		if v < -0.5 || v > 0.5 {
			t.Fatalf("FillIota value %g outside [-0.5,0.5]", v)
		}
	}
	if !nonzero {
		t.Fatal("FillIota left matrix zero")
	}
	d.Zero()
	for _, v := range d.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

// TestComputeStatsLeavesInput: an unsorted, duplicate-bearing input comes
// back untouched and measures the same as its canonical form.
func TestComputeStatsLeavesInput(t *testing.T) {
	c := NewCOO([]int{6, 5}, 6)
	for _, e := range [][2]int32{{4, 1}, {0, 3}, {4, 1}, {2, 2}, {0, 3}, {5, 0}} {
		c.Append(1, e[0], e[1])
	}
	before := c.Clone()
	st := ComputeStats(c)
	if !reflect.DeepEqual(c, before) {
		t.Fatalf("input changed: %+v, was %+v", c, before)
	}
	canon := before.Clone()
	canon.SortRowMajor()
	canon.Dedup()
	if want := ComputeStats(canon); st != want {
		t.Fatalf("stats %+v, canonical %+v", st, want)
	}
	if st.NNZ != 4 {
		t.Fatalf("NNZ = %d, want 4 distinct", st.NNZ)
	}
}
