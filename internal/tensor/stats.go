package tensor

import "math"

// Stats summarizes a sparsity pattern. These are the "human-crafted features"
// of §3.2.1: cheap statistics that prior work fed to shallow models, used
// here both by the HumanFeature extractor baseline and by the BestFormat
// classifier.
type Stats struct {
	NumRows, NumCols int
	NNZ              int
	Density          float64
	RowNNZMean       float64 // mean nonzeros per row
	RowNNZStd        float64 // standard deviation of nonzeros per row
	RowNNZMax        int
	EmptyRows        int
	AvgBandwidth     float64 // mean |i-j| over nonzeros
	DiagFraction     float64 // fraction of nonzeros with |i-j| <= 1
	BlockFill2       float64 // mean fill of nonempty 2x2 blocks
	BlockFill8       float64 // mean fill of nonempty 8x8 blocks
	SymmetryScore    float64 // fraction of nonzeros whose transpose position is also nonzero
}

// ComputeStats computes pattern statistics for an order-2 COO. The input is
// only read: a COO that is not sorted row-major and duplicate-free is
// measured through a canonical copy.
func ComputeStats(c *COO) Stats {
	st := Stats{NumRows: c.Dims[0], NumCols: c.Dims[1]}
	if !c.canonical() {
		c = c.Clone()
		c.SortRowMajor()
		c.Dedup()
	}
	st.NNZ = c.NNZ()
	if st.NumRows == 0 || st.NumCols == 0 {
		return st
	}
	st.Density = float64(st.NNZ) / (float64(st.NumRows) * float64(st.NumCols))

	rowCount := make([]int, st.NumRows)
	var bandSum float64
	var diagCount int
	for p := 0; p < st.NNZ; p++ {
		i, j := c.Coords[0][p], c.Coords[1][p]
		rowCount[i]++
		d := int(i) - int(j)
		if d < 0 {
			d = -d
		}
		bandSum += float64(d)
		if d <= 1 {
			diagCount++
		}
	}
	var sum, sumSq float64
	for _, n := range rowCount {
		sum += float64(n)
		sumSq += float64(n) * float64(n)
		if n > st.RowNNZMax {
			st.RowNNZMax = n
		}
		if n == 0 {
			st.EmptyRows++
		}
	}
	mean := sum / float64(st.NumRows)
	st.RowNNZMean = mean
	st.RowNNZStd = math.Sqrt(maxf(0, sumSq/float64(st.NumRows)-mean*mean))
	if st.NNZ > 0 {
		st.AvgBandwidth = bandSum / float64(st.NNZ)
		st.DiagFraction = float64(diagCount) / float64(st.NNZ)
	}
	st.BlockFill2 = blockFill(c, 2)
	st.BlockFill8 = blockFill(c, 8)
	st.SymmetryScore = symmetryScore(c)
	return st
}

// blockFill returns the mean fill ratio of nonempty b x b blocks: NNZ divided
// by (number of touched blocks * b*b), the key statistic for deciding BCSR
// profitability.
func blockFill(c *COO, b int32) float64 {
	if c.NNZ() == 0 {
		return 0
	}
	blocks := make(map[int64]struct{}, c.NNZ()/int(b))
	cols64 := int64((int32(c.Dims[1]) + b - 1) / b)
	for p := 0; p < c.NNZ(); p++ {
		bi := int64(c.Coords[0][p] / b)
		bj := int64(c.Coords[1][p] / b)
		blocks[bi*cols64+bj] = struct{}{}
	}
	return float64(c.NNZ()) / (float64(len(blocks)) * float64(b) * float64(b))
}

// symmetryScore returns the fraction of off-diagonal nonzeros (i,j) for which
// (j,i) is also a stored nonzero. Square matrices only; 0 otherwise.
func symmetryScore(c *COO) float64 {
	if c.Dims[0] != c.Dims[1] || c.NNZ() == 0 {
		return 0
	}
	pos := make(map[int64]struct{}, c.NNZ())
	n := int64(c.Dims[1])
	for p := 0; p < c.NNZ(); p++ {
		pos[int64(c.Coords[0][p])*n+int64(c.Coords[1][p])] = struct{}{}
	}
	var offDiag, mirrored int
	for p := 0; p < c.NNZ(); p++ {
		i, j := c.Coords[0][p], c.Coords[1][p]
		if i == j {
			continue
		}
		offDiag++
		if _, ok := pos[int64(j)*n+int64(i)]; ok {
			mirrored++
		}
	}
	if offDiag == 0 {
		return 1
	}
	return float64(mirrored) / float64(offDiag)
}

// FeatureVector flattens the statistics into a fixed-length float32 vector
// for consumption by shallow learned models. Counts are log-scaled so the
// magnitudes stay comparable across matrix sizes.
func (s Stats) FeatureVector() []float32 {
	logf := func(x float64) float32 { return float32(math.Log1p(x)) }
	return []float32{
		logf(float64(s.NumRows)),
		logf(float64(s.NumCols)),
		logf(float64(s.NNZ)),
		float32(s.Density),
		logf(s.RowNNZMean),
		logf(s.RowNNZStd),
		logf(float64(s.RowNNZMax)),
		float32(float64(s.EmptyRows) / math.Max(1, float64(s.NumRows))),
		logf(s.AvgBandwidth),
		float32(s.DiagFraction),
		float32(s.BlockFill2),
		float32(s.BlockFill8),
		float32(s.SymmetryScore),
	}
}

// HumanFeatureDim is the length of Stats.FeatureVector.
const HumanFeatureDim = 13

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
