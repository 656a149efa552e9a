// Package tensor provides the sparse and dense tensor substrate used by the
// WACO reproduction: coordinate (COO) tensors of arbitrary order, compressed
// sparse row/column matrices, dense matrices and vectors, Matrix Market I/O,
// and sparsity-pattern statistics.
//
// Values are single precision (float32) throughout, matching the paper's
// evaluation setup.
package tensor

import (
	"errors"
	"fmt"
	"sort"
)

// COO is a sparse tensor of arbitrary order in coordinate form.
//
// Coords is mode-major: Coords[m][p] is the coordinate of nonzero p along
// mode m. All coordinate slices and Vals have equal length. A COO is not
// required to be sorted or duplicate-free; use SortByModes and Dedup to
// canonicalize.
type COO struct {
	Dims   []int     // extent of each mode
	Coords [][]int32 // Coords[mode][nnz]
	Vals   []float32 // values, parallel to Coords[*]
}

// NewCOO returns an empty COO tensor with the given mode extents and capacity
// hint for the number of nonzeros.
func NewCOO(dims []int, nnzCap int) *COO {
	c := &COO{Dims: append([]int(nil), dims...)}
	c.Coords = make([][]int32, len(dims))
	for m := range c.Coords {
		c.Coords[m] = make([]int32, 0, nnzCap)
	}
	c.Vals = make([]float32, 0, nnzCap)
	return c
}

// Order returns the number of modes (2 for a matrix, 3 for a 3-D tensor).
func (c *COO) Order() int { return len(c.Dims) }

// NNZ returns the number of stored entries (including any duplicates).
func (c *COO) NNZ() int { return len(c.Vals) }

// Append adds one nonzero. The number of coordinates must equal the order.
//
//waco:nolint paniccall -- Append runs per nonzero on the ingest hot path; the arity of the coords the caller passes is fixed by its own code, not by request data, and serve validates decoded tensors before appending
func (c *COO) Append(val float32, coords ...int32) {
	if len(coords) != len(c.Dims) {
		panic(fmt.Sprintf("tensor: Append got %d coords for order-%d tensor", len(coords), len(c.Dims)))
	}
	for m, x := range coords {
		c.Coords[m] = append(c.Coords[m], x)
	}
	c.Vals = append(c.Vals, val)
}

// At returns the coordinates of nonzero p as a freshly allocated slice.
func (c *COO) At(p int) []int32 {
	out := make([]int32, c.Order())
	for m := range out {
		out[m] = c.Coords[m][p]
	}
	return out
}

// Validate checks structural invariants: consistent slice lengths and
// in-range coordinates. It returns a descriptive error for the first
// violation found.
func (c *COO) Validate() error {
	if len(c.Coords) != len(c.Dims) {
		return fmt.Errorf("tensor: %d coordinate modes for %d dims", len(c.Coords), len(c.Dims))
	}
	for m, cs := range c.Coords {
		if len(cs) != len(c.Vals) {
			return fmt.Errorf("tensor: mode %d has %d coords, want %d", m, len(cs), len(c.Vals))
		}
		d := c.Dims[m]
		for p, x := range cs {
			if x < 0 || int(x) >= d {
				return fmt.Errorf("tensor: nnz %d coord %d out of range [0,%d) in mode %d", p, x, d, m)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (c *COO) Clone() *COO {
	out := &COO{
		Dims:   append([]int(nil), c.Dims...),
		Coords: make([][]int32, len(c.Coords)),
		Vals:   append([]float32(nil), c.Vals...),
	}
	for m := range c.Coords {
		out.Coords[m] = append([]int32(nil), c.Coords[m]...)
	}
	return out
}

// cooSorter sorts a COO lexicographically by the given mode order.
type cooSorter struct {
	c     *COO
	order []int
}

func (s *cooSorter) Len() int { return s.c.NNZ() }

func (s *cooSorter) Less(i, j int) bool {
	for _, m := range s.order {
		a, b := s.c.Coords[m][i], s.c.Coords[m][j]
		if a != b {
			return a < b
		}
	}
	return false
}

func (s *cooSorter) Swap(i, j int) {
	for m := range s.c.Coords {
		cs := s.c.Coords[m]
		cs[i], cs[j] = cs[j], cs[i]
	}
	v := s.c.Vals
	v[i], v[j] = v[j], v[i]
}

// SortByModes sorts nonzeros lexicographically by the given mode order,
// e.g. SortByModes(0, 1) is row-major for a matrix and SortByModes(1, 0) is
// column-major. Modes omitted from the order do not participate in the key.
func (c *COO) SortByModes(order ...int) {
	sort.Stable(&cooSorter{c: c, order: order})
}

// SortRowMajor sorts nonzeros by (mode0, mode1, ..., modeN-1).
func (c *COO) SortRowMajor() {
	order := make([]int, c.Order())
	for i := range order {
		order[i] = i
	}
	c.SortByModes(order...)
}

// Dedup merges duplicate coordinates by summing their values. The tensor must
// already be sorted (by any total order that makes duplicates adjacent);
// SortRowMajor suffices. It operates in place.
func (c *COO) Dedup() {
	if c.NNZ() == 0 {
		return
	}
	w := 0
	for p := 1; p < c.NNZ(); p++ {
		same := true
		for m := range c.Coords {
			if c.Coords[m][p] != c.Coords[m][w] {
				same = false
				break
			}
		}
		if same {
			c.Vals[w] += c.Vals[p]
		} else {
			w++
			for m := range c.Coords {
				c.Coords[m][w] = c.Coords[m][p]
			}
			c.Vals[w] = c.Vals[p]
		}
	}
	w++
	for m := range c.Coords {
		c.Coords[m] = c.Coords[m][:w]
	}
	c.Vals = c.Vals[:w]
}

// canonical reports whether the entries are sorted row-major with no
// duplicate coordinates, the state SortRowMajor and Dedup leave.
func (c *COO) canonical() bool {
	rowMajor := &cooSorter{c: c, order: make([]int, c.Order())}
	for m := range rowMajor.order {
		rowMajor.order[m] = m
	}
	for p := 1; p < c.NNZ(); p++ {
		if !rowMajor.Less(p-1, p) {
			return false
		}
	}
	return true
}

// ErrOrderMismatch reports an operation applied to a tensor of the wrong order.
var ErrOrderMismatch = errors.New("tensor: order mismatch")

// ToCSR converts an order-2 COO to CSR. The receiver is sorted and
// deduplicated as a side effect.
func (c *COO) ToCSR() (*CSR, error) {
	if c.Order() != 2 {
		return nil, fmt.Errorf("%w: ToCSR on order-%d tensor", ErrOrderMismatch, c.Order())
	}
	c.SortRowMajor()
	c.Dedup()
	out := &CSR{
		NumRows: c.Dims[0],
		NumCols: c.Dims[1],
		RowPtr:  make([]int32, c.Dims[0]+1),
		ColIdx:  append([]int32(nil), c.Coords[1]...),
		Vals:    append([]float32(nil), c.Vals...),
	}
	for _, r := range c.Coords[0] {
		out.RowPtr[r+1]++
	}
	for r := 0; r < c.Dims[0]; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out, nil
}

// Permuted returns a new COO whose mode m holds the coordinates of the
// receiver's mode perm[m]; dims are permuted accordingly. It shares no
// storage with the receiver.
func (c *COO) Permuted(perm []int) (*COO, error) {
	if len(perm) != c.Order() {
		return nil, fmt.Errorf("%w: permutation of length %d for order-%d tensor", ErrOrderMismatch, len(perm), c.Order())
	}
	out := &COO{
		Dims:   make([]int, c.Order()),
		Coords: make([][]int32, c.Order()),
		Vals:   append([]float32(nil), c.Vals...),
	}
	seen := make([]bool, c.Order())
	for m, src := range perm {
		if src < 0 || src >= c.Order() || seen[src] {
			return nil, fmt.Errorf("tensor: invalid permutation %v", perm)
		}
		seen[src] = true
		out.Dims[m] = c.Dims[src]
		out.Coords[m] = append([]int32(nil), c.Coords[src]...)
	}
	return out, nil
}
