// Package sparseconv implements submanifold and strided sparse convolution
// (Graham & van der Maaten; Choy et al.) for 2-D and 3-D sparsity patterns,
// plus the WACONet feature extractor architecture from the WACO paper
// (Figure 9): a 5x5 stride-1 submanifold layer followed by a stack of 3x3
// stride-2 convolutions with small channel counts, global average pooling
// after every strided layer, and concatenation of all intermediate pooled
// results.
//
// A sparse convolution computes outputs only at active (nonzero) sites, so
// the cost scales with the number of nonzeros rather than the tensor's
// shape — the property that lets WACO consume the raw sparsity pattern with
// no downsampling.
package sparseconv

import (
	"fmt"
	"math"
	"math/bits"

	"waco/internal/tensor"
)

// SparseMap is a sparse feature map: a set of active coordinate sites each
// carrying a C-channel feature vector. F and D (gradients) are site-major:
// site s's features occupy F[s*C : (s+1)*C]. Maps over the same site set
// share one geometry (sorted site keys plus cached conv rulebooks), so
// clones, activations and stride-1 outputs never rebuild it.
type SparseMap struct {
	Dim     int
	Extents []int32
	C       int
	Coords  []int32 // flat, len n*Dim
	F       []float32
	D       []float32

	geo *geometry
}

// geometry is what every map over one coordinate set shares: the sites in
// ascending key order and, per (kernel, stride), the conv output site set
// and rulebook derived from them. All of it depends only on coordinates,
// never on features, so it is built once per coordinate set and reused by
// every training pass, every clone and every inference. Conv geometry is
// populated lazily; like a Pattern's caches this makes the maps over one
// coordinate set single-goroutine.
type geometry struct {
	dim     int
	extents []int32
	place   [3]int64 // mixed-radix place value of each dimension
	coords  []int32  // flat, len n*dim, in site order
	keys    []int64  // site keys, ascending
	order   []int32  // order[i] is the site whose key is keys[i]; nil means site i
	convs   []*convGeom
}

// NumSites returns the number of active sites.
func (m *SparseMap) NumSites() int { return len(m.Coords) / max(1, m.Dim) }

// places returns the mixed-radix place values of extents. A site's key is
// sum coord[d]*place[d], which orders sites row-major (lexicographically)
// and, for in-bounds coordinates, is a bijection onto [0, prod(extents)).
func places(extents []int32) [3]int64 {
	var p [3]int64
	v := int64(1)
	for d := len(extents) - 1; d >= 0; d-- {
		p[d] = v
		v *= int64(extents[d])
	}
	return p
}

// keySpan returns the largest key a site inside extents can have.
func keySpan(extents []int32) int64 {
	v := int64(1)
	for _, e := range extents {
		v *= int64(max(1, int(e)))
	}
	return v - 1
}

func (g *geometry) numSites() int { return len(g.coords) / max(1, g.dim) }

// site returns the site id at sorted position i.
func (g *geometry) site(i int) int32 {
	if g.order == nil {
		return int32(i)
	}
	return g.order[i]
}

// geometry returns the map's shared geometry, deriving it from Coords for a
// map that was built by hand rather than by this package.
func (m *SparseMap) geometry() *geometry {
	if m.geo == nil {
		g := &geometry{dim: m.Dim, extents: m.Extents, place: places(m.Extents), coords: m.Coords}
		g.keys = make([]int64, m.NumSites())
		for s := range g.keys {
			g.keys[s] = g.key(m.Coords[s*m.Dim : (s+1)*m.Dim])
		}
		g.order = sortKeys(g.keys, keySpan(m.Extents))
		m.geo = g
	}
	return m.geo
}

func (g *geometry) key(coord []int32) int64 {
	var k int64
	for d, c := range coord {
		k += int64(c) * g.place[d]
	}
	return k
}

// mapOf returns a fresh map over g's sites with c channels and no features.
func mapOf(g *geometry, c int) *SparseMap {
	return &SparseMap{Dim: g.dim, Extents: g.extents, C: c, Coords: g.coords, geo: g}
}

// Site returns the coordinates of site s (a view into internal storage).
func (m *SparseMap) Site(s int32) []int32 {
	return m.Coords[int(s)*m.Dim : int(s)*m.Dim+m.Dim]
}

// EnsureGrad allocates the gradient buffer for training.
func (m *SparseMap) EnsureGrad() {
	if m.D == nil {
		m.D = make([]float32, len(m.F))
	}
}

// ShallowClone returns a copy sharing coordinates and geometry but with
// fresh feature and gradient buffers, so one immutable conversion can serve
// many training passes without rebuilding a rulebook.
func (m *SparseMap) ShallowClone() *SparseMap {
	out := mapOf(m.geometry(), m.C)
	out.F = append([]float32(nil), m.F...)
	return out
}

// FromCOO builds a single-channel sparse map from a sparsity pattern; every
// stored coordinate becomes an active site with feature 1 (the pattern, not
// the values, is what WACONet consumes). Duplicate coordinates collapse to
// one site; sites are numbered in order of first appearance.
func FromCOO(c *tensor.COO) (*SparseMap, error) {
	if c.Order() < 2 || c.Order() > 3 {
		return nil, fmt.Errorf("sparseconv: order-%d tensor unsupported", c.Order())
	}
	for _, d := range c.Dims {
		if d >= 1<<21 {
			return nil, fmt.Errorf("sparseconv: extent %d exceeds coordinate packing range", d)
		}
	}
	ext := make([]int32, c.Order())
	for m, d := range c.Dims {
		ext[m] = int32(d)
	}
	g := &geometry{dim: c.Order(), extents: ext, place: places(ext)}
	keys := make([]int64, c.NNZ())
	for m, col := range c.Coords {
		pm := g.place[m]
		for p, x := range col {
			keys[p] += int64(x) * pm
		}
	}
	_, g.keys, g.order = firstAppearance(keys, keySpan(ext))
	g.coords = decode(g, g.keys, g.order)
	sm := mapOf(g, 1)
	sm.F = make([]float32, g.numSites())
	for i := range sm.F {
		sm.F[i] = 1
	}
	return sm, nil
}

// Downsample pools a pattern onto a gridSize^order dense grid, each cell
// holding log1p of the nonzero count — the downsampled-CNN input of prior
// work (§3.2.1, DenseConv). Every grid cell is an active site, in row-major
// order, so a conventional dense CNN is expressible with the same conv
// layers.
func Downsample(c *tensor.COO, gridSize int) *SparseMap {
	order := c.Order()
	ext := make([]int32, order)
	for m := range ext {
		ext[m] = int32(gridSize)
	}
	g := &geometry{dim: order, extents: ext, place: places(ext)}
	cells := pow(gridSize, order)
	counts := make([]float32, cells)
	for p := 0; p < c.NNZ(); p++ {
		var cell int64
		for m := 0; m < order; m++ {
			x := int64(c.Coords[m][p]) * int64(gridSize) / int64(c.Dims[m])
			if x >= int64(gridSize) {
				x = int64(gridSize) - 1
			}
			cell += x * g.place[m]
		}
		counts[cell]++
	}
	g.keys = make([]int64, cells)
	for i := range g.keys {
		g.keys[i] = int64(i)
	}
	g.coords = decode(g, g.keys, nil)
	sm := mapOf(g, 1)
	sm.F = counts
	for i, n := range counts {
		sm.F[i] = log1p32(n)
	}
	return sm
}

// decode returns the flat site coordinates of g's sites given their keys in
// ascending order and the matching site ids (nil: site i has keys[i]).
func decode(g *geometry, keys []int64, order []int32) []int32 {
	coords := make([]int32, len(keys)*g.dim)
	for i, k := range keys {
		s := i
		if order != nil {
			s = int(order[i])
		}
		site := coords[s*g.dim : (s+1)*g.dim]
		for d := range site {
			site[d] = int32(k / g.place[d])
			k %= g.place[d]
		}
	}
	return coords
}

// firstAppearance numbers the distinct values of keys (all in [0, span]) in
// order of first appearance. It returns each key's id, the distinct keys in
// ascending order and the id of each (nil when ids ascend with the keys).
// keys is left sorted.
func firstAppearance(keys []int64, span int64) (ids []int32, distinct []int64, order []int32) {
	n := len(keys)
	perm := sortKeys(keys, span)
	from := func(i int) int32 { // original index of the i-th smallest key
		if perm == nil {
			return int32(i)
		}
		return perm[i]
	}
	// The sort is stable, so each run of equal keys starts at its earliest
	// appearance: point every member at that representative, then number
	// representatives in appearance order. A member's representative comes
	// before it, so its id is already final when the member is reached.
	ids = make([]int32, n)
	var rep int32
	groups := 0
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			rep = from(i)
			groups++
		}
		ids[from(i)] = rep
	}
	next := int32(0)
	for c, r := range ids {
		if r == int32(c) {
			ids[c] = next
			next++
		} else {
			ids[c] = ids[r]
		}
	}
	distinct = keys
	if groups < n {
		distinct = make([]int64, 0, groups)
	}
	identity := true
	g := int32(0)
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			if groups < n {
				distinct = append(distinct, k)
			}
			identity = identity && ids[from(i)] == g
			g++
		}
	}
	if !identity {
		order = make([]int32, 0, groups)
		for i, k := range keys {
			if i == 0 || k != keys[i-1] {
				order = append(order, ids[from(i)])
			}
		}
	}
	return ids, distinct, order
}

// sortKeys stably sorts keys (all in [0, span]) ascending with an LSD radix
// sort and returns the permutation it applied: perm[i] is the original index
// of the i-th smallest key. It returns nil, moving nothing, when keys are
// already in order.
func sortKeys(keys []int64, span int64) []int32 {
	n := len(keys)
	sorted := true
	for i := 1; i < n; i++ {
		if keys[i] < keys[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return nil
	}
	const maxDigit = 11
	width := bits.Len64(uint64(span))
	passes := (width + maxDigit - 1) / maxDigit
	digit := (width + passes - 1) / passes
	mask := int64(1)<<digit - 1

	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	src, dst := keys, make([]int64, n)
	srcP, dstP := perm, make([]int32, n)
	var count [1 << maxDigit]int32
	for shift := 0; shift < width; shift += digit {
		buckets := count[:mask+1]
		clear(buckets)
		for _, k := range src {
			buckets[k>>shift&mask]++
		}
		if buckets[src[0]>>shift&mask] == int32(n) {
			continue // every key has this digit: the pass would not move anything
		}
		var sum int32
		for d, c := range buckets {
			buckets[d] = sum
			sum += c
		}
		for i, k := range src {
			d := k >> shift & mask
			at := buckets[d]
			buckets[d]++
			dst[at] = k
			dstP[at] = srcP[i]
		}
		src, dst = dst, src
		srcP, dstP = dstP, srcP
	}
	copy(keys, src)
	return srcP
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

func log1p32(x float32) float32 {
	return float32(math.Log1p(float64(x)))
}
