package sparseconv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"waco/internal/tensor"
)

// The hashed builders the sorted-merge ones replaced, kept verbatim (but for
// the refMap receiver) as the oracle: output sites, their numbering and
// every rulebook pair must match them exactly, because the conv arithmetic
// accumulates in rulebook order.

// refMap is a SparseMap plus the hashed site index the old builders used.
type refMap struct {
	*SparseMap
	index map[uint64]int32
}

// key packs a coordinate tuple into a uint64 (21 bits per dim, supporting
// extents up to 2^21 — beyond the paper's 131,072-row limit).
func key(coord []int32) uint64 {
	var k uint64
	for _, c := range coord {
		k = k<<21 | uint64(uint32(c))&0x1FFFFF
	}
	return k
}

// newSparseMap allocates an empty map.
func newSparseMap(dim int, extents []int32, channels, capacity int) *refMap {
	return &refMap{
		SparseMap: &SparseMap{
			Dim:     dim,
			Extents: append([]int32(nil), extents...),
			C:       channels,
			Coords:  make([]int32, 0, capacity*dim),
		},
		index: make(map[uint64]int32, capacity),
	}
}

// addSite registers a coordinate (must be new) and returns its site index.
func (m *refMap) addSite(coord []int32) int32 {
	s := int32(m.NumSites())
	m.Coords = append(m.Coords, coord...)
	m.index[key(coord)] = s
	return s
}

// Lookup returns the site index at coord, or -1.
func (m *refMap) Lookup(coord []int32) int32 {
	if s, ok := m.index[key(coord)]; ok {
		return s
	}
	return -1
}

// Lookup returns the site index at coord, or -1 (a linear scan: tests only).
func (m *SparseMap) Lookup(coord []int32) int32 {
	for s := int32(0); s < int32(m.NumSites()); s++ {
		if slices.Equal(m.Site(s), coord) {
			return s
		}
	}
	return -1
}

// refFromCOO is the hashed FromCOO.
func refFromCOO(c *tensor.COO) (*refMap, error) {
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
	sm := newSparseMap(c.Order(), ext, 1, c.NNZ())
	coord := make([]int32, c.Order())
	for p := 0; p < c.NNZ(); p++ {
		for m := 0; m < c.Order(); m++ {
			coord[m] = c.Coords[m][p]
		}
		if sm.Lookup(coord) < 0 {
			sm.addSite(coord)
		}
	}
	sm.F = make([]float32, sm.NumSites())
	for i := range sm.F {
		sm.F[i] = 1
	}
	return sm, nil
}

// refBuildSubmanifold: output sites = input sites; rulebook[off] pairs each
// output site with the input neighbor at coordinate(site)+offset, when
// active.
func refBuildSubmanifold(c *Conv, in *refMap) (*refMap, [][]pair) {
	out := newSparseMap(in.Dim, in.Extents, c.Cout, in.NumSites())
	n := in.NumSites()
	for s := int32(0); s < int32(n); s++ {
		out.addSite(in.Site(s))
	}
	rulebook := make([][]pair, len(c.offsets))
	nb := make([]int32, in.Dim)
	for off, ov := range c.offsets {
		var pairs []pair
		for s := int32(0); s < int32(n); s++ {
			site := in.Site(s)
			ok := true
			for d := 0; d < in.Dim; d++ {
				nb[d] = site[d] + ov[d]
				if nb[d] < 0 || nb[d] >= in.Extents[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if j := in.Lookup(nb); j >= 0 {
				pairs = append(pairs, pair{in: j, out: s})
			}
		}
		rulebook[off] = pairs
	}
	return out, rulebook
}

// refBuildStrided: out[o] = sum_delta W[delta] * in[stride*o + delta]; output
// sites are every o receiving at least one contribution.
func refBuildStrided(c *Conv, in *refMap) (*refMap, [][]pair) {
	stride := int32(c.Stride)
	outExt := make([]int32, in.Dim)
	for d, e := range in.Extents {
		outExt[d] = (e + stride - 1) / stride
		if outExt[d] < 1 {
			outExt[d] = 1
		}
	}
	out := newSparseMap(in.Dim, outExt, c.Cout, in.NumSites()/2+1)
	rulebook := make([][]pair, len(c.offsets))
	oc := make([]int32, in.Dim)
	for off, ov := range c.offsets {
		var pairs []pair
		for s := int32(0); s < int32(in.NumSites()); s++ {
			site := in.Site(s)
			ok := true
			for d := 0; d < in.Dim; d++ {
				t := site[d] - ov[d]
				if t < 0 || t%stride != 0 {
					ok = false
					break
				}
				oc[d] = t / stride
				if oc[d] >= outExt[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			j := out.Lookup(oc)
			if j < 0 {
				j = out.addSite(oc)
			}
			pairs = append(pairs, pair{in: s, out: j})
		}
		rulebook[off] = pairs
	}
	return out, rulebook
}

// layerSpec is one (kernel, stride) conv shape.
type layerSpec struct{ kernel, stride int }

// checkAgainstReference converts c with both FromCOOs and then walks a stack
// of layers, at every level comparing output extents, sites and rulebooks
// pair for pair. Each stride-1 layer is checked on the level it reads; the
// strided layers feed the next level.
func checkAgainstReference(t testing.TB, c *tensor.COO, layers []layerSpec) {
	t.Helper()
	want, errW := refFromCOO(c)
	got, errG := FromCOO(c)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("FromCOO error %v, reference %v", errG, errW)
	}
	if errW != nil {
		return
	}
	if !slices.Equal(got.Coords, want.Coords) || !slices.Equal(got.Extents, want.Extents) {
		t.Fatalf("FromCOO sites %v, reference %v", got.Coords, want.Coords)
	}
	if !slices.Equal(got.F, want.F) {
		t.Fatal("FromCOO features differ from reference")
	}
	rng := rand.New(rand.NewSource(1))
	for li, l := range layers {
		conv := NewConv("ref", c.Order(), 1, 1, l.kernel, l.stride, rng)
		g := conv.geom(got)
		var wantOut *refMap
		var wantRB [][]pair
		if l.stride == 1 {
			wantOut, wantRB = refBuildSubmanifold(conv, want)
		} else {
			wantOut, wantRB = refBuildStrided(conv, want)
		}
		if !slices.Equal(g.out.coords, wantOut.Coords) || !slices.Equal(g.out.extents, wantOut.Extents) {
			t.Fatalf("layer %d (%dx%d/%d): sites %v ext %v, reference %v ext %v",
				li, l.kernel, l.kernel, l.stride, g.out.coords, g.out.extents, wantOut.Coords, wantOut.Extents)
		}
		if len(g.rulebook) != len(wantRB) {
			t.Fatalf("layer %d: %d offsets, reference %d", li, len(g.rulebook), len(wantRB))
		}
		for off := range wantRB {
			if !slices.Equal(g.rulebook[off], wantRB[off]) {
				t.Fatalf("layer %d (%dx%d/%d) offset %v: rulebook %v, reference %v",
					li, l.kernel, l.kernel, l.stride, conv.offsets[off], g.rulebook[off], wantRB[off])
			}
		}
		checkSorted(t, g.out)
		if l.stride != 1 {
			got = mapOf(g.out, 1)
			want = wantOut
		}
	}
}

// checkSorted asserts a geometry's key order really sorts its sites.
func checkSorted(t testing.TB, g *geometry) {
	t.Helper()
	n := g.numSites()
	if len(g.keys) != n || (g.order != nil && len(g.order) != n) {
		t.Fatalf("geometry has %d keys / %d order for %d sites", len(g.keys), len(g.order), n)
	}
	seen := make([]bool, n)
	for i, k := range g.keys {
		if i > 0 && k <= g.keys[i-1] {
			t.Fatalf("keys not strictly ascending at %d", i)
		}
		s := g.site(i)
		if seen[s] {
			t.Fatalf("site %d ordered twice", s)
		}
		seen[s] = true
		if g.key(g.coords[int(s)*g.dim:int(s)*g.dim+g.dim]) != k {
			t.Fatalf("key %d does not match site %d", k, s)
		}
	}
}

// referenceLayers is the stack the sweep and the fuzzer check: both
// submanifold kernels the networks use, and strided layers down to a single
// site on small extents.
var referenceLayers = []layerSpec{{5, 1}, {3, 1}, {3, 2}, {3, 1}, {3, 2}, {5, 2}, {3, 1}, {3, 3}, {1, 1}}

func randomPattern(rng *rand.Rand, dims []int, nnz int, shuffle bool) *tensor.COO {
	c := tensor.NewCOO(dims, nnz)
	coord := make([]int32, len(dims))
	for p := 0; p < nnz; p++ {
		for m, d := range dims {
			switch rng.Intn(8) {
			case 0:
				coord[m] = 0
			case 1:
				coord[m] = int32(d - 1)
			default:
				coord[m] = int32(rng.Intn(d))
			}
		}
		c.Append(1, coord...)
	}
	if !shuffle {
		c.SortRowMajor()
		c.Dedup()
	}
	return c
}

func TestRulebookMatchesReference(t *testing.T) {
	const edge = 1<<21 - 1
	rng := rand.New(rand.NewSource(53))
	cases := []struct {
		name string
		c    *tensor.COO
	}{
		{"empty-2d", tensor.NewCOO([]int{8, 8}, 0)},
		{"empty-3d", tensor.NewCOO([]int{4, 4, 4}, 0)},
		{"single-2d", patternFromPoints([]int{7, 9}, [][]int32{{3, 4}})},
		{"single-3d", patternFromPoints([]int{3, 5, 2}, [][]int32{{2, 0, 1}})},
		{"duplicates", patternFromPoints([]int{6, 6}, [][]int32{{1, 1}, {4, 2}, {1, 1}, {0, 5}, {4, 2}, {4, 2}})},
		{"row-1xN", randomPattern(rng, []int{1, 300}, 120, true)},
		{"col-Nx1", randomPattern(rng, []int{300, 1}, 120, true)},
		{"edge-2d", patternFromPoints([]int{edge, edge}, [][]int32{
			{0, 0}, {0, edge - 1}, {edge - 1, 0}, {edge - 1, edge - 1}, {1, 0}, {0, 1},
			{1, edge - 1}, {2, edge - 2}, {edge - 2, edge - 1}, {edge - 1, edge - 2}, {1, 1},
		})},
		{"edge-3d", patternFromPoints([]int{edge, edge, edge}, [][]int32{
			{0, 0, 0}, {0, 0, edge - 1}, {0, 1, 0}, {0, edge - 1, edge - 1}, {1, 0, 0},
			{edge - 1, edge - 1, edge - 1}, {edge - 1, 0, 1}, {edge - 2, edge - 1, 0},
		})},
		{"edge-rows", randomPattern(rng, []int{edge, 4}, 60, true)},
	}
	for i := 0; i < 12; i++ {
		dims := []int{1 + rng.Intn(40), 1 + rng.Intn(40)}
		if i%3 == 2 {
			dims = append(dims, 1+rng.Intn(12))
		}
		cells := 1
		for _, d := range dims {
			cells *= d
		}
		nnz := 1 + rng.Intn(cells)
		cases = append(cases,
			struct {
				name string
				c    *tensor.COO
			}{fmt.Sprintf("random-%d-sorted", i), randomPattern(rng, dims, nnz, false)},
			struct {
				name string
				c    *tensor.COO
			}{fmt.Sprintf("random-%d-shuffled", i), randomPattern(rng, dims, nnz, true)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkAgainstReference(t, tc.c, referenceLayers) })
	}
}

// TestHandBuiltMapGeometry: a map assembled from Coords by hand, in no
// particular order, derives its geometry on first use and builds the same
// rulebooks as the reference.
func TestHandBuiltMapGeometry(t *testing.T) {
	c := randomPattern(rand.New(rand.NewSource(5)), []int{20, 30}, 150, true)
	ref, _ := refFromCOO(c)
	sm := &SparseMap{Dim: 2, Extents: []int32{20, 30}, C: 1, Coords: ref.Coords, F: ref.F}
	rng := rand.New(rand.NewSource(6))
	for _, l := range []layerSpec{{3, 1}, {3, 2}} {
		conv := NewConv("h", 2, 1, 1, l.kernel, l.stride, rng)
		var wantRB [][]pair
		if l.stride == 1 {
			_, wantRB = refBuildSubmanifold(conv, ref)
		} else {
			_, wantRB = refBuildStrided(conv, ref)
		}
		g := conv.geom(sm)
		for off := range wantRB {
			if !slices.Equal(g.rulebook[off], wantRB[off]) {
				t.Fatalf("%v offset %d: rulebook %v, reference %v", l, off, g.rulebook[off], wantRB[off])
			}
		}
	}
	checkSorted(t, sm.geo)
}

// FuzzRulebook drives arbitrary patterns through FromCOO and a layer stack
// and requires identical sites and rulebooks from the hashed reference.
// Each 3-byte group of data is one coordinate; a set top bit pins it to the
// extent's last index so boundary sites are common.
func FuzzRulebook(f *testing.F) {
	f.Add(uint8(2), uint32(16), uint32(16), uint32(1), uint8(0), []byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(3), uint32(5), uint32(7), uint32(3), uint8(1), []byte{9, 1, 200, 4, 4, 4, 0, 0, 0, 128, 0, 0, 0, 0, 128})
	f.Add(uint8(2), uint32(1), uint32(1<<21-1), uint32(1), uint8(2), []byte{0, 0, 0, 0, 0, 1, 128, 0, 0, 0, 0, 0, 0, 0, 128})
	f.Add(uint8(2), uint32(1<<21-1), uint32(1<<21-1), uint32(1), uint8(3), []byte{128, 0, 0, 0, 0, 0, 0, 0, 1, 128, 0, 0, 128, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, order uint8, e0, e1, e2 uint32, layerSel uint8, data []byte) {
		dims := []int{int(e0%(1<<21-1)) + 1, int(e1%(1<<21-1)) + 1}
		if order%2 == 1 {
			dims = append(dims, int(e2%(1<<21-1))+1)
		}
		const perCoord = 3
		nnz := min(len(data)/(perCoord*len(dims)), 512)
		c := tensor.NewCOO(dims, nnz)
		coord := make([]int32, len(dims))
		for p := 0; p < nnz; p++ {
			for m, d := range dims {
				b := data[(p*len(dims)+m)*perCoord:]
				v := int(b[0]&0x7F)<<16 | int(b[1])<<8 | int(b[2])
				if b[0]&0x80 != 0 {
					v = d - 1 - int(b[2]%2)
				}
				coord[m] = int32(max(0, v%d))
			}
			c.Append(1, coord...)
		}
		// Rotate the layer stack so every layer shape also runs on the raw
		// pattern.
		sel := int(layerSel) % len(referenceLayers)
		layers := append(append([]layerSpec(nil), referenceLayers[sel:]...), referenceLayers[:sel]...)
		checkAgainstReference(t, c, layers)
	})
}

// TestSortedInputKeepsIdentityOrder: a canonical (row-major, duplicate-free)
// pattern needs no permutation, so its geometry stores none.
func TestSortedInputKeepsIdentityOrder(t *testing.T) {
	c := randomPattern(rand.New(rand.NewSource(9)), []int{30, 30}, 200, false)
	sm, err := FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	if sm.geo.order != nil {
		t.Fatal("sorted input stored a site permutation")
	}
}
