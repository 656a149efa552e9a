package sparseconv

import (
	"math/bits"
	"math/rand"

	"waco/internal/nn"
)

// Conv is a sparse convolution layer. With Stride 1 it is a *submanifold*
// convolution: outputs exist exactly at the input's active sites, so
// sparsity never dilates as layers stack (Figure 7 of the paper). With
// Stride 2 it is a strided sparse convolution: output sites are the
// downsampled images of input sites, which forces the receptive field to
// grow even when nonzeros sit far apart (Figure 8).
type Conv struct {
	Dim, Cin, Cout int
	Kernel, Stride int // Kernel is odd; Stride is 1 or 2
	W              *nn.Param
	B              *nn.Param

	offsets [][]int32 // kernel offset vectors, length nOffsets
}

// NewConv creates a He-initialized sparse convolution layer.
func NewConv(name string, dim, cin, cout, kernel, stride int, rng *rand.Rand) *Conv {
	c := &Conv{Dim: dim, Cin: cin, Cout: cout, Kernel: kernel, Stride: stride}
	c.offsets = kernelOffsets(dim, kernel)
	c.W = nn.NewParam(name+".W", len(c.offsets), cout*cin)
	c.W.InitHe(rng, len(c.offsets)*cin)
	c.B = nn.NewParam(name+".B", cout, 1)
	return c
}

// Params returns the trainable parameters.
func (c *Conv) Params() []*nn.Param { return []*nn.Param{c.W, c.B} }

// kernelOffsets enumerates {-r..r}^dim in row-major order.
func kernelOffsets(dim, kernel int) [][]int32 {
	r := int32(kernel / 2)
	var out [][]int32
	cur := make([]int32, dim)
	var walk func(d int)
	walk = func(d int) {
		if d == dim {
			out = append(out, append([]int32(nil), cur...))
			return
		}
		for x := -r; x <= r; x++ {
			cur[d] = x
			walk(d + 1)
		}
	}
	walk(0)
	return out
}

// pair is one rulebook entry: input site -> output site.
type pair struct{ in, out int32 }

// Apply runs the convolution, recording backward on the tape. The input's
// gradient buffer is allocated if a tape is supplied. The rulebook comes
// from the input's shared geometry, so repeated passes over one coordinate
// set build it once.
func (c *Conv) Apply(t *nn.Tape, in *SparseMap) *SparseMap {
	nn.CheckShape("conv input channels", in.C, c.Cin)
	g := c.geom(in)
	rulebook := g.rulebook
	out := mapOf(g.out, c.Cout)
	out.F = make([]float32, out.NumSites()*c.Cout)
	c.forward(in, out, rulebook)
	if t != nil {
		in.EnsureGrad()
		out.EnsureGrad()
		t.Push(func() {
			for s := 0; s < out.NumSites(); s++ {
				dy := out.D[s*c.Cout : (s+1)*c.Cout]
				for o, d := range dy {
					c.B.G[o] += d
				}
			}
			for off, pairs := range rulebook {
				w := c.W.W[off*c.Cout*c.Cin : (off+1)*c.Cout*c.Cin]
				gw := c.W.G[off*c.Cout*c.Cin : (off+1)*c.Cout*c.Cin]
				for _, pr := range pairs {
					xi := in.F[int(pr.in)*c.Cin : int(pr.in)*c.Cin+c.Cin]
					dxi := in.D[int(pr.in)*c.Cin : int(pr.in)*c.Cin+c.Cin]
					dy := out.D[int(pr.out)*c.Cout : int(pr.out)*c.Cout+c.Cout]
					for o := 0; o < c.Cout; o++ {
						d := dy[o]
						if d == 0 {
							continue
						}
						row := w[o*c.Cin : o*c.Cin+c.Cin]
						grow := gw[o*c.Cin : o*c.Cin+c.Cin]
						for i, x := range xi {
							grow[i] += d * x
							dxi[i] += d * row[i]
						}
					}
				}
			}
		})
	}
	return out
}

// forward runs the convolution arithmetic into out.F (already sized and
// zeroed/bias-free): bias first, then gather-scatter per kernel offset. The
// tape and forward-only paths share it so their outputs are bit-identical.
func (c *Conv) forward(in, out *SparseMap, rulebook [][]pair) {
	// Bias.
	for s := 0; s < out.NumSites(); s++ {
		copy(out.F[s*c.Cout:(s+1)*c.Cout], c.B.W)
	}
	// Gather-scatter per kernel offset: out[o] += W[off] * in[i].
	for off, pairs := range rulebook {
		w := c.W.W[off*c.Cout*c.Cin : (off+1)*c.Cout*c.Cin]
		for _, pr := range pairs {
			xi := in.F[int(pr.in)*c.Cin : int(pr.in)*c.Cin+c.Cin]
			yo := out.F[int(pr.out)*c.Cout : int(pr.out)*c.Cout+c.Cout]
			for o := 0; o < c.Cout; o++ {
				row := w[o*c.Cin : o*c.Cin+c.Cin]
				acc := yo[o]
				for i, x := range xi {
					acc += row[i] * x
				}
				yo[o] = acc
			}
		}
	}
}

// geom returns the output site set and rulebook of this layer's kernel and
// stride on in's coordinates, building and caching them on first use.
func (c *Conv) geom(in *SparseMap) *convGeom {
	g := in.geometry()
	for _, cg := range g.convs {
		if cg.kernel == c.Kernel && cg.stride == c.Stride {
			return cg
		}
	}
	cg := &convGeom{kernel: c.Kernel, stride: c.Stride}
	if c.Stride == 1 {
		cg.out, cg.rulebook = g, c.buildSubmanifold(g)
	} else {
		cg.out, cg.rulebook = c.buildStrided(g)
	}
	cg.hdr = [2]*SparseMap{mapOf(cg.out, c.Cout), mapOf(cg.out, c.Cout)}
	g.convs = append(g.convs, cg)
	return cg
}

// buildSubmanifold: output sites = input sites; rulebook[off] pairs each
// output site, in ascending order, with the input neighbor at
// coordinate(site)+offset, when active.
//
// Inside the extents the neighbor's key is key(site)+key(offset), and the
// offsets that differ only in the last dimension have consecutive keys. So
// one merge of the sorted keys against themselves, shifted by each leading
// offset, finds every pair of a whole kernel row. A shifted key can also
// land on a real site when a coordinate leaves the extents and borrows from
// a neighboring dimension, so each match re-checks bounds.
func (c *Conv) buildSubmanifold(in *geometry) [][]pair {
	n := in.numSites()
	dim := in.dim
	keys := in.keys
	k := c.Kernel
	r := int64(k / 2)
	rulebook := make([][]pair, len(c.offsets))
	// nb[w*n+s] is site s's neighbor at the w-th offset of the current
	// kernel row, or -1: matches arrive in key order and leave in site order.
	nb := make([]int32, k*n)
	for i := range nb {
		nb[i] = -1
	}
	counts := make([]int, k)
	for row := 0; row < len(c.offsets); row += k {
		lead := c.offsets[row] // last component is -r
		var base int64
		for d := 0; d < dim-1; d++ {
			base += int64(lead[d]) * in.place[d]
		}
		clear(counts)
		p := 0
		for i := 0; i < n && p < n; i++ {
			lo := keys[i] + base - r
			for p < n && keys[p] < lo {
				p++
			}
			s := in.site(i)
			site := in.coords[int(s)*dim : int(s)*dim+dim]
			inRow := true
			for d := 0; d < dim-1; d++ {
				if x := site[d] + lead[d]; x < 0 || x >= in.extents[d] {
					inRow = false
					break
				}
			}
			if !inRow {
				continue
			}
			last := int64(site[dim-1])
			for q := p; q < n && keys[q] <= lo+2*r; q++ {
				dc := keys[q] - keys[i] - base
				if x := last + dc; x < 0 || x >= int64(in.extents[dim-1]) {
					continue
				}
				w := int(dc + r)
				nb[w*n+int(s)] = in.site(q)
				counts[w]++
			}
		}
		for w := 0; w < k; w++ {
			pairs := make([]pair, counts[w])
			col := nb[w*n : (w+1)*n]
			at := 0
			for s, j := range col {
				if j >= 0 {
					pairs[at] = pair{in: j, out: int32(s)}
					at++
					col[s] = -1
				}
			}
			rulebook[row+w] = pairs
		}
	}
	return rulebook
}

// buildStrided: out[o] = sum_delta W[delta] * in[stride*o + delta]; output
// sites are every o receiving at least one contribution, numbered in order
// of first appearance over (offset, input site).
//
// Output coordinates are arithmetic, so a count pass over the input sites
// sizes every offset's rulebook exactly and a fill pass writes each
// candidate's input site and output key in (offset, site) order. One stable
// radix sort of those keys then numbers the distinct outputs by first
// appearance and yields the output's sorted key order for the next layer.
func (c *Conv) buildStrided(in *geometry) (*geometry, [][]pair) {
	outExt := make([]int32, in.dim)
	for d, e := range in.extents {
		outExt[d] = max(1, (e+int32(c.Stride)-1)/int32(c.Stride))
	}
	out := &geometry{dim: in.dim, extents: outExt, place: places(outExt)}
	sc := newStrideScan(c, out)
	n := in.numSites()

	counts := make([]int, len(c.offsets))
	for s := 0; s < n; s++ {
		if !sc.load(in.coords[s*in.dim : (s+1)*in.dim]) {
			continue
		}
		for _, a := range sc.terms[0] {
			for _, b := range sc.terms[1] {
				for _, e := range sc.terms[2] {
					counts[a.off+b.off+e.off]++
				}
			}
		}
	}
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	backing := make([]pair, total)
	keys := make([]int64, total)
	rulebook := make([][]pair, len(c.offsets))
	next := counts // reused as each offset's fill cursor
	at := 0
	for off, cnt := range counts {
		rulebook[off] = backing[at : at+cnt : at+cnt]
		next[off] = at
		at += cnt
	}
	for s := 0; s < n; s++ {
		if !sc.load(in.coords[s*in.dim : (s+1)*in.dim]) {
			continue
		}
		for _, a := range sc.terms[0] {
			for _, b := range sc.terms[1] {
				for _, e := range sc.terms[2] {
					at := next[a.off+b.off+e.off]
					next[a.off+b.off+e.off]++
					backing[at].in = int32(s)
					keys[at] = a.key + b.key + e.key
				}
			}
		}
	}
	var ids []int32
	ids, out.keys, out.order = firstAppearance(keys, keySpan(outExt))
	for i, id := range ids {
		backing[i].out = id
	}
	out.coords = decode(out, out.keys, out.order)
	return out, rulebook
}

// strideTerm is one dimension's share of a strided candidate: its part of
// the kernel offset index and of the output site's key.
type strideTerm struct {
	off int
	key int64
}

// strideScan lists, for one input site at a time, the terms of every
// dimension. In dimension d the kernel indices i whose offset i-r lands
// coordinate x on the stride grid are i0, i0+stride, ... with
// i0 = (x+r) mod stride, and their output coordinates count down from
// (x+r-i0)/stride. The site's candidates are the cross product of the
// terms; dimensions past the map's hold one zero term so every site runs
// the same three loops.
type strideScan struct {
	terms    [3][]strideTerm
	offPlace [3]int
	k, r, st int32
	shift    int32 // log2(st) when st is a power of two, else -1
	out      *geometry
}

func newStrideScan(c *Conv, out *geometry) *strideScan {
	sc := &strideScan{k: int32(c.Kernel), r: int32(c.Kernel / 2), st: int32(c.Stride), shift: -1, out: out}
	if c.Stride&(c.Stride-1) == 0 {
		sc.shift = int32(bits.TrailingZeros(uint(c.Stride)))
	}
	for d, v := 2, 1; d >= 0; d-- {
		sc.terms[d] = make([]strideTerm, 0, c.Kernel)
		if d >= out.dim {
			sc.terms[d] = append(sc.terms[d], strideTerm{})
			continue
		}
		sc.offPlace[d] = v
		v *= c.Kernel
	}
	return sc
}

// load fills the terms of the site at coord and reports whether it has any
// candidate.
func (sc *strideScan) load(coord []int32) bool {
	for d, x := range coord {
		t := sc.terms[d][:0]
		var i, q int32
		if sc.shift >= 0 { // power-of-two stride: no division on the hot path
			i, q = (x+sc.r)&(sc.st-1), (x+sc.r)>>sc.shift
		} else {
			i, q = (x+sc.r)%sc.st, (x+sc.r)/sc.st
		}
		for ; i < sc.k && q >= 0; i, q = i+sc.st, q-1 {
			if q < sc.out.extents[d] {
				t = append(t, strideTerm{int(i) * sc.offPlace[d], int64(q) * sc.out.place[d]})
			}
		}
		sc.terms[d] = t
		if len(t) == 0 {
			return false
		}
	}
	return true
}

// ReLUMap applies elementwise ReLU to a sparse map's features.
func ReLUMap(t *nn.Tape, in *SparseMap) *SparseMap {
	out := mapOf(in.geometry(), in.C)
	out.F = make([]float32, len(in.F))
	for i, v := range in.F {
		if v > 0 {
			out.F[i] = v
		}
	}
	if t != nil {
		in.EnsureGrad()
		out.EnsureGrad()
		t.Push(func() {
			for i, v := range in.F {
				if v > 0 {
					in.D[i] += out.D[i]
				}
			}
		})
	}
	return out
}

// GlobalAvgPool averages features over all sites, returning a C-vector.
func GlobalAvgPool(t *nn.Tape, in *SparseMap) *nn.Grad {
	n := in.NumSites()
	out := nn.NewGrad(make([]float32, in.C))
	if n == 0 {
		return out
	}
	for s := 0; s < n; s++ {
		f := in.F[s*in.C : (s+1)*in.C]
		for c, v := range f {
			out.V[c] += v
		}
	}
	inv := 1 / float32(n)
	for c := range out.V {
		out.V[c] *= inv
	}
	if t != nil {
		in.EnsureGrad()
		t.Push(func() {
			for s := 0; s < n; s++ {
				df := in.D[s*in.C : (s+1)*in.C]
				for c := range df {
					df[c] += out.D[c] * inv
				}
			}
		})
	}
	return out
}
