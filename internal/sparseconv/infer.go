package sparseconv

import "waco/internal/nn"

// Forward-only inference for the sparse convolution stacks: the same
// arithmetic as the nil-tape Apply path (shared via Conv.forward, so outputs
// are bit-identical), but feature buffers come from an nn.Arena instead of
// fresh make calls and activations are rectified in place. Rulebook geometry
// depends only on the input coordinates, never on feature values, and is
// shared with the tape path through the coordinate set's geometry: repeated
// extraction of the same pattern rebuilds nothing and allocates nothing
// after the first pass.

// convGeom is the cached geometry of one (kernel, stride) applied to one
// coordinate set: the output site set and the gather-scatter rulebook. For
// stride 1 the output sites are the input's, so out is the input geometry
// itself and stacked stride-1 layers of one kernel share a single rulebook.
type convGeom struct {
	kernel, stride int
	out            *geometry
	rulebook       [][]pair

	// hdr holds the two output map headers Infer hands out, reused across
	// passes with only C and F reassigned. Two, because a stride-1 layer's
	// input can be this same geometry's previous output header.
	hdr [2]*SparseMap
}

// Infer runs the convolution forward-only; the returned map's F is arena
// scratch, valid until the arena resets, and the map object itself is cached
// geometry owned by in's coordinate set (also invalidated by reuse — callers
// keep neither across passes). The input's features are only read.
func (c *Conv) Infer(a *nn.Arena, in *SparseMap) *SparseMap {
	nn.CheckShape("conv input channels", in.C, c.Cin)
	g := c.geom(in)
	out := g.hdr[0]
	if out == in {
		out = g.hdr[1]
	}
	out.C = c.Cout
	out.F = a.Alloc(out.NumSites() * c.Cout)
	c.forward(in, out, g.rulebook)
	return out
}

// ReLUMapInPlace rectifies a sparse map's features in place and returns the
// map. Only for maps whose F the caller owns (conv outputs on an arena) —
// never a Pattern's cached conversion.
func ReLUMapInPlace(in *SparseMap) *SparseMap {
	nn.ReLUInPlace(in.F)
	return in
}

// GlobalAvgPoolInto averages features over all sites into dst (length C),
// the forward-only counterpart of GlobalAvgPool with the same accumulation
// order. dst is zeroed first.
func GlobalAvgPoolInto(dst []float32, in *SparseMap) {
	nn.CheckShape("pool output", len(dst), in.C)
	clear(dst)
	n := in.NumSites()
	if n == 0 {
		return
	}
	for s := 0; s < n; s++ {
		f := in.F[s*in.C : (s+1)*in.C]
		for c, v := range f {
			dst[c] += v
		}
	}
	inv := 1 / float32(n)
	for c := range dst {
		dst[c] *= inv
	}
}

// ExtractInfer is the forward-only Extract: identical output bits, arena
// scratch instead of per-layer allocations. sm's features are only read.
func (w *WACONet) ExtractInfer(a *nn.Arena, sm *SparseMap) []float32 {
	x := ReLUMapInPlace(w.First.Infer(a, sm))
	ch := w.Cfg.Channels
	pooled := a.Alloc(len(w.Convs) * ch)
	for i, c := range w.Convs {
		x = ReLUMapInPlace(c.Infer(a, x))
		GlobalAvgPoolInto(pooled[i*ch:(i+1)*ch], x)
	}
	return w.Proj.Infer(a, pooled)
}

// ExtractInfer is the forward-only Extract for the stride-1 comparison net.
func (m *MinkowskiLike) ExtractInfer(a *nn.Arena, sm *SparseMap) []float32 {
	x := ReLUMapInPlace(m.First.Infer(a, sm))
	for _, c := range m.Convs {
		x = ReLUMapInPlace(c.Infer(a, x))
	}
	pooled := a.Alloc(m.Cfg.Channels)
	GlobalAvgPoolInto(pooled, x)
	return m.Proj.Infer(a, pooled)
}
