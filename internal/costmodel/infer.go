package costmodel

import (
	"sync"

	"waco/internal/nn"
	"waco/internal/schedule"
)

// InferBuffers is the per-goroutine scratch of the forward-only inference
// path: one arena for layer activations plus the persistent state of the
// batched predictor head. The forward-only path produces bit-identical
// predictions to the tape path (pinned by TestInferParity*) while allocating
// nothing in steady state, which is what keeps the query-path search —
// hundreds of head evaluations per query — off the garbage collector.
//
// Ownership follows nn.Arena: one InferBuffers per goroutine at a time,
// never shared concurrently. Reset (or CostWith, which resets) starts a new
// query and invalidates every slice the previous query obtained. serve and
// search recycle buffers through sync.Pools; standalone callers can use
// GetInferBuffers/PutInferBuffers.
type InferBuffers struct {
	arena nn.Arena

	// Prepared head state: the query-constant partial product of the first
	// head layer. The first layer sees concat(feat, emb); its bias plus the
	// feature half of the mat-vec is the same for every candidate of a
	// query, so it is hoisted out of the per-candidate loop. Accumulation
	// order is unchanged (bias, then feature terms, then embedding terms),
	// so scores match the tape path bit for bit.
	model   *Model
	featPtr *float32
	featLen int
	featGen uint64    // arena generation the prepared feature lives in
	pre     []float32 // pre[o] = B[o] + W[o, :featLen] . feat

	hid [2][]float32 // ping-pong hidden activations of the head
}

// NewInferBuffers returns empty buffers; they size themselves on first use.
func NewInferBuffers() *InferBuffers { return &InferBuffers{} }

// Reset begins a new query: recycles the arena and drops the prepared head
// state (whose feature slice lived on the arena). Every slice returned by
// ExtractInfer/EmbedScheduleInfer since the last Reset becomes invalid.
//
//waco:allocfree
func (b *InferBuffers) Reset() {
	b.arena.Reset()
	b.model = nil
	b.featPtr = nil
	b.featLen = 0
}

// Arena exposes the underlying arena for composing with the nn/sparseconv
// forward-only helpers directly.
func (b *InferBuffers) Arena() *nn.Arena { return &b.arena }

// inferPool recycles buffers for entry points that do not thread their own
// (Model.Cost and the serve layer's per-request cost check).
var inferPool = sync.Pool{New: func() any { return NewInferBuffers() }}

// GetInferBuffers takes recycled buffers from the package pool.
func GetInferBuffers() *InferBuffers { return inferPool.Get().(*InferBuffers) }

// PutInferBuffers resets and returns buffers to the package pool. The caller
// must not hold on to any slice obtained through them.
func PutInferBuffers(b *InferBuffers) {
	b.Reset()
	inferPool.Put(b)
}

// grow returns s resized to n, reallocating only when capacity is short.
// Contents are unspecified; callers overwrite every element.
func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// prepare computes the query-constant head state for feat, skipping the work
// when the same feature (by identity) is already prepared. feat must stay
// unmodified while prepared — the search path extracts it once per query and
// never writes it.
//
// Identity alone (address + length) is not enough: features live on the
// arena, and an arena reset recycles addresses, so a NEW feature extracted
// after a reset can land exactly where the old one was. The memo therefore
// also keys on the arena generation, which Reset bumps (pinned by
// TestPrepareInvalidatedByArenaReset).
//
//waco:allocfree
func (b *InferBuffers) prepare(m *Model, feat []float32) {
	var fp *float32
	if len(feat) > 0 {
		fp = &feat[0]
	}
	if b.model == m && b.featPtr == fp && b.featLen == len(feat) && b.featGen == b.arena.Gen() {
		return
	}
	l0 := m.Head.Layers[0]
	fd := len(feat)
	nn.CheckShape("head feature", fd, l0.In-m.Cfg.EmbDim)
	b.pre = grow(b.pre, l0.Out)
	for o := 0; o < l0.Out; o++ {
		row := l0.W.W[o*l0.In : o*l0.In+fd]
		acc := l0.B.W[o]
		for i, xi := range feat {
			acc += row[i] * xi
		}
		b.pre[o] = acc
	}
	b.model, b.featPtr, b.featLen, b.featGen = m, fp, fd, b.arena.Gen()
}

// score runs the head on one embedding against the prepared feature,
// allocating nothing. Bit-identical to Head.Apply over concat(feat, emb).
//
//waco:allocfree
func (b *InferBuffers) score(m *Model, emb []float32) float64 {
	layers := m.Head.Layers
	l0 := layers[0]
	nn.CheckShape("head embedding", b.featLen+len(emb), l0.In)
	x := grow(b.hid[0], l0.Out)
	b.hid[0] = x
	fd := b.featLen
	for o := 0; o < l0.Out; o++ {
		row := l0.W.W[o*l0.In+fd : (o+1)*l0.In]
		acc := b.pre[o]
		for j, xj := range emb {
			acc += row[j] * xj
		}
		x[o] = acc
	}
	cur := 0
	for li := 1; li < len(layers); li++ {
		nn.ReLUInPlace(x)
		l := layers[li]
		y := grow(b.hid[1-cur], l.Out)
		b.hid[1-cur] = y
		l.InferInto(y, x)
		x = y
		cur = 1 - cur
	}
	return float64(x[0])
}

// PredictHeadInto scores a whole batch of schedule embeddings against one
// extracted pattern feature, writing out[i] for embs[i] — the query path's
// batched counterpart of PredictWith, sized to an HNSW adjacency list. It
// allocates nothing in steady state and counts one head evaluation per
// embedding.
//
//waco:allocfree
func (m *Model) PredictHeadInto(b *InferBuffers, feat []float32, embs [][]float32, out []float64) {
	if len(out) != len(embs) {
		nn.CheckShape("head batch output", len(out), len(embs))
	}
	b.prepare(m, feat)
	for i, emb := range embs {
		out[i] = b.score(m, emb)
	}
	m.headEvals.Add(uint64(len(embs)))
}

// PredictHead scores one embedding against an extracted feature on the
// forward-only path (the batch-of-one case of PredictHeadInto).
//
//waco:allocfree
func (m *Model) PredictHead(b *InferBuffers, feat, emb []float32) float64 {
	b.prepare(m, feat)
	m.headEvals.Add(1)
	return b.score(m, emb)
}

// ExtractInfer extracts the pattern feature forward-only, memoizing it on the
// pattern: the first call per (pattern, extractor) runs the network with b's
// arena and copies the result off it; later calls return the cached copy
// without touching b. The returned slice is owned by the pattern (valid for
// its lifetime, not just until b resets) and must not be modified.
func (m *Model) ExtractInfer(b *InferBuffers, p *Pattern) ([]float32, error) {
	if p.featKey == m.Extractor && p.featVal != nil {
		return p.featVal, nil
	}
	feat, err := m.Extractor.ExtractInfer(&b.arena, p)
	if err != nil {
		return nil, err
	}
	p.featVal = append([]float32(nil), feat...)
	p.featKey = m.Extractor
	return p.featVal, nil
}

// EmbedScheduleInfer embeds a schedule forward-only into b's arena. Callers
// that store the embedding beyond the query (index build) must copy it out.
func (m *Model) EmbedScheduleInfer(b *InferBuffers, ss *schedule.SuperSchedule) []float32 {
	return m.Embedder.EmbedScheduleInfer(&b.arena, ss)
}

// CostWith is Cost with caller-owned buffers: it resets b and scores one
// (pattern, schedule) pair entirely on the forward-only path.
func (m *Model) CostWith(b *InferBuffers, p *Pattern, ss *schedule.SuperSchedule) (float64, error) {
	b.Reset()
	feat, err := m.ExtractInfer(b, p)
	if err != nil {
		return 0, err
	}
	emb := m.EmbedScheduleInfer(b, ss)
	return m.PredictHead(b, feat, emb), nil
}
