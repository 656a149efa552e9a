// Package costmodel implements WACO's learned cost model (§4.1): a sparsity
// pattern feature extractor, a SuperSchedule program embedder, and a runtime
// predictor head, trained with the pairwise hinge ranking loss on measured
// (matrix, SuperSchedule, runtime) tuples. Four interchangeable feature
// extractors reproduce the Figure 15 comparison: HumanFeature, DenseConv,
// MinkowskiNet-like, and WACONet.
package costmodel

import (
	"fmt"
	"math/rand"

	"waco/internal/nn"
	"waco/internal/sparseconv"
	"waco/internal/tensor"
)

// Pattern wraps a sparse tensor with lazily built, cached views consumed by
// the different extractors, so a matrix converted once can be scored against
// thousands of schedules. The lazy caches make a Pattern single-goroutine:
// concurrent queries must each wrap their own Pattern (the Model itself is
// read-only during inference; see Model's doc comment).
type Pattern struct {
	COO *tensor.COO

	sm    *sparseconv.SparseMap
	down  map[int]*sparseconv.SparseMap
	human []float32

	// Extracted-feature memo (Model.ExtractInfer): the learned feature vector
	// is as much a deterministic view of the pattern as the sparse map or the
	// human statistics, and repeated queries of one pattern — top-k retrieval
	// plus candidate re-scoring of the same matrix — would otherwise re-run
	// the extractor network each time. Keyed
	// by extractor identity so a pattern scored against two models never
	// serves one model the other's features.
	featKey FeatureExtractor
	featVal []float32
}

// NewPattern wraps a tensor.
func NewPattern(c *tensor.COO) *Pattern {
	return &Pattern{COO: c, down: make(map[int]*sparseconv.SparseMap)}
}

// SparseMap returns the raw-coordinate sparse map (cached).
func (p *Pattern) SparseMap() (*sparseconv.SparseMap, error) {
	if p.sm == nil {
		sm, err := sparseconv.FromCOO(p.COO)
		if err != nil {
			return nil, err
		}
		p.sm = sm
	}
	return p.sm, nil
}

// Downsampled returns the gridSize-downsampled map (cached per size).
func (p *Pattern) Downsampled(gridSize int) *sparseconv.SparseMap {
	if d, ok := p.down[gridSize]; ok {
		return d
	}
	d := sparseconv.Downsample(p.COO, gridSize)
	p.down[gridSize] = d
	return d
}

// HumanFeatures returns the hand-crafted statistics vector (cached).
func (p *Pattern) HumanFeatures() []float32 {
	if p.human == nil {
		st := tensor.ComputeStats(p.COO)
		p.human = st.FeatureVector()
	}
	return p.human
}

// FeatureExtractor turns a sparsity pattern into a learned feature vector.
// Extract is the tape path (training); ExtractInfer is the forward-only path
// (serving), which must produce bit-identical values while drawing scratch
// from the arena — the parity tests compare the two element for element.
type FeatureExtractor interface {
	Name() string
	Dim() int
	Extract(t *nn.Tape, p *Pattern) (*nn.Grad, error)
	ExtractInfer(a *nn.Arena, p *Pattern) ([]float32, error)
	Params() []*nn.Param
}

// ExtractorKind names the four Figure 15 alternatives.
type ExtractorKind string

const (
	KindWACONet      ExtractorKind = "waconet"
	KindMinkowski    ExtractorKind = "minkowski"
	KindDenseConv    ExtractorKind = "denseconv"
	KindHumanFeature ExtractorKind = "human"
)

// ExtractorKinds lists all kinds in Figure 15 order.
var ExtractorKinds = []ExtractorKind{KindHumanFeature, KindDenseConv, KindMinkowski, KindWACONet}

// NewExtractor builds an extractor of the given kind. dim is the sparse
// tensor order (2 or 3); cfg sizes the convolutional variants.
func NewExtractor(kind ExtractorKind, cfg sparseconv.Config, rng *rand.Rand) (FeatureExtractor, error) {
	switch kind {
	case KindWACONet:
		return &waconetExtractor{net: sparseconv.NewWACONet(cfg, rng)}, nil
	case KindMinkowski:
		return &minkowskiExtractor{net: sparseconv.NewMinkowskiLike(cfg, rng)}, nil
	case KindDenseConv:
		return newDenseConvExtractor(cfg, rng), nil
	case KindHumanFeature:
		return &humanExtractor{
			mlp: nn.NewMLP("human", []int{tensor.HumanFeatureDim, cfg.OutDim, cfg.OutDim}, rng),
			dim: cfg.OutDim,
		}, nil
	}
	return nil, fmt.Errorf("costmodel: unknown extractor kind %q", kind)
}

type waconetExtractor struct{ net *sparseconv.WACONet }

func (w *waconetExtractor) Name() string        { return string(KindWACONet) }
func (w *waconetExtractor) Dim() int            { return w.net.OutDim() }
func (w *waconetExtractor) Params() []*nn.Param { return w.net.Params() }
func (w *waconetExtractor) Extract(t *nn.Tape, p *Pattern) (*nn.Grad, error) {
	sm, err := p.SparseMap()
	if err != nil {
		return nil, err
	}
	return w.net.Extract(t, cloneForPass(sm)), nil
}
func (w *waconetExtractor) ExtractInfer(a *nn.Arena, p *Pattern) ([]float32, error) {
	sm, err := p.SparseMap()
	if err != nil {
		return nil, err
	}
	// No cloneForPass: the forward pass only reads the cached map's features.
	return w.net.ExtractInfer(a, sm), nil
}

type minkowskiExtractor struct{ net *sparseconv.MinkowskiLike }

func (m *minkowskiExtractor) Name() string        { return string(KindMinkowski) }
func (m *minkowskiExtractor) Dim() int            { return m.net.OutDim() }
func (m *minkowskiExtractor) Params() []*nn.Param { return m.net.Params() }
func (m *minkowskiExtractor) Extract(t *nn.Tape, p *Pattern) (*nn.Grad, error) {
	sm, err := p.SparseMap()
	if err != nil {
		return nil, err
	}
	return m.net.Extract(t, cloneForPass(sm)), nil
}
func (m *minkowskiExtractor) ExtractInfer(a *nn.Arena, p *Pattern) ([]float32, error) {
	sm, err := p.SparseMap()
	if err != nil {
		return nil, err
	}
	return m.net.ExtractInfer(a, sm), nil
}

// denseConvExtractor is the prior-work baseline (§3.2.1): downsample the
// matrix to a fixed grid and run a conventional CNN over it.
type denseConvExtractor struct {
	grid  int
	convs []*sparseconv.Conv
	proj  *nn.MLP
	dim   int
}

func newDenseConvExtractor(cfg sparseconv.Config, rng *rand.Rand) *denseConvExtractor {
	d := &denseConvExtractor{grid: 32, dim: cfg.OutDim}
	cin := 1
	depth := 3
	if cfg.Depth < depth {
		depth = cfg.Depth
	}
	for i := 0; i < depth; i++ {
		d.convs = append(d.convs, sparseconv.NewConv(fmt.Sprintf("dense.conv%d", i), cfg.Dim, cin, cfg.Channels, 3, 2, rng))
		cin = cfg.Channels
	}
	d.proj = nn.NewMLP("dense.proj", []int{cfg.Channels, cfg.OutDim, cfg.OutDim}, rng)
	return d
}

func (d *denseConvExtractor) Name() string { return string(KindDenseConv) }
func (d *denseConvExtractor) Dim() int     { return d.dim }
func (d *denseConvExtractor) Params() []*nn.Param {
	var out []*nn.Param
	for _, c := range d.convs {
		out = append(out, c.Params()...)
	}
	return append(out, d.proj.Params()...)
}
func (d *denseConvExtractor) Extract(t *nn.Tape, p *Pattern) (*nn.Grad, error) {
	x := cloneForPass(p.Downsampled(d.grid))
	for _, c := range d.convs {
		x = sparseconv.ReLUMap(t, c.Apply(t, x))
	}
	return d.proj.Apply(t, sparseconv.GlobalAvgPool(t, x)), nil
}
func (d *denseConvExtractor) ExtractInfer(a *nn.Arena, p *Pattern) ([]float32, error) {
	x := p.Downsampled(d.grid)
	for _, c := range d.convs {
		x = sparseconv.ReLUMapInPlace(c.Infer(a, x))
	}
	pooled := a.Alloc(x.C)
	sparseconv.GlobalAvgPoolInto(pooled, x)
	return d.proj.Infer(a, pooled), nil
}

// humanExtractor feeds the hand-crafted statistics through an MLP.
type humanExtractor struct {
	mlp *nn.MLP
	dim int
}

func (h *humanExtractor) Name() string        { return string(KindHumanFeature) }
func (h *humanExtractor) Dim() int            { return h.dim }
func (h *humanExtractor) Params() []*nn.Param { return h.mlp.Params() }
func (h *humanExtractor) Extract(t *nn.Tape, p *Pattern) (*nn.Grad, error) {
	return h.mlp.Apply(t, nn.NewGrad(append([]float32(nil), p.HumanFeatures()...))), nil
}
func (h *humanExtractor) ExtractInfer(a *nn.Arena, p *Pattern) ([]float32, error) {
	// MLP.Infer never writes its input, so the cached feature vector is safe
	// to feed directly.
	return h.mlp.Infer(a, p.HumanFeatures()), nil
}

// cloneForPass shallow-copies a sparse map so per-pass gradient buffers do
// not accumulate across training steps; coordinates and the site index are
// shared, features are copied.
func cloneForPass(sm *sparseconv.SparseMap) *sparseconv.SparseMap {
	c := sm.ShallowClone()
	return c
}
