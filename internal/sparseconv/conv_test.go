package sparseconv

import (
	"math"
	"math/rand"
	"testing"

	"waco/internal/nn"
	"waco/internal/tensor"
)

func patternFromPoints(dims []int, pts [][]int32) *tensor.COO {
	c := tensor.NewCOO(dims, len(pts))
	for _, p := range pts {
		c.Append(1, p...)
	}
	return c
}

func TestKernelOffsets(t *testing.T) {
	if n := len(kernelOffsets(2, 3)); n != 9 {
		t.Fatalf("3x3 offsets = %d", n)
	}
	if n := len(kernelOffsets(2, 5)); n != 25 {
		t.Fatalf("5x5 offsets = %d", n)
	}
	if n := len(kernelOffsets(3, 3)); n != 27 {
		t.Fatalf("3x3x3 offsets = %d", n)
	}
}

func TestFromCOO(t *testing.T) {
	c := patternFromPoints([]int{8, 8}, [][]int32{{0, 0}, {3, 4}, {3, 4}, {7, 7}})
	sm, err := FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	if sm.NumSites() != 3 { // duplicate collapsed
		t.Fatalf("sites = %d, want 3", sm.NumSites())
	}
	if sm.Lookup([]int32{3, 4}) < 0 {
		t.Fatal("site missing")
	}
	if sm.Lookup([]int32{1, 1}) != -1 {
		t.Fatal("phantom site")
	}
	for _, f := range sm.F {
		if f != 1 {
			t.Fatalf("feature %g, want 1", f)
		}
	}
	bad := tensor.NewCOO([]int{2, 2, 2, 2}, 0)
	if _, err := FromCOO(bad); err == nil {
		t.Fatal("accepted order-4 tensor")
	}
	big := tensor.NewCOO([]int{1 << 22, 4}, 0)
	if _, err := FromCOO(big); err == nil {
		t.Fatal("accepted out-of-range extent")
	}
}

func TestDownsample(t *testing.T) {
	c := patternFromPoints([]int{100, 100}, [][]int32{{0, 0}, {1, 1}, {99, 99}})
	sm := Downsample(c, 4)
	if sm.NumSites() != 16 {
		t.Fatalf("grid sites = %d, want 16", sm.NumSites())
	}
	// Cell (0,0) holds two nonzeros -> log1p(2); cell (3,3) one -> log1p(1).
	s00 := sm.Lookup([]int32{0, 0})
	s33 := sm.Lookup([]int32{3, 3})
	if math.Abs(float64(sm.F[s00])-math.Log1p(2)) > 1e-6 {
		t.Fatalf("cell(0,0) = %g", sm.F[s00])
	}
	if math.Abs(float64(sm.F[s33])-math.Log1p(1)) > 1e-6 {
		t.Fatalf("cell(3,3) = %g", sm.F[s33])
	}
}

func TestSubmanifoldKeepsSites(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := patternFromPoints([]int{16, 16}, [][]int32{{1, 1}, {1, 2}, {9, 9}})
	sm, _ := FromCOO(c)
	conv := NewConv("c", 2, 1, 4, 3, 1, rng)
	out := conv.Apply(nil, sm)
	if out.NumSites() != sm.NumSites() {
		t.Fatalf("submanifold changed site count %d -> %d", sm.NumSites(), out.NumSites())
	}
	if out.C != 4 {
		t.Fatalf("channels %d", out.C)
	}
}

func TestStridedHalvesExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := patternFromPoints([]int{17, 16}, [][]int32{{0, 0}, {16, 15}})
	sm, _ := FromCOO(c)
	conv := NewConv("c", 2, 1, 2, 3, 2, rng)
	out := conv.Apply(nil, sm)
	if out.Extents[0] != 9 || out.Extents[1] != 8 {
		t.Fatalf("extents %v, want [9 8]", out.Extents)
	}
	for s := int32(0); s < int32(out.NumSites()); s++ {
		site := out.Site(s)
		if site[0] >= 9 || site[1] >= 8 {
			t.Fatalf("site %v outside output extents", site)
		}
	}
}

// Figure 8 reproduction: with stride-1 submanifold convolutions, two distant
// nonzeros never exchange information (the feature at one site is identical
// whether or not the other exists); a stride-2 stack collapses them into a
// shared site.
func TestReceptiveFieldGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{64, 64}
	lone := patternFromPoints(dims, [][]int32{{0, 0}})
	both := patternFromPoints(dims, [][]int32{{0, 0}, {40, 40}})

	// Stride-1 stack.
	conv1 := []*Conv{}
	rng1 := rand.New(rand.NewSource(4))
	for i := 0; i < 4; i++ {
		cin := 1
		if i > 0 {
			cin = 3
		}
		conv1 = append(conv1, NewConv("s1", 2, cin, 3, 3, 1, rng1))
	}
	run1 := func(c *tensor.COO) *SparseMap {
		sm, _ := FromCOO(c)
		for _, cv := range conv1 {
			sm = ReLUMap(nil, cv.Apply(nil, sm))
		}
		return sm
	}
	outLone, outBoth := run1(lone), run1(both)
	sL := outLone.Lookup([]int32{0, 0})
	sB := outBoth.Lookup([]int32{0, 0})
	for ch := 0; ch < 3; ch++ {
		if outLone.F[int(sL)*3+ch] != outBoth.F[int(sB)*3+ch] {
			t.Fatal("stride-1 stack propagated information between distant nonzeros")
		}
	}

	// Stride-2 stack: after 6 halvings, 64x64 -> 1x1, both sites merge.
	sm, _ := FromCOO(both)
	x := sm
	rng2 := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		cin := 1
		if i > 0 {
			cin = 3
		}
		cv := NewConv("s2", 2, cin, 3, 3, 2, rng2)
		x = cv.Apply(nil, x)
	}
	if x.NumSites() != 1 {
		t.Fatalf("strided stack final sites = %d, want 1 (merged)", x.NumSites())
	}
	_ = rng
}

func convGradCheck(t *testing.T, stride int) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	c := patternFromPoints([]int{6, 6}, [][]int32{{0, 0}, {0, 1}, {2, 3}, {5, 5}})
	sm, _ := FromCOO(c)
	conv := NewConv("g", 2, 1, 2, 3, stride, rng)

	loss := func(tape *nn.Tape) float32 {
		in := sm.ShallowClone()
		out := conv.Apply(tape, in)
		var s float32
		for i, v := range out.F {
			s += v * v
			if tape != nil {
				out.D[i] = 2 * v
			}
		}
		return s
	}
	var tape nn.Tape
	loss(&tape)
	tape.Backward()
	for _, p := range conv.Params() {
		for i := range p.W {
			const h = 1e-3
			orig := p.W[i]
			p.W[i] = orig + h
			lp := float64(loss(nil))
			p.W[i] = orig - h
			lm := float64(loss(nil))
			p.W[i] = orig
			want := (lp - lm) / (2 * h)
			got := float64(p.G[i])
			if math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
				t.Fatalf("stride %d %s[%d]: analytic %g numeric %g", stride, p.Name, i, got, want)
			}
		}
	}
}

func TestConvGradientCheckSubmanifold(t *testing.T) { convGradCheck(t, 1) }
func TestConvGradientCheckStrided(t *testing.T)     { convGradCheck(t, 2) }

func TestGlobalAvgPoolGradient(t *testing.T) {
	c := patternFromPoints([]int{4, 4}, [][]int32{{0, 0}, {1, 1}})
	sm, _ := FromCOO(c)
	var tape nn.Tape
	y := GlobalAvgPool(&tape, sm)
	if math.Abs(float64(y.V[0])-1) > 1e-6 {
		t.Fatalf("mean of ones = %g", y.V[0])
	}
	y.D[0] = 2
	tape.Backward()
	for s := 0; s < 2; s++ {
		if sm.D[s] != 1 { // 2 * 1/2
			t.Fatalf("pool gradient %v", sm.D)
		}
	}
	// Empty map pools to zeros.
	empty, _ := FromCOO(tensor.NewCOO([]int{4, 4}, 0))
	z := GlobalAvgPool(nil, empty)
	if z.V[0] != 0 {
		t.Fatal("empty pool nonzero")
	}
}

func TestWACONetShapesAndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Dim: 2, Channels: 4, Depth: 3, FirstKernel: 3, OutDim: 8}
	net := NewWACONet(cfg, rng)
	c := patternFromPoints([]int{32, 32}, [][]int32{{0, 0}, {5, 7}, {20, 20}, {31, 31}})
	sm, _ := FromCOO(c)
	var tape nn.Tape
	feat := net.Extract(&tape, sm)
	if len(feat.V) != 8 {
		t.Fatalf("feature dim %d", len(feat.V))
	}
	for i := range feat.D {
		feat.D[i] = 1
	}
	tape.Backward()
	var nonzero int
	for _, p := range net.Params() {
		for _, g := range p.G {
			if math.IsNaN(float64(g)) || math.IsInf(float64(g), 0) {
				t.Fatal("bad gradient")
			}
			if g != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no gradient reached parameters")
	}
}

func TestWACONetDeterministic(t *testing.T) {
	cfg := Config{Dim: 2, Channels: 4, Depth: 2, FirstKernel: 3, OutDim: 6}
	c := patternFromPoints([]int{16, 16}, [][]int32{{0, 0}, {3, 3}, {9, 12}})
	a := NewWACONet(cfg, rand.New(rand.NewSource(8)))
	b := NewWACONet(cfg, rand.New(rand.NewSource(8)))
	smA, _ := FromCOO(c)
	smB, _ := FromCOO(c)
	fa := a.Extract(nil, smA)
	fb := b.Extract(nil, smB)
	for i := range fa.V {
		if fa.V[i] != fb.V[i] {
			t.Fatal("same seed produced different features")
		}
	}
}

func TestMinkowskiLike(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := Config{Dim: 2, Channels: 4, Depth: 2, FirstKernel: 3, OutDim: 6}
	net := NewMinkowskiLike(cfg, rng)
	c := patternFromPoints([]int{16, 16}, [][]int32{{0, 0}, {3, 3}})
	sm, _ := FromCOO(c)
	var tape nn.Tape
	feat := net.Extract(&tape, sm)
	if len(feat.V) != 6 {
		t.Fatalf("feature dim %d", len(feat.V))
	}
	for i := range feat.D {
		feat.D[i] = 1
	}
	tape.Backward()
	if len(net.Params()) == 0 {
		t.Fatal("no params")
	}
}

func TestWACONet3D(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := Config{Dim: 3, Channels: 3, Depth: 2, FirstKernel: 3, OutDim: 5}
	net := NewWACONet(cfg, rng)
	c := tensor.NewCOO([]int{16, 16, 8}, 3)
	c.Append(1, 0, 0, 0)
	c.Append(1, 5, 5, 5)
	c.Append(1, 15, 15, 7)
	sm, err := FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	feat := net.Extract(nil, sm)
	if len(feat.V) != 5 {
		t.Fatalf("3-D feature dim %d", len(feat.V))
	}
}

// TestGeometrySharedAcrossPaths: the tape path, its clones and the forward
// path read one geometry per coordinate set, built once, and agree bit for
// bit. With FirstKernel 3 every MinkowskiLike layer has the same (kernel,
// stride), so one rulebook serves them all and a layer's forward input is
// that rulebook's previous output header.
func TestGeometrySharedAcrossPaths(t *testing.T) {
	c := patternFromPoints([]int{24, 20}, [][]int32{{0, 0}, {0, 1}, {1, 1}, {5, 7}, {6, 7}, {23, 19}, {12, 3}, {12, 4}})
	for _, k := range []int{3, 5} {
		cfg := Config{Dim: 2, Channels: 3, Depth: 3, FirstKernel: k, OutDim: 4}
		mink := NewMinkowskiLike(cfg, rand.New(rand.NewSource(12)))
		wnet := NewWACONet(cfg, rand.New(rand.NewSource(13)))
		sm, _ := FromCOO(c)
		var a nn.Arena
		for pass := 0; pass < 2; pass++ {
			a.Reset()
			equalFloats(t, "minkowski", mink.ExtractInfer(&a, sm), mink.Extract(nil, sm.ShallowClone()).V)
			a.Reset()
			equalFloats(t, "waconet", wnet.ExtractInfer(&a, sm), wnet.Extract(nil, sm.ShallowClone()).V)
		}
		// One stride-1 geometry per distinct kernel, one strided for WACONet.
		want := 2
		if k == 3 {
			want = 1
		}
		stride1 := 0
		for _, cg := range sm.geo.convs {
			if cg.stride == 1 {
				stride1++
				if cg.out != sm.geo {
					t.Fatal("stride-1 output does not share its input's geometry")
				}
			}
		}
		if stride1 != want || len(sm.geo.convs) != want+1 {
			t.Fatalf("kernel %d: %d cached geometries (%d stride-1), want %d stride-1 plus one strided",
				k, len(sm.geo.convs), stride1, want)
		}
	}
}

func equalFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}
