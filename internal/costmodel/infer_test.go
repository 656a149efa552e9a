package costmodel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"waco/internal/generate"
	"waco/internal/nn"
	"waco/internal/schedule"
)

// equalBits fails the test if two float32 vectors differ in any bit.
func equalBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %#08x), want %v (bits %#08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestInferParityAllExtractors pins the tentpole guarantee: the forward-only
// path (arena scratch, no tape) produces bit-identical features, embeddings,
// and predictions to the tape path, for every extractor kind, both with a nil
// tape and with a live recording tape.
func TestInferParityAllExtractors(t *testing.T) {
	alg := schedule.SpMM
	rng := rand.New(rand.NewSource(11))
	coo := generate.Uniform(rng, 96, 80, 600)
	for _, kind := range ExtractorKinds {
		t.Run(string(kind), func(t *testing.T) {
			m := tinyModel(t, alg, kind)
			p := NewPattern(coo)
			b := NewInferBuffers()
			srng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 5; trial++ {
				ss := m.Space.Sample(srng)

				featTape, err := m.Extractor.Extract(nil, p)
				if err != nil {
					t.Fatal(err)
				}
				b.Reset()
				featFwd, err := m.ExtractInfer(b, p)
				if err != nil {
					t.Fatal(err)
				}
				equalBits(t, "feature", featFwd, featTape.V)

				embTape := m.Embedder.EmbedSchedule(nil, ss)
				embFwd := m.EmbedScheduleInfer(b, ss)
				equalBits(t, "embedding", embFwd, embTape.V)

				wantNil := float64(m.PredictWith(nil, featTape, embTape).V[0])
				var tape nn.Tape
				wantTape, err := m.Predict(&tape, p, ss)
				if err != nil {
					t.Fatal(err)
				}
				got := m.PredictHead(b, featFwd, embFwd)
				if got != wantNil {
					t.Fatalf("PredictHead = %v, nil-tape PredictWith = %v", got, wantNil)
				}
				if float64(wantTape.V[0]) != wantNil {
					t.Fatalf("recording-tape Predict = %v, nil-tape = %v", wantTape.V[0], wantNil)
				}
				cost, err := m.CostWith(b, p, ss)
				if err != nil {
					t.Fatal(err)
				}
				if cost != wantNil {
					t.Fatalf("CostWith = %v, want %v", cost, wantNil)
				}
			}
		})
	}
}

// TestInferParityAfterSaveLoad verifies the forward-only path of a reloaded
// model matches the tape path of the original model bit for bit, so sealed
// artifacts served forward-only rank schedules exactly as trained.
func TestInferParityAfterSaveLoad(t *testing.T) {
	alg := schedule.SpMM
	m := tinyModel(t, alg, KindWACONet)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(21))
	coo := generate.Uniform(rng, 64, 64, 400)
	srng := rand.New(rand.NewSource(22))
	b := NewInferBuffers()
	for trial := 0; trial < 4; trial++ {
		ss := m.Space.Sample(srng)
		want, err := m.Predict(nil, NewPattern(coo), ss)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.CostWith(b, NewPattern(coo), ss)
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(want.V[0]) {
			t.Fatalf("trial %d: loaded forward-only = %v, original tape = %v", trial, got, want.V[0])
		}
	}
}

// TestPredictHeadIntoMatchesPredictWith pins the batched entry point against
// per-candidate tape evaluation and checks the head-eval accounting.
func TestPredictHeadIntoMatchesPredictWith(t *testing.T) {
	alg := schedule.SpMM
	m := tinyModel(t, alg, KindHumanFeature)
	rng := rand.New(rand.NewSource(31))
	coo := generate.Uniform(rng, 64, 64, 300)
	p := NewPattern(coo)

	feat, err := m.Extractor.Extract(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 9
	embs := make([][]float32, batch)
	want := make([]float64, batch)
	srng := rand.New(rand.NewSource(32))
	for i := range embs {
		eg := m.Embedder.EmbedSchedule(nil, m.Space.Sample(srng))
		embs[i] = eg.V
		want[i] = float64(m.PredictWith(nil, feat, eg).V[0])
	}

	b := NewInferBuffers()
	b.Reset()
	featFwd, err := m.ExtractInfer(b, p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, batch)
	before := m.HeadEvals()
	m.PredictHeadInto(b, featFwd, embs, out)
	if got := m.HeadEvals() - before; got != batch {
		t.Fatalf("batched scoring counted %d head evals, want %d", got, batch)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("batch element %d = %v, want %v", i, out[i], want[i])
		}
	}
}

// TestPrepareInvalidatedByArenaReset is the regression test for the stale
// prepared-head memoization bug: prepare memoized the hoisted layer-0 feature
// partial on (model, feature address, feature length) alone. Features live on
// the buffer's arena, and an arena reset recycles addresses, so a NEW feature
// written after a reset can land exactly where the old one was — and the head
// kept scoring every candidate with the OLD feature's partial. The fix keys
// the memo on the arena generation, which Reset bumps.
//
// The test allocates the feature from the arena directly (the first
// allocation after a reset always reuses the same address), which reproduces
// the aliasing deterministically — the same shape extractors hit when
// consecutive same-sized patterns recycle one buffer.
func TestPrepareInvalidatedByArenaReset(t *testing.T) {
	alg := schedule.SpMM
	m := tinyModel(t, alg, KindHumanFeature)
	featDim := headIn(m) - m.Cfg.EmbDim
	srng := rand.New(rand.NewSource(52))
	ss := m.Space.Sample(srng)

	b := NewInferBuffers()
	b.Reset()
	emb := append([]float32(nil), m.EmbedScheduleInfer(b, ss)...)

	fill := func(dst []float32, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := range dst {
			dst[i] = rng.Float32()*2 - 1
		}
	}
	// Oracle: each feature scored with a fresh buffer set.
	oracle := func(seed int64) float64 {
		fb := NewInferBuffers()
		fb.Reset()
		feat := fb.Arena().Alloc(featDim)
		fill(feat, seed)
		return m.PredictHead(fb, feat, emb)
	}
	want1, want2 := oracle(53), oracle(54)
	if want1 == want2 {
		t.Fatal("test features score identically; pick different seeds")
	}

	b.Reset()
	feat1 := b.Arena().Alloc(featDim)
	fill(feat1, 53)
	if got := m.PredictHead(b, feat1, emb); got != want1 {
		t.Fatalf("first feature scored %v, want %v", got, want1)
	}

	// Reset the arena WITHOUT clearing the buffer's memo fields — the
	// recycling path a caller holding only the arena can legitimately take.
	b.Arena().Reset()
	feat2 := b.Arena().Alloc(featDim)
	fill(feat2, 54)
	if &feat2[0] != &feat1[0] {
		t.Fatal("arena did not recycle the first allocation's address; fixture broken")
	}
	if got := m.PredictHead(b, feat2, emb); got != want2 {
		t.Fatalf("after arena reset, second feature scored %v (stale prepared head), want %v", got, want2)
	}
}

// TestInferSteadyStateAllocs verifies the forward-only query path reaches
// zero heap allocations once the arena has warmed up.
func TestInferSteadyStateAllocs(t *testing.T) {
	alg := schedule.SpMM
	m := tinyModel(t, alg, KindWACONet)
	rng := rand.New(rand.NewSource(41))
	coo := generate.Uniform(rng, 96, 96, 700)
	p := NewPattern(coo)
	srng := rand.New(rand.NewSource(42))
	b := NewInferBuffers()
	// Stored embeddings, copied off the arena — the shape of the search index,
	// whose query path scores precomputed embeddings against a fresh feature.
	embs := make([][]float32, 8)
	for i := range embs {
		b.Reset()
		embs[i] = append([]float32(nil), m.EmbedScheduleInfer(b, m.Space.Sample(srng))...)
	}
	out := make([]float64, len(embs))

	cycle := func() {
		b.Reset()
		feat, err := m.ExtractInfer(b, p)
		if err != nil {
			t.Fatal(err)
		}
		m.PredictHeadInto(b, feat, embs, out)
	}
	cycle() // warmup: arena and geometry caches size themselves

	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Fatalf("steady-state forward-only query path allocates %.1f times per cycle, want 0", allocs)
	}
}

func headIn(m *Model) int {
	if len(m.Head.Layers) == 0 {
		return 0
	}
	return m.Head.Layers[0].In
}
