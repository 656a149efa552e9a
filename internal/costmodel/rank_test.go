package costmodel

import (
	"math"
	"testing"

	"waco/internal/schedule"
)

func TestSpearmanProperties(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if rho := Spearman(a, b); math.Abs(rho-1) > 1e-12 {
		t.Fatalf("monotone vectors: rho = %v, want 1", rho)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if rho := Spearman(a, rev); math.Abs(rho+1) > 1e-12 {
		t.Fatalf("reversed vectors: rho = %v, want -1", rho)
	}
	flat := []float64{7, 7, 7, 7, 7}
	if rho := Spearman(a, flat); rho != 0 {
		t.Fatalf("constant vector: rho = %v, want 0 (order undefined)", rho)
	}
	if rho := Spearman(a, a[:3]); rho != 0 {
		t.Fatalf("length mismatch: rho = %v, want 0", rho)
	}
	// Ties share averaged ranks: {1,1,2} vs {3,3,4} is still perfectly
	// concordant.
	if rho := Spearman([]float64{1, 1, 2}, []float64{3, 3, 4}); math.Abs(rho-1) > 1e-12 {
		t.Fatalf("tied concordant vectors: rho = %v, want 1", rho)
	}
}

func TestRankQualityMeasuresOrdering(t *testing.T) {
	entries := syntheticEntries(t, 3)
	m := tinyModel(t, schedule.SpMM, KindHumanFeature)
	rho, err := RankQuality(m, entries)
	if err != nil {
		t.Fatal(err)
	}
	if rho < -1 || rho > 1 {
		t.Fatalf("rank quality %v outside [-1, 1]", rho)
	}
	// Deterministic: same model, same entries, same score.
	again, err := RankQuality(m, entries)
	if err != nil {
		t.Fatal(err)
	}
	if rho != again {
		t.Fatalf("rank quality not deterministic: %v vs %v", rho, again)
	}
	// Entries too small to rank are rejected, not silently scored.
	for _, e := range entries {
		e.Samples = e.Samples[:2]
	}
	if _, err := RankQuality(m, entries); err == nil {
		t.Fatal("expected error with <3 samples per entry")
	}
}

// TestHeadOnlyFreezesBackbone pins the COGNATE transfer contract: HeadOnly
// training must leave every extractor and embedder weight bit-identical
// (so precomputed index embeddings stay valid) while still moving the head.
func TestHeadOnlyFreezesBackbone(t *testing.T) {
	entries := syntheticEntries(t, 3)
	m := tinyModel(t, schedule.SpMM, KindHumanFeature)

	frozenBefore := make(map[string][]float32)
	for _, p := range m.Extractor.Params() {
		frozenBefore[p.Name] = append([]float32(nil), p.W...)
	}
	for _, p := range m.Embedder.Params() {
		frozenBefore[p.Name] = append([]float32(nil), p.W...)
	}
	headBefore := make(map[string][]float32)
	for _, p := range m.Head.Params() {
		headBefore[p.Name] = append([]float32(nil), p.W...)
	}

	cfg := TrainConfig{Epochs: 3, PairsPerMatrix: 8, LR: 1e-2, Seed: 1, Loss: LossRank, HeadOnly: true, BatchMatrices: 2}
	if _, err := Train(m, entries, nil, cfg); err != nil {
		t.Fatal(err)
	}

	for _, p := range append(m.Extractor.Params(), m.Embedder.Params()...) {
		for j, w := range p.W {
			if w != frozenBefore[p.Name][j] {
				t.Fatalf("frozen parameter %q moved at %d: %v -> %v", p.Name, j, frozenBefore[p.Name][j], w)
			}
		}
		for j, g := range p.G {
			if g != 0 {
				t.Fatalf("frozen parameter %q has residual gradient at %d: %v", p.Name, j, g)
			}
		}
	}
	moved := false
	for _, p := range m.Head.Params() {
		for j, w := range p.W {
			if w != headBefore[p.Name][j] {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("HeadOnly training did not move any head weight")
	}
}

// TestHeadOnlyDeterministicAcrossWorkers: the determinism contract holds in
// transfer mode too — worker count must not change the result.
func TestHeadOnlyDeterministicAcrossWorkers(t *testing.T) {
	entries := syntheticEntries(t, 3)
	cfg := TrainConfig{Epochs: 2, PairsPerMatrix: 8, LR: 1e-2, Seed: 5, Loss: LossRank, HeadOnly: true, BatchMatrices: 3}

	run := func(workers int) []float32 {
		m := tinyModel(t, schedule.SpMM, KindHumanFeature)
		c := cfg
		c.Workers = workers
		if _, err := Train(m, entries, nil, c); err != nil {
			t.Fatal(err)
		}
		var flat []float32
		for _, p := range m.Params() {
			flat = append(flat, p.W...)
		}
		return flat
	}
	w1, w4 := run(1), run(4)
	for i := range w1 {
		if w1[i] != w4[i] {
			t.Fatalf("weight %d differs across worker counts: %v vs %v", i, w1[i], w4[i])
		}
	}
}
