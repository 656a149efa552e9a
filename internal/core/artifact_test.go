package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"time"

	"waco/internal/costmodel"
	"waco/internal/generate"
	"waco/internal/schedule"
)

func TestArtifactRoundTrip(t *testing.T) {
	cfg := quickConfig(schedule.SpMM)
	tuner, _, err := Build(testCorpus(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tuner.BuildSeconds <= 0 {
		t.Fatal("BuildSeconds not recorded")
	}

	var buf bytes.Buffer
	if err := SaveTuner(&buf, tuner); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTuner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.BuildSeconds != tuner.BuildSeconds {
		t.Fatalf("BuildSeconds %v != %v", loaded.BuildSeconds, tuner.BuildSeconds)
	}
	if len(loaded.Index.Schedules) != len(tuner.Index.Schedules) {
		t.Fatalf("loaded %d schedules, want %d", len(loaded.Index.Schedules), len(tuner.Index.Schedules))
	}

	// The ANNS retrieval must be identical: same embeddings, same graph, same
	// model weights, so the same candidates in the same order.
	rng := rand.New(rand.NewSource(42))
	coo := generate.Uniform(rng, 96, 96, 1200)
	p1 := costmodel.NewPattern(coo)
	p2 := costmodel.NewPattern(coo)
	r1, err := tuner.Index.Search(context.Background(), p1, 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.Index.Search(context.Background(), p2, 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Candidates) != len(r2.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(r1.Candidates), len(r2.Candidates))
	}
	for i := range r1.Candidates {
		if r1.Candidates[i].SS.String() != r2.Candidates[i].SS.String() {
			t.Fatalf("candidate %d differs:\n  %s\n  %s", i,
				r1.Candidates[i].SS, r2.Candidates[i].SS)
		}
		if r1.Candidates[i].Cost != r2.Candidates[i].Cost {
			t.Fatalf("candidate %d cost differs: %v vs %v", i,
				r1.Candidates[i].Cost, r2.Candidates[i].Cost)
		}
	}

	// And the loaded tuner must tune end to end.
	tuned, err := loaded.TuneTensor(coo)
	if err != nil {
		t.Fatal(err)
	}
	if err := tuned.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTunerRejectsBadInput(t *testing.T) {
	if _, err := LoadTuner(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
	if _, err := LoadTuner(bytes.NewReader([]byte("JUNKJUNKJUNKJUNK"))); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Any envelope version but the current one is refused with a pointer to
	// re-sealing, before its payload is decoded.
	v2 := binary.LittleEndian.AppendUint32([]byte(artifactMagic), 2)
	if _, err := LoadTuner(bytes.NewReader(v2)); err == nil || !strings.Contains(err.Error(), "re-seal") {
		t.Fatalf("version-2 header: got %v, want a re-seal error", err)
	}
}

func TestTuneContextCancellation(t *testing.T) {
	cfg := quickConfig(schedule.SpMM)
	tuner, _, err := Build(testCorpus(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(13))
	coo := generate.Uniform(rng, 96, 96, 1000)
	if _, err := tuner.TuneTensorContext(ctx, coo); err == nil {
		t.Fatal("cancelled tune returned no error")
	}

	// An ample deadline must not interfere.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := tuner.TuneTensorContext(ctx2, coo); err != nil {
		t.Fatal(err)
	}
}
