package serve

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"waco/internal/obslog"
)

// TestTunesFeedObservationLog: every actual search appends one measurement
// record per probed candidate — cache hits re-deliver without logging — and
// the records carry the serving artifact's stamp and rebuild the tuned
// pattern. Per-candidate records matter: they are what makes a replayed
// entry rankable (>= 2 samples to train on, >= 3 to gate on).
func TestTunesFeedObservationLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.log")
	l, err := obslog.Open(path, obslog.Options{Host: "test"})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{ObsLog: l})

	coo := testMatrix(41)
	if _, err := s.Tune(context.Background(), coo); err != nil {
		t.Fatal(err)
	}
	recsPerTune := int(l.Appended())
	if recsPerTune < 1 {
		t.Fatal("first tune logged nothing")
	}
	// Cached replay: no new records.
	if res, err := s.Tune(context.Background(), testMatrix(41)); err != nil || !res.Cached {
		t.Fatalf("expected cached result, got %+v err %v", res, err)
	}
	if got := int(l.Appended()); got != recsPerTune {
		t.Fatalf("cached replay grew the log: %d -> %d records", recsPerTune, got)
	}
	if _, err := s.Tune(context.Background(), testMatrix(42)); err != nil {
		t.Fatal(err)
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot()
	if st.ObsLogRecords != l.Appended() || st.ObsLogDropped != 0 {
		t.Fatalf("stats report %d records, %d dropped; want %d, 0", st.ObsLogRecords, st.ObsLogDropped, l.Appended())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := obslog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(l.Appended()) {
		t.Fatalf("log holds %d records, writer appended %d", len(recs), l.Appended())
	}
	stamp := s.Artifact().Stamp
	fps := make(map[string]int)
	scheds := make(map[string]map[string]bool)
	for i, rec := range recs {
		if rec.Fingerprint == "" || rec.Seconds <= 0 || rec.Host != "test" {
			t.Fatalf("record %d is degenerate: %+v", i, rec)
		}
		if rec.Stamp != stamp {
			t.Fatalf("record %d stamp %q, serving artifact %q", i, rec.Stamp, stamp)
		}
		back, err := rec.COO()
		if err != nil {
			t.Fatal(err)
		}
		if Fingerprint(back) != rec.Fingerprint {
			t.Fatalf("record %d pattern does not round-trip its fingerprint", i)
		}
		fps[rec.Fingerprint]++
		if scheds[rec.Fingerprint] == nil {
			scheds[rec.Fingerprint] = make(map[string]bool)
		}
		scheds[rec.Fingerprint][rec.Schedule.String()] = true
	}
	if len(fps) != 2 {
		t.Fatalf("log covers %d fingerprints, want 2 (one per actual search)", len(fps))
	}
	if fps[Fingerprint(coo)] != recsPerTune {
		t.Fatalf("first matrix holds %d records, first tune appended %d", fps[Fingerprint(coo)], recsPerTune)
	}
	if recsPerTune > 1 && len(scheds[Fingerprint(coo)]) < 2 {
		t.Fatalf("%d records for one pattern share a single schedule — candidates were not logged",
			recsPerTune)
	}
	if recs[0].Fingerprint != Fingerprint(coo) {
		t.Fatalf("first record is %q, want the first tuned matrix", recs[0].Fingerprint)
	}
}

// TestHardDrainFlushesObsLog: a Close whose deadline has passed still
// forces buffered measurements to disk before it returns ctx's error, with
// a tune stuck in flight. The burst appended just before Close is large
// enough that the log's writer is still working through it unless Close
// waits on the flush barrier.
func TestHardDrainFlushesObsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.log")
	l, err := obslog.Open(path, obslog.Options{Host: "test", Buffer: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := newTestServer(t, Options{MaxWorkers: 1, ObsLog: l})

	// A tune queued behind a wedged pool: the drain cannot finish.
	release := blockPool(t, s)
	defer release()
	tuneCtx, cancelTune := context.WithCancel(context.Background())
	defer cancelTune()
	tuneErr := make(chan error, 1)
	go func() {
		_, err := s.Tune(tuneCtx, testMatrix(60))
		tuneErr <- err
	}()
	waitFor(t, func() bool { return s.QueueDepth() >= 1 })

	coo := testMatrix(61)
	rec := obslog.Record{
		Fingerprint: Fingerprint(coo),
		Dims:        coo.Dims,
		Coords:      coo.Coords,
		Schedule:    s.Tuner().Index.Schedules[0],
		Seconds:     1e-3,
	}
	for i := 0; i < 128; i++ {
		if !l.Append(rec) {
			t.Fatalf("append %d dropped", i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already missed: hard drain
	if err := s.Close(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("hard drain err = %v, want context.Canceled", err)
	}
	recs, err := obslog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(l.Appended()) {
		t.Fatalf("hard drain returned with %d of %d appended records on disk", len(recs), l.Appended())
	}

	cancelTune()
	if err := <-tuneErr; err == nil {
		t.Fatal("tune queued behind a wedged pool succeeded after its context ended")
	}
}
