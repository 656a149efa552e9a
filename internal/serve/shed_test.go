package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// blockPool occupies every worker slot so subsequent requests queue, and
// returns a release func. Tests use it to build deterministic queue depth.
func blockPool(t *testing.T, s *Server) (release func()) {
	t.Helper()
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < cap(s.sem); i++ {
				<-s.sem
			}
		})
	}
}

// TestShedByPriorityClass: with the pool wedged, cold tunes shed at a
// lower queue depth than predicts, and cached answers are never shed —
// the priority order the backpressure design promises.
func TestShedByPriorityClass(t *testing.T) {
	s := newTestServer(t, Options{
		MaxWorkers:       1,
		ShedTuneQueue:    1,
		ShedPredictQueue: 3,
	})
	// Warm the cache while the pool is free.
	warm := testMatrix(300)
	if _, err := s.Tune(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	release := blockPool(t, s)
	defer release()

	// Park one request in the queue so depth >= ShedTuneQueue.
	parked, parkCancel := context.WithCancel(context.Background())
	defer parkCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Queued behind the wedged pool until the test cancels it.
		_, _ = s.Tune(parked, testMatrix(301))
	}()
	waitFor(t, func() bool { return s.QueueDepth() >= 1 })

	// Cold tune sheds at depth 1...
	if _, err := s.Tune(context.Background(), testMatrix(302)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cold tune at shed depth: err = %v, want ErrOverloaded", err)
	}
	// ...but the cached matrix is still answered: cached work sheds last.
	res, err := s.Tune(context.Background(), warm)
	if err != nil || !res.Cached {
		t.Fatalf("cached tune during overload: res=%+v err=%v, want cached hit", res, err)
	}
	// Predict has headroom left at this depth (its threshold is higher) —
	// it queues rather than shedding, so give it a context we can abandon.
	predCtx, predCancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Predict(predCtx, testMatrix(303), 2)
	}()
	waitFor(t, func() bool { return s.QueueDepth() >= 2 })
	predCancel()

	parkCancel()
	wg.Wait()

	st := s.Snapshot()
	if st.ShedTune == 0 {
		t.Fatalf("shed_tune = 0 after a shed tune: %+v", st)
	}
	if st.ShedPredict != 0 {
		t.Fatalf("predict shed below its threshold: %+v", st)
	}
}

// TestShedHTTPRetryAfter: a shed tune surfaces as 503 with a Retry-After
// header estimated from queue depth.
func TestShedHTTPRetryAfter(t *testing.T) {
	s := newTestServer(t, Options{MaxWorkers: 1, ShedTuneQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := blockPool(t, s)
	defer release()

	// Queue one request so depth > 0, then hit the shed threshold.
	parked, parkCancel := context.WithCancel(context.Background())
	defer parkCancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = s.Predict(parked, testMatrix(310), 2)
	}()
	waitFor(t, func() bool { return s.QueueDepth() >= 1 })

	body := tuneBody(t, testMatrix(311))
	resp, err := http.Post(ts.URL+"/v1/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed tune over HTTP: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 without a usable Retry-After (%q)", ra)
	}
	parkCancel()
	<-done
}

// TestDrainSplitsHealthzFromReadyz: BeginDrain turns readiness off while
// liveness stays on — the load balancer stops sending new work, the orchestrator
// does not kill the pod mid-drain.
func TestDrainSplitsHealthzFromReadyz(t *testing.T) {
	s := newTestServer(t, Options{MaxWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	probe := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := probe("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d, want 200", resp.StatusCode)
	}
	s.BeginDrain()
	if resp := probe("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200 (still alive)", resp.StatusCode)
	}
	resp := probe("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz 503 without Retry-After")
	}
	if st := s.Snapshot(); !st.Draining {
		t.Fatal("stats do not report draining")
	}
	// Requests already admitted keep working through the drain window.
	if _, err := s.Tune(context.Background(), testMatrix(320)); err != nil {
		t.Fatalf("tune during drain (pre-close): %v", err)
	}
}

// TestDrainLetsRunningTunesFinish is the graceful half of the drain
// contract: Close waits for an admitted tune, refuses new work from the
// moment it starts, and returns nil once the tune has finished with its
// answer.
func TestDrainLetsRunningTunesFinish(t *testing.T) {
	s := newTestServer(t, Options{MaxWorkers: 1})
	release := blockPool(t, s)
	defer release()

	type outcome struct {
		res *TuneResult
		err error
	}
	tuned := make(chan outcome, 1)
	go func() {
		res, err := s.Tune(context.Background(), testMatrix(50))
		tuned <- outcome{res, err}
	}()
	waitFor(t, func() bool { return s.QueueDepth() >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- s.Close(ctx) }()
	waitFor(t, s.Draining)

	if _, err := s.Tune(context.Background(), testMatrix(51)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("tune during drain: err = %v, want ErrShuttingDown", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a tune still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	if got := <-tuned; got.err != nil || got.res == nil || got.res.Schedule == "" {
		t.Fatalf("in-flight tune across drain: res=%+v err=%v", got.res, got.err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("drain did not finish: %v", err)
	}
	if _, err := s.Predict(context.Background(), testMatrix(52), 2); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("predict after drain: err = %v, want ErrShuttingDown", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
