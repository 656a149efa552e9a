package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"waco/internal/core"
)

// sealedArtifact writes the shared quick tuner to a temp file the way
// waco-train -artifact would, returning the path.
func sealedArtifact(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spmm.tuner")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveTuner(f, quickTuner(t)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func newArtifactServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	path := sealedArtifact(t)
	tuner, err := core.LoadTunerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.ArtifactPath = path
	s, err := NewServer(tuner, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// TestReloadUnderLoad is the acceptance criterion for hot reload: while
// tune and predict traffic is running, /admin/reload swaps the artifact
// several times and not a single in-flight request fails. In-flight
// requests pin the tuner pointer once at entry and finish on it; new
// requests pick up the swapped one.
func TestReloadUnderLoad(t *testing.T) {
	s, _ := newArtifactServer(t, Options{
		MaxWorkers: 4,
		// Shedding off: this test measures swap correctness, not admission.
		ShedTuneQueue:    -1,
		ShedPredictQueue: -1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A small rotating set of matrices: reloads flush the cache,
				// so the mix exercises both hit and miss paths mid-swap.
				coo := testMatrix(int64(200 + (w+i)%6))
				var err error
				if w%2 == 0 {
					_, err = s.Tune(context.Background(), coo)
				} else {
					_, err = s.Predict(context.Background(), coo, 2)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	const reloads = 3
	for i := 0; i < reloads; i++ {
		time.Sleep(15 * time.Millisecond)
		resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("request failed across reload: %v", err)
	}

	st := s.Snapshot()
	if st.ArtifactVersion != 1+reloads {
		t.Fatalf("artifact version = %d, want %d", st.ArtifactVersion, 1+reloads)
	}
	if st.Reloads != reloads {
		t.Fatalf("reload counter = %d, want %d", st.Reloads, reloads)
	}
	if st.ArtifactStamp == "" || len(st.ArtifactStamp) != 64 {
		t.Fatalf("artifact stamp %q is not a sha256 hex digest", st.ArtifactStamp)
	}
}

// TestReloadFailureKeepsOldArtifact: a bad artifact path 500s and the
// previous tuner keeps serving at its previous version — reload is
// all-or-nothing.
func TestReloadFailureKeepsOldArtifact(t *testing.T) {
	s, _ := newArtifactServer(t, Options{MaxWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := s.Artifact()
	body := bytes.NewBufferString(`{"artifact": "/nonexistent/nope.tuner"}`)
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("bad artifact path: status %d, want 500", resp.StatusCode)
	}
	after := s.Artifact()
	if after.Version != before.Version || after.Stamp != before.Stamp {
		t.Fatalf("failed reload changed the artifact: %+v -> %+v", before, after)
	}
	if _, err := s.Tune(context.Background(), testMatrix(7)); err != nil {
		t.Fatalf("server not serving after failed reload: %v", err)
	}

	// Malformed body is the client's fault, not a reload attempt.
	resp, err = http.Post(ts.URL+"/admin/reload", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown reload field: status %d, want 400", resp.StatusCode)
	}
}

// TestReloadValidation: a tuner without a model/index, or for a different
// algorithm, is rejected before anything is swapped.
func TestReloadValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	if _, err := s.Reload(nil); err == nil {
		t.Fatal("reload accepted a nil tuner")
	}
	if _, err := s.Reload(&core.Tuner{}); err == nil {
		t.Fatal("reload accepted a tuner with no model or index")
	}
}

// TestReloadEndpointsReportIdentity: readyz and stats both carry the
// artifact version and stamp an operator keys rotations on.
func TestReloadEndpointsReportIdentity(t *testing.T) {
	s, path := newArtifactServer(t, Options{MaxWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/admin/reload", "application/json",
		strings.NewReader(`{"artifact": `+string(mustJSON(t, path))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	var info ArtifactInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Version != 2 {
		t.Fatalf("reload: status %d info %+v, want 200 version 2", resp.StatusCode, info)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status  string `json:"status"`
		Version int    `json:"artifact_version"`
		Stamp   string `json:"artifact_stamp"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready.Status != "ready" || ready.Version != 2 || ready.Stamp != info.Stamp {
		t.Fatalf("readyz after reload: %+v, want version 2 stamp %.16s", ready, info.Stamp)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
