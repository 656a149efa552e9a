package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"waco/internal/metrics"
	"waco/internal/schedule"
	"waco/internal/tensor"
)

// Bodies that once took a replica down: a Matrix Market header declaring
// 4·10¹² entries (the reader sized its first allocation by it) and COO-JSON
// whose dims ask for a 2^30-entry dense operand.
const (
	hugeNNZBody  = `{"matrix_market":"%%MatrixMarket matrix coordinate real general\n1 1 4000000000000\n1 1 1.0\n"}`
	wideDimsBody = `{"matrix":{"dims":[1,1073741824],"coords":[[0],[5]]}}`
	smallBody    = `{"matrix":{"dims":[3,4],"coords":[[0,1,2],[3,0,1]],"vals":[1,2,3]}}`
)

// TestServerRefusesHostileBodies: both hostile bodies get a 4xx from tune
// and predict, before any work, and the same server still tunes a normal
// matrix afterwards.
func TestServerRefusesHostileBodies(t *testing.T) {
	s := newTestServer(t, Options{MaxWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/tune", "/v1/predict"} {
		for name, body := range map[string]string{"huge nnz": hugeNNZBody, "wide dims": wideDimsBody} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("%s %s: status %d, want 4xx", path, name, resp.StatusCode)
			}
		}
	}
	if v, _ := s.Registry().Value("waco_refused_total", metrics.Labels{"reason": refuseOperandBytes}); v != 2 {
		t.Errorf("waco_refused_total{reason=%q} = %v, want 2", refuseOperandBytes, v)
	}
	if st := s.Snapshot(); st.ShedTune != 0 || st.ShedPredict != 0 || st.Searches != 0 {
		t.Errorf("refusals reached the tuner: %+v", st)
	}

	var res TuneResult
	postJSON(t, ts.URL+"/v1/tune", tuneBody(t, testMatrix(70)), http.StatusOK, &res)
	if res.Schedule == "" {
		t.Fatalf("normal tune after refusals: %+v", res)
	}
}

func TestAdmitMatrixBounds(t *testing.T) {
	sized := func(dims ...int) *tensor.COO {
		c := tensor.NewCOO(dims, 1)
		c.Append(1, make([]int32, len(dims))...)
		return c
	}
	for _, tc := range []struct {
		coo    *tensor.COO
		alg    schedule.Algorithm
		denseN int
		want   string
	}{
		{sized(1024, 1024), schedule.SpMM, 256, ""},
		// SpMV's operands are vectors whatever denseN says.
		{sized(1<<23, 1<<23), schedule.SpMV, 256, ""},
		{sized(1<<23, 1<<23+1), schedule.SpMV, 256, refuseOperandBytes},
		{sized(1<<15, 1<<15), schedule.SpMM, 256, ""},
		{sized(1<<15, 1<<15+1), schedule.SpMM, 256, refuseOperandBytes},
		{sized(1, 1<<30), schedule.SpMM, 8, refuseOperandBytes},
		{sized(1<<62, 1<<62), schedule.SpMM, 1 << 20, refuseOperandBytes},
		{sized(64, 64, 64), schedule.MTTKRP, 16, ""},
	} {
		got, err := admitMatrix(tc.coo, tc.alg, tc.denseN)
		if got != tc.want || (err != nil) != (tc.want != "") {
			t.Errorf("admitMatrix(%v, %v, N=%d) = %q, %v; want %q", tc.coo.Dims, tc.alg, tc.denseN, got, err, tc.want)
		}
	}
}

// FuzzDecodeMatrix: any tune body decodes, through either wire form, to a
// COO that passes Validate — or to an error. Never a panic, never an
// allocation sized by a header alone.
func FuzzDecodeMatrix(f *testing.F) {
	for _, body := range []string{hugeNNZBody, wideDimsBody, smallBody} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req TuneRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		coo, err := decodeMatrix(req.Matrix, req.MatrixMarket)
		if err != nil {
			return
		}
		if coo == nil {
			t.Fatal("nil COO without an error")
		}
		if err := coo.Validate(); err != nil {
			t.Fatalf("decoded COO fails Validate: %v", err)
		}
	})
}
