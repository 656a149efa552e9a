package serve

import (
	"context"
	"testing"
)

// TestPrefilterServing: a server opted into the asymptotic pre-filter answers
// tunes and reports its margin in its stats, and a server created WITHOUT
// the option on the same tuner disables it again (options are per-server,
// not sticky index state).
func TestPrefilterServing(t *testing.T) {
	s := newTestServer(t, Options{PrefilterMargin: 1.5})
	res, err := s.Tune(context.Background(), testMatrix(73))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == "" {
		t.Fatalf("pre-filtered tune returned no schedule: %+v", res)
	}
	if st := s.Snapshot(); st.PrefilterMargin != 1.5 {
		t.Fatalf("stats report prefilter margin %v, want 1.5", st.PrefilterMargin)
	}

	// A plain server over the same tuner must disable the pre-filter.
	plain := newTestServer(t, Options{})
	if pst := plain.Snapshot(); pst.PrefilterMargin != 0 {
		t.Fatalf("plain server inherited margin %v from a previous server's options", pst.PrefilterMargin)
	}
}
