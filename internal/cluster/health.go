package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// ReplicaHealth is one replica's view in RouterStats.
type ReplicaHealth struct {
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	LastError string    `json:"last_error,omitempty"`
	LastProbe time.Time `json:"last_probe"`
	InFlight  int64     `json:"in_flight"`
	Forwarded uint64    `json:"forwarded"`
	Errors    uint64    `json:"errors"`
}

// healthChecker probes each replica's /readyz on an interval and lets the
// proxy path mark a replica down the moment a transport error surfaces
// (passive detection beats waiting out a probe period when a replica dies
// mid-request). Readiness — not liveness — is deliberately the probe: a
// draining replica answers /healthz 200 while finishing old work, and
// routing new work at it would strand that work at shutdown.
type healthChecker struct {
	client   *http.Client
	interval time.Duration
	timeout  time.Duration

	mu    sync.Mutex
	state map[string]*replicaState

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type replicaState struct {
	healthy   bool
	lastError string
	lastProbe time.Time
}

func newHealthChecker(replicas []string, client *http.Client, interval, timeout time.Duration) *healthChecker {
	hc := &healthChecker{
		client:   client,
		interval: interval,
		timeout:  timeout,
		state:    make(map[string]*replicaState, len(replicas)),
		stop:     make(chan struct{}),
	}
	for _, r := range replicas {
		// run's first, synchronous probe round fills every state before
		// the router serves.
		hc.state[r] = &replicaState{}
	}
	return hc
}

// run probes every replica once before returning, then on the interval from
// a goroutine, until stopped. The first round is synchronous so its verdicts
// are in place before any request is routed: run from the goroutine, it
// could land after a later transition and overwrite it with a stale view.
// ctx bounds each probe round's outstanding requests.
func (hc *healthChecker) run(ctx context.Context) {
	hc.probeAll(ctx)
	hc.wg.Add(1)
	go func() {
		defer hc.wg.Done()
		t := time.NewTicker(hc.interval)
		defer t.Stop()
		for {
			select {
			case <-hc.stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				hc.probeAll(ctx)
			}
		}
	}()
}

func (hc *healthChecker) close() {
	hc.stopOnce.Do(func() { close(hc.stop) })
	hc.wg.Wait()
}

func (hc *healthChecker) replicas() []string {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	out := make([]string, 0, len(hc.state))
	for r := range hc.state {
		out = append(out, r)
	}
	return out
}

func (hc *healthChecker) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range hc.replicas() {
		wg.Add(1)
		go func(replica string) {
			defer wg.Done()
			hc.probe(ctx, replica)
		}(r)
	}
	wg.Wait()
}

// probe hits one replica's /readyz and records the verdict.
func (hc *healthChecker) probe(ctx context.Context, replica string) {
	ctx, cancel := context.WithTimeout(ctx, hc.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, replica+"/readyz", nil)
	if err != nil {
		hc.record(replica, false, err.Error())
		return
	}
	resp, err := hc.client.Do(req)
	if err != nil {
		hc.record(replica, false, err.Error())
		return
	}
	// Drain so the transport can reuse the connection.
	_, copyErr := io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	closeErr := resp.Body.Close()
	if copyErr != nil || closeErr != nil {
		hc.record(replica, false, "reading readyz body failed")
		return
	}
	if resp.StatusCode != http.StatusOK {
		hc.record(replica, false, "readyz returned "+resp.Status)
		return
	}
	hc.record(replica, true, "")
}

func (hc *healthChecker) record(replica string, healthy bool, lastErr string) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	st, ok := hc.state[replica]
	if !ok {
		return
	}
	st.healthy = healthy
	st.lastError = lastErr
	st.lastProbe = time.Now()
}

// markDown is the passive path: a proxy attempt saw a transport error, so
// the replica stops receiving new keys now; the next successful probe
// revives it.
func (hc *healthChecker) markDown(replica string, reason string) {
	hc.record(replica, false, reason)
}

func (hc *healthChecker) isHealthy(replica string) bool {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	st, ok := hc.state[replica]
	return ok && st.healthy
}

func (hc *healthChecker) healthyCount() int {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	n := 0
	for _, st := range hc.state {
		if st.healthy {
			n++
		}
	}
	return n
}

func (hc *healthChecker) view(replica string) (healthy bool, lastErr string, lastProbe time.Time) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	st, ok := hc.state[replica]
	if !ok {
		return false, "unknown replica", time.Time{}
	}
	return st.healthy, st.lastError, st.lastProbe
}
