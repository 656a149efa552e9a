package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waco/internal/metrics"
	"waco/internal/serve"
)

// maxBodyBytes bounds proxied request bodies, mirroring the serve daemon's
// own limit so the router never buffers more than a replica would accept.
const maxBodyBytes = 64 << 20

// Options configures a Router.
type Options struct {
	// Replicas are the serve daemon base URLs ("http://host:port"), the
	// consistent-hash ring membership. Required, at least one.
	Replicas []string
	// VNodes is the virtual nodes per replica on the ring. Default 64.
	VNodes int
	// LoadFactor is the bounded-load consistent-hashing factor c: a replica
	// already carrying more than c times its fair share of the router's
	// in-flight requests is skipped in favor of the next ring preference,
	// trading a cache-affinity miss for not piling onto a hot spot.
	// Default 1.25; values <= 1 disable the bound.
	LoadFactor float64
	// Retries is the maximum number of distinct replicas one request may be
	// attempted on. Default: every replica.
	Retries int
	// RetryBase and RetryMax bound the jittered exponential backoff between
	// replica attempts. Defaults 25ms and 1s.
	RetryBase, RetryMax time.Duration
	// HealthInterval is the readiness probe period. Default 2s.
	HealthInterval time.Duration
	// ProbeTimeout bounds one readiness probe. Default 1s.
	ProbeTimeout time.Duration
	// ForwardTimeout bounds one proxied attempt (connect + full response).
	// 0 means no per-attempt deadline beyond the client request's own
	// context — tunes can run for seconds, so the default is 0.
	ForwardTimeout time.Duration
	// Client is the HTTP client for proxying and probing. Default: a
	// dedicated client with connection reuse.
	Client *http.Client
	// Seed seeds the backoff jitter RNG (project invariant: no global
	// rand). 0 uses a fixed seed; pass something process-unique (e.g. the
	// startup time) in production so router fleets don't jitter in step.
	Seed int64
	// Registry receives the router's metrics. nil creates a private one.
	Registry *metrics.Registry
	// Logger, when non-nil, receives one line per proxied request and per
	// health transition.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.LoadFactor == 0 {
		o.LoadFactor = 1.25
	}
	if o.Retries <= 0 || o.Retries > len(o.Replicas) {
		o.Retries = len(o.Replicas)
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = time.Second
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// replicaCounters is one replica's live accounting: the in-flight gauge
// drives the bounded-load skip, the totals feed stats and metrics.
type replicaCounters struct {
	inFlight  atomic.Int64
	forwarded atomic.Uint64
	errors    atomic.Uint64
}

// Router fans tuning traffic out to serve replicas keyed on the sparsity
// fingerprint. It holds no request state — any number of routers can front
// the same replicas — and is safe for concurrent use.
type Router struct {
	opts   Options
	ring   *Ring
	health *healthChecker
	client *http.Client
	logger *slog.Logger

	replicas map[string]*replicaCounters // fixed key set after NewRouter

	rngMu sync.Mutex
	rng   *rand.Rand

	cancelHealth context.CancelFunc

	forwarded       atomic.Uint64
	retries         atomic.Uint64
	transportErrors atomic.Uint64
	noReplica       atomic.Uint64
	badRequests     atomic.Uint64

	reg       *metrics.Registry
	latency   *metrics.Histogram
	attempts  *metrics.Histogram
	reqSeq    atomic.Uint64
	startTime time.Time
}

// NewRouter builds a router over the replica set, probes every replica once,
// and starts its readiness prober. Close releases the prober.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, errors.New("cluster: router needs at least one replica")
	}
	normalized := make([]string, len(opts.Replicas))
	seen := make(map[string]bool, len(opts.Replicas))
	for i, r := range opts.Replicas {
		r = strings.TrimRight(r, "/")
		if r == "" {
			return nil, fmt.Errorf("cluster: empty replica URL at position %d", i)
		}
		if seen[r] {
			return nil, fmt.Errorf("cluster: duplicate replica %s", r)
		}
		seen[r] = true
		normalized[i] = r
	}
	opts.Replicas = normalized
	opts = opts.withDefaults()

	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rt := &Router{
		opts:      opts,
		ring:      NewRing(opts.VNodes, opts.Replicas...),
		client:    opts.Client,
		logger:    opts.Logger,
		replicas:  make(map[string]*replicaCounters, len(opts.Replicas)),
		rng:       rand.New(rand.NewSource(opts.Seed)),
		reg:       reg,
		startTime: time.Now(),
	}
	for _, r := range opts.Replicas {
		rt.replicas[r] = &replicaCounters{}
	}
	rt.health = newHealthChecker(opts.Replicas, opts.Client, opts.HealthInterval, opts.ProbeTimeout)
	var healthCtx context.Context
	healthCtx, rt.cancelHealth = context.WithCancel(context.Background())
	rt.health.run(healthCtx)
	rt.newInstruments(reg)
	return rt, nil
}

// Close stops the health prober. In-flight proxied requests finish.
func (rt *Router) Close() {
	rt.cancelHealth()
	rt.health.close()
}

// Handler returns the router's HTTP mux:
//
//	POST /v1/tune       — routed by the body's fingerprint (async included)
//	POST /v1/predict    — routed by the body's fingerprint
//	GET  /v1/jobs/{id}  — routed by the fingerprint embedded in the job id
//	GET  /v1/stats      — router stats (RouterStats), not a replica's
//	GET  /healthz       — router liveness
//	GET  /readyz        — readiness: at least one healthy replica
//	GET  /metrics       — Prometheus exposition of the router's instruments
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tune", rt.handleProxyPost)
	mux.HandleFunc("/v1/predict", rt.handleProxyPost)
	mux.HandleFunc("/v1/jobs/", rt.handleJob)
	mux.HandleFunc("/v1/stats", rt.handleStats)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.Handle("/metrics", rt.reg.Handler())
	return mux
}

type errorResponse struct {
	Error string `json:"error"`
}

// logf reports faults that have no response channel left (the status line
// is already gone when encoding fails). Swapped out in tests.
var logf = log.Printf

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// A client gone mid-write is its own problem; the status line is sent.
		logf("cluster: encoding %T response: %v", v, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// handleProxyPost routes /v1/tune and /v1/predict: read the body, derive
// the fingerprint, forward to the fingerprint's replica. POSTs retry on the
// next ring preference only for transport errors — the tune/predict
// endpoints are idempotent by fingerprint (replicas cache and dedup), so a
// connection that died before or during a response is safe to replay.
func (rt *Router) handleProxyPost(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	key, err := serve.RequestFingerprint(body)
	if err != nil {
		// Reject malformed matrices at the edge: no replica round trip for
		// a request that every replica would 400 anyway.
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.forward(w, r, key, body, false)
}

// handleJob routes GET /v1/jobs/{id} by the fingerprint embedded in the job
// id (serve.JobKey). Job polls are idempotent reads, so they additionally
// retry past 404s and 5xxs down the preference list: after a topology
// change the job may live on the replica that owned the fingerprint under
// the previous ring, which is exactly the next preference.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	key, ok := serve.JobKey(id)
	if !ok {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed job id %q", id))
		return
	}
	rt.forward(w, r, key, nil, true)
}

// forward proxies one request to the key's replica, walking the ring
// preference list with jittered exponential backoff between attempts.
// retryStatuses extends retries beyond transport errors to 404/5xx replies
// (idempotent reads only).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte, retryStatuses bool) {
	id := rt.reqSeq.Add(1)
	start := time.Now()
	pref := rt.ring.Preference(key, rt.ring.Len())
	candidates := rt.pickCandidates(pref)
	if len(candidates) == 0 {
		rt.noReplica.Add(1)
		writeError(w, http.StatusServiceUnavailable, errors.New("no healthy replica"))
		return
	}
	if len(candidates) > rt.opts.Retries {
		candidates = candidates[:rt.opts.Retries]
	}

	var lastErr error
	for attempt, replica := range candidates {
		if attempt > 0 {
			rt.retries.Add(1)
			if err := rt.backoff(r.Context(), attempt); err != nil {
				writeError(w, http.StatusServiceUnavailable, err)
				return
			}
		}
		done, err := rt.attempt(w, r, replica, body, retryStatuses, attempt == len(candidates)-1)
		if done {
			rt.latency.Observe(time.Since(start).Seconds())
			rt.attempts.Observe(float64(attempt + 1))
			if rt.logger != nil {
				rt.logger.LogAttrs(r.Context(), slog.LevelInfo, "proxied",
					slog.Uint64("id", id),
					slog.String("path", r.URL.Path),
					slog.String("replica", replica),
					slog.Int("attempts", attempt+1),
					slog.Duration("duration", time.Since(start)))
			}
			return
		}
		lastErr = err
		rt.transportErrors.Add(1)
		rt.health.markDown(replica, err.Error())
		if rt.logger != nil {
			rt.logger.LogAttrs(r.Context(), slog.LevelWarn, "replica attempt failed",
				slog.Uint64("id", id),
				slog.String("replica", replica),
				slog.String("error", err.Error()))
		}
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("all replicas failed, last: %w", lastErr))
}

// pickCandidates filters the preference order down to healthy replicas,
// then applies the bounded-load rule: replicas carrying more than
// LoadFactor times their fair share of in-flight requests sink to the back
// of the order (skipped, not dropped — if every replica is hot, the
// preference order stands and the request queues on its owner).
func (rt *Router) pickCandidates(pref []string) []string {
	healthy := make([]string, 0, len(pref))
	for _, p := range pref {
		if rt.health.isHealthy(p) {
			healthy = append(healthy, p)
		}
	}
	if len(healthy) <= 1 || rt.opts.LoadFactor <= 1 {
		return healthy
	}
	total := int64(0)
	for _, c := range rt.replicas {
		total += c.inFlight.Load()
	}
	// Fair share of in-flight work per healthy replica, inflated by c.
	// +1 counts the request being placed.
	limit := int64(rt.opts.LoadFactor * float64(total+1) / float64(len(healthy)))
	if limit < 1 {
		limit = 1
	}
	within := make([]string, 0, len(healthy))
	var over []string
	for _, p := range healthy {
		if rt.replicas[p].inFlight.Load() <= limit {
			within = append(within, p)
		} else {
			over = append(over, p)
		}
	}
	return append(within, over...)
}

// attempt proxies the request to one replica. done=true means a response
// (or terminal error) was written to w; done=false with err means the
// attempt is retryable on the next replica. last marks the final candidate:
// retryable statuses are relayed rather than swallowed when nothing is left
// to try.
func (rt *Router) attempt(w http.ResponseWriter, r *http.Request, replica string, body []byte, retryStatuses, last bool) (done bool, err error) {
	ctx := r.Context()
	if rt.opts.ForwardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.opts.ForwardTimeout)
		defer cancel()
	}
	url := replica + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var bodyReader io.Reader
	if body != nil {
		bodyReader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, bodyReader)
	if err != nil {
		return false, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}

	rc := rt.replicas[replica]
	rc.inFlight.Add(1)
	resp, err := rt.client.Do(req)
	rc.inFlight.Add(-1)
	if err != nil {
		rc.errors.Add(1)
		// The client's own context ending is not a replica fault: stop.
		if r.Context().Err() != nil {
			writeError(w, http.StatusServiceUnavailable, r.Context().Err())
			return true, nil
		}
		return false, err
	}
	defer resp.Body.Close()

	if retryStatuses && !last &&
		(resp.StatusCode == http.StatusNotFound || resp.StatusCode >= 500) {
		rc.errors.Add(1)
		// Finish reading so the connection is reusable, then try the next
		// preference. A drain failure only costs connection reuse.
		if _, derr := io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes)); derr != nil {
			logf("cluster: draining retried response from %s: %v", replica, derr)
		}
		return false, fmt.Errorf("%s returned %s", replica, resp.Status)
	}

	// Relay the replica's answer: status, the headers clients act on, and
	// the body. X-Waco-Replica names the serving replica for debugging and
	// for the e2e affinity checks.
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Waco-Replica", replica)
	w.WriteHeader(resp.StatusCode)
	_, copyErr := io.Copy(w, resp.Body)
	if copyErr != nil && rt.logger != nil {
		rt.logger.LogAttrs(r.Context(), slog.LevelWarn, "relaying response body failed",
			slog.String("replica", replica), slog.String("error", copyErr.Error()))
	}
	rt.forwarded.Add(1)
	rc.forwarded.Add(1)
	if resp.StatusCode >= 500 {
		rc.errors.Add(1)
	}
	return true, nil
}

// backoff sleeps the jittered exponential delay before retry n (n >= 1),
// or returns early with ctx's error.
func (rt *Router) backoff(ctx context.Context, n int) error {
	d := rt.opts.RetryBase << (n - 1)
	if d > rt.opts.RetryMax {
		d = rt.opts.RetryMax
	}
	// Full jitter over [d/2, d): staggered retries, bounded wait.
	rt.rngMu.Lock()
	jittered := d/2 + time.Duration(rt.rng.Int63n(int64(d/2)+1))
	rt.rngMu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ReplicaForKey exposes the routing decision (healthy-filtered preference
// order) for tests and debugging.
func (rt *Router) ReplicaForKey(key string) []string {
	return rt.pickCandidates(rt.ring.Preference(key, rt.ring.Len()))
}

// RouterStats is the router's /v1/stats payload.
type RouterStats struct {
	UptimeSeconds   float64         `json:"uptime_seconds"`
	Replicas        []ReplicaHealth `json:"replicas"`
	HealthyReplicas int             `json:"healthy_replicas"`
	Forwarded       uint64          `json:"forwarded"`
	Retries         uint64          `json:"retries"`
	TransportErrors uint64          `json:"transport_errors"`
	NoReplica       uint64          `json:"no_replica"`
	BadRequests     uint64          `json:"bad_requests"`
}

// Stats snapshots the router's counters and per-replica health.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		UptimeSeconds:   time.Since(rt.startTime).Seconds(),
		HealthyReplicas: rt.health.healthyCount(),
		Forwarded:       rt.forwarded.Load(),
		Retries:         rt.retries.Load(),
		TransportErrors: rt.transportErrors.Load(),
		NoReplica:       rt.noReplica.Load(),
		BadRequests:     rt.badRequests.Load(),
	}
	for _, r := range rt.opts.Replicas {
		healthy, lastErr, lastProbe := rt.health.view(r)
		c := rt.replicas[r]
		st.Replicas = append(st.Replicas, ReplicaHealth{
			URL:       r,
			Healthy:   healthy,
			LastError: lastErr,
			LastProbe: lastProbe,
			InFlight:  c.inFlight.Load(),
			Forwarded: c.forwarded.Load(),
			Errors:    c.errors.Load(),
		})
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: the router is ready when it can route somewhere.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	healthy := rt.health.healthyCount()
	if healthy == 0 {
		writeError(w, http.StatusServiceUnavailable, errors.New("no healthy replica"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "healthy_replicas": healthy})
}

// newInstruments installs the router's instruments (once, at construction —
// never on the request path).
func (rt *Router) newInstruments(reg *metrics.Registry) {
	counterFunc := func(name, help string, v func() uint64) {
		reg.NewCounterFunc(name, help, nil, func() float64 { return float64(v()) })
	}
	counterFunc("waco_router_forwarded_total", "Requests proxied to a replica and answered.", rt.forwarded.Load)
	counterFunc("waco_router_retries_total", "Attempts beyond the first replica.", rt.retries.Load)
	counterFunc("waco_router_transport_errors_total", "Replica attempts that failed at the transport layer.", rt.transportErrors.Load)
	counterFunc("waco_router_no_replica_total", "Requests rejected because no replica was healthy.", rt.noReplica.Load)
	counterFunc("waco_router_bad_requests_total", "Requests rejected at the edge (malformed body or job id).", rt.badRequests.Load)
	reg.NewGaugeFunc("waco_router_healthy_replicas", "Replicas currently passing readiness.", nil,
		func() float64 { return float64(rt.health.healthyCount()) })
	reg.NewGaugeFunc("waco_router_replicas", "Configured replicas on the ring.", nil,
		func() float64 { return float64(rt.ring.Len()) })
	for _, r := range rt.opts.Replicas {
		c := rt.replicas[r]
		l := metrics.Labels{"replica": r}
		reg.NewCounterFunc("waco_router_replica_forwarded_total", "Requests answered by this replica.", l,
			func() float64 { return float64(c.forwarded.Load()) })
		reg.NewCounterFunc("waco_router_replica_errors_total", "Failed attempts against this replica.", l,
			func() float64 { return float64(c.errors.Load()) })
		reg.NewGaugeFunc("waco_router_replica_in_flight", "In-flight proxied requests on this replica.", l,
			func() float64 { return float64(c.inFlight.Load()) })
	}
	rt.latency = reg.NewHistogram("waco_router_request_seconds",
		"End-to-end proxied request latency, including retries.", metrics.DefBuckets(), nil)
	rt.attempts = reg.NewHistogram("waco_router_attempts_per_request",
		"Replica attempts per answered request (1 = no retry).",
		[]float64{1, 2, 3, 4, 8}, nil)
}
