// Package serve exposes a trained WACO tuner as a long-lived, concurrent
// auto-tuning service. The paper measures search overhead amortized over
// repeated kernel executions (§5.4); serving makes that amortization
// literal: one process loads a sealed tuner artifact (cost model + HNSW
// index + SuperSchedule space) once and answers tuning queries over HTTP,
// with a fingerprint-keyed LRU cache so a matrix is only ever searched once,
// singleflight deduplication so concurrent requests for the same matrix
// share one search, and a bounded worker pool so tuning load cannot starve
// the host.
//
// Around the query path the server carries hot artifact reload (POST
// /admin/reload or SIGHUP atomically swaps a freshly loaded sealed tuner
// behind an atomic pointer without dropping in-flight requests), split
// liveness/readiness health endpoints for a load balancer's health checks,
// and queue-depth-driven load shedding with priority classes — cold tunes
// shed first, cheap cached answers never shed.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"waco/internal/baselines"
	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/kernel"
	"waco/internal/metrics"
	"waco/internal/obslog"
	"waco/internal/search"
	"waco/internal/tensor"
)

// ErrShuttingDown is returned for requests arriving after Close began.
var ErrShuttingDown = errors.New("serve: server is shutting down")

// ErrOverloaded is returned when load shedding rejects a request: the pool
// queue is deeper than the request's priority class tolerates. HTTP maps it
// to 503 with a Retry-After header.
var ErrOverloaded = errors.New("serve: overloaded, retry later")

// Options configures a Server.
type Options struct {
	// CacheSize bounds the fingerprint cache (entries). Default 1024.
	CacheSize int
	// CacheShards is the shard count of the LRU. Default 16.
	CacheShards int
	// MaxWorkers bounds concurrently executing tune/predict searches;
	// excess requests queue on the pool. Default 2.
	MaxWorkers int
	// RequestTimeout bounds one request's search + measurement work.
	// 0 disables the per-request deadline.
	RequestTimeout time.Duration
	// ShedTuneQueue is the pool queue depth at which cold (uncached) tune
	// requests — the most expensive class — are shed with ErrOverloaded.
	// Cached tunes are answered before the check and are never shed.
	// Default 4*MaxWorkers; negative disables shedding for the class.
	ShedTuneQueue int
	// ShedPredictQueue is the queue depth at which predict requests are
	// shed. Predicts are cheaper than tunes (no hardware measurement), so
	// they tolerate a deeper queue and shed later. Default 16*MaxWorkers;
	// negative disables shedding for the class.
	ShedPredictQueue int
	// ArtifactPath, when set, is the sealed artifact file that
	// ReloadFromFile (the /admin/reload and SIGHUP paths) re-reads when no
	// explicit path is given.
	ArtifactPath string
	// PrefilterMargin enables the asymptotic-cost pre-filter on the query
	// path with the given prune margin (log2 units — orders of magnitude of
	// asymptotic work). 0 disables.
	PrefilterMargin float64
	// ObsLog, when non-nil, receives one measurement record per completed
	// (uncached, undeduped) tune — the observe half of the online learning
	// loop. Appends are non-blocking: a full buffer drops the record and
	// bumps waco_obslog_dropped_total rather than slowing the request. The
	// server flushes the log on drain; the caller owns Open/Close.
	ObsLog *obslog.Log
	// Registry receives the server's metrics (exposed at GET /metrics).
	// nil creates a private registry, retrievable via Server.Registry.
	Registry *metrics.Registry
	// Logger, when non-nil, receives one structured line per HTTP request
	// (request id, endpoint, status, duration, and for tune requests the
	// fingerprint and cached/deduped delivery path).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.CacheShards <= 0 {
		o.CacheShards = 16
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 2
	}
	if o.ShedTuneQueue == 0 {
		o.ShedTuneQueue = 4 * o.MaxWorkers
	}
	if o.ShedPredictQueue == 0 {
		o.ShedPredictQueue = 16 * o.MaxWorkers
	}
	return o
}

// TuneResult is the serving-path answer for one matrix. Cached and Deduped
// are per-request delivery metadata; the rest is what the underlying search
// produced (and what the cache stores).
type TuneResult struct {
	Fingerprint string `json:"fingerprint"`
	Schedule    string `json:"schedule"`
	// PredictedCost is the score the search ranked the winner by. It always
	// equals the cost model's Model.Cost of the winner, within float
	// tolerance (TestColdTunePredictedCostMatchesModel).
	PredictedCost  float64 `json:"predicted_cost"`
	KernelSeconds  float64 `json:"kernel_seconds"`
	TuningSeconds  float64 `json:"tuning_seconds"`
	ConvertSeconds float64 `json:"convert_seconds"`
	Info           string  `json:"info,omitempty"`
	Cached         bool    `json:"cached"`
	Deduped        bool    `json:"deduped"`
}

// Predicted is one cost-model-ranked schedule from /v1/predict.
type Predicted struct {
	Schedule string  `json:"schedule"`
	Cost     float64 `json:"cost"`
}

// ArtifactInfo identifies the sealed artifact currently serving: a
// monotonically increasing in-process version (1 = the artifact the server
// started with, bumped by every successful reload) and the artifact's
// SHA-256 stamp from core.LoadTuner (empty for in-process-built tuners).
type ArtifactInfo struct {
	Version  int       `json:"version"`
	Stamp    string    `json:"stamp,omitempty"`
	LoadedAt time.Time `json:"loaded_at"`
}

// Server answers tuning and prediction queries against one sealed tuner.
// All methods are safe for concurrent use. The tuner itself sits behind an
// atomic pointer so Reload can swap in a new artifact while requests are in
// flight: each request pins the pointer once on entry and uses that tuner
// throughout, so a swap never mixes two artifacts inside one request.
type Server struct {
	tuner    atomic.Pointer[core.Tuner]
	artifact atomic.Pointer[ArtifactInfo]
	opts     Options
	cache    *Cache
	flight   *flightGroup
	sem      chan struct{}
	start    time.Time

	// searchMetrics and kernelMetrics are registered once in NewServer and
	// re-attached to every reloaded tuner, so instruments survive swaps and
	// registration never happens on a request path.
	searchMetrics *search.Metrics
	kernelMetrics *kernel.Metrics

	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
	draining atomic.Bool

	tuneReqs    atomic.Uint64
	predictReqs atomic.Uint64
	searches    atomic.Uint64
	deduped     atomic.Uint64
	errCount    atomic.Uint64
	inFlight    atomic.Int64
	queued      atomic.Int64
	reqSeq      atomic.Uint64
	shedTune    atomic.Uint64
	shedPredict atomic.Uint64
	reloads     atomic.Uint64
	// retiredHeadEvals accumulates head evals of swapped-out models so the
	// exported counter stays monotone across reloads.
	retiredHeadEvals atomic.Uint64

	metrics *serverMetrics
	logger  *slog.Logger
}

// NewServer wraps a tuner (typically from core.LoadTuner) for serving. It
// instruments the tuner in place — the index's search breakdown and the
// workloads' kernel measurements report into the server's registry — so a
// tuner should back at most one server at a time.
func NewServer(t *core.Tuner, opts Options) (*Server, error) {
	if t == nil || t.Model == nil || t.Index == nil {
		return nil, fmt.Errorf("serve: tuner is missing a model or index")
	}
	opts = opts.withDefaults()
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		opts:   opts,
		cache:  NewCache(opts.CacheSize, opts.CacheShards),
		flight: newFlightGroup(),
		sem:    make(chan struct{}, opts.MaxWorkers),
		start:  time.Now(),
		logger: opts.Logger,
	}
	s.searchMetrics = search.NewMetrics(reg)
	s.kernelMetrics = kernel.NewMetrics(reg)
	t.Index.Metrics = s.searchMetrics
	t.KernelMetrics = s.kernelMetrics
	s.applyIndexOptions(t)
	s.tuner.Store(t)
	s.artifact.Store(&ArtifactInfo{Version: 1, Stamp: t.ArtifactStamp, LoadedAt: time.Now()})
	s.metrics = newServerMetrics(reg, s)
	return s, nil
}

// applyIndexOptions configures a tuner's index for this server's serving
// options (the pre-filter) before it is swapped in.
func (s *Server) applyIndexOptions(t *core.Tuner) {
	t.Index.EnablePrefilter(s.opts.PrefilterMargin)
}

// Registry returns the server's metrics registry (the /metrics source).
func (s *Server) Registry() *metrics.Registry { return s.metrics.reg }

// Tuner returns the currently serving tuner (read-only use). Reload may
// swap it at any moment; callers needing consistency across several
// accesses should call once and keep the pointer.
func (s *Server) Tuner() *core.Tuner { return s.tuner.Load() }

// Artifact returns the identity of the currently serving sealed artifact.
func (s *Server) Artifact() ArtifactInfo { return *s.artifact.Load() }

// Reload atomically swaps in a new tuner, typically freshly loaded from a
// sealed artifact. In-flight requests finish on the tuner they pinned at
// entry — nothing is dropped — and new requests see the new one. The
// fingerprint cache is flushed: cached results rank schedules with the old
// model, and serving them past the swap would silently undo the rotation.
// The algorithm must match (a rotation changes weights, not the workload).
func (s *Server) Reload(t *core.Tuner) (ArtifactInfo, error) {
	if t == nil || t.Model == nil || t.Index == nil {
		return ArtifactInfo{}, fmt.Errorf("serve: reload: tuner is missing a model or index")
	}
	old := s.tuner.Load()
	if t.Cfg.Alg != old.Cfg.Alg {
		return ArtifactInfo{}, fmt.Errorf("serve: reload: artifact is a %v tuner, this server serves %v",
			t.Cfg.Alg, old.Cfg.Alg)
	}
	// Same instruments, new tuner: registration happened once in NewServer.
	t.Index.Metrics = s.searchMetrics
	t.KernelMetrics = s.kernelMetrics
	s.applyIndexOptions(t)

	s.mu.Lock()
	s.retiredHeadEvals.Add(old.Model.HeadEvals())
	s.tuner.Store(t)
	info := ArtifactInfo{
		Version:  s.artifact.Load().Version + 1,
		Stamp:    t.ArtifactStamp,
		LoadedAt: time.Now(),
	}
	s.artifact.Store(&info)
	s.mu.Unlock()

	s.cache.Clear()
	s.reloads.Add(1)
	if s.logger != nil {
		s.logger.Info("artifact reloaded",
			slog.Int("version", info.Version), slog.String("stamp", info.Stamp),
			slog.Int("index_size", len(t.Index.Schedules)))
	}
	return info, nil
}

// ReloadFromFile loads the sealed artifact at path (or Options.ArtifactPath
// when path is empty) and swaps it in via Reload. A load or validation
// failure leaves the current tuner serving untouched.
func (s *Server) ReloadFromFile(path string) (ArtifactInfo, error) {
	if path == "" {
		path = s.opts.ArtifactPath
	}
	if path == "" {
		return ArtifactInfo{}, errors.New("serve: reload: no artifact path configured")
	}
	t, err := core.LoadTunerFile(path)
	if err != nil {
		return ArtifactInfo{}, err
	}
	return s.Reload(t)
}

// BeginDrain marks the server not-ready (readyz returns 503) while it keeps
// answering requests. Load balancers watching readiness stop sending new work
// before Close starts rejecting it — the standard pre-shutdown handoff.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain or Close has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// begin registers one in-flight request; it fails once Close has started so
// the drain in Close is not racing new arrivals.
func (s *Server) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShuttingDown
	}
	s.wg.Add(1)
	s.inFlight.Add(1)
	return nil
}

func (s *Server) end() {
	s.inFlight.Add(-1)
	s.wg.Done()
}

// acquire takes a worker-pool slot, abandoning the wait if ctx ends first.
// Successful waits are recorded in the queue-wait histogram — the signal
// that MaxWorkers, not search cost, is what requests are paying for — and
// the waiting count is the queue depth that drives load shedding.
func (s *Server) acquire(ctx context.Context) error {
	s.queued.Add(1)
	defer s.queued.Add(-1)
	start := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.metrics.queueWait.Observe(time.Since(start).Seconds())
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// QueueDepth returns how many admitted requests are currently waiting for a
// worker-pool slot (not executing, not cached — waiting).
func (s *Server) QueueDepth() int64 { return s.queued.Load() }

// shed applies the priority-class backpressure policy: a request whose
// class tolerates at most limit queued requests is rejected when the pool
// queue is at least that deep. Negative limits disable shedding.
func (s *Server) shed(limit int, counter *atomic.Uint64) error {
	if limit < 0 {
		return nil
	}
	if s.queued.Load() >= int64(limit) {
		counter.Add(1)
		return ErrOverloaded
	}
	return nil
}

// retryAfterSeconds estimates how long a shed client should back off:
// roughly one queue drain at the current depth, bounded to keep herds from
// synchronizing on a huge value.
func (s *Server) retryAfterSeconds() int {
	depth := int(s.queued.Load())
	secs := 1 + depth/s.opts.MaxWorkers
	if secs > 30 {
		secs = 30
	}
	return secs
}

// requestCtx applies the per-request timeout.
func (s *Server) requestCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.opts.RequestTimeout)
	}
	return context.WithCancel(ctx)
}

// Tune returns the best SuperSchedule for the matrix: from the fingerprint
// cache when this pattern was tuned before (O(1), no search), otherwise via
// one HNSW search + candidate measurement shared among all concurrent
// requests for the same fingerprint. Duplicates joining an in-progress
// search inherit its result — and its error, including cancellation of the
// owning request's context.
func (s *Server) Tune(ctx context.Context, coo *tensor.COO) (_ *TuneResult, err error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	s.tuneReqs.Add(1)
	defer func() {
		if err != nil {
			s.errCount.Add(1)
		}
	}()

	if err := coo.Validate(); err != nil {
		return nil, err
	}
	fp := Fingerprint(coo)
	if v, ok := s.cache.Get(fp); ok {
		out := *v.(*TuneResult)
		out.Cached = true
		return &out, nil
	}
	// Cold tunes are the most expensive class and shed first; the cache
	// lookup above means cached answers never reach this check.
	if err := s.shed(s.opts.ShedTuneQueue, &s.shedTune); err != nil {
		return nil, err
	}

	ctx, cancel := s.requestCtx(ctx)
	defer cancel()
	tun := s.tuner.Load()
	v, err, shared := s.flight.Do(ctx, fp, func() (any, error) {
		// Double-check: a caller that missed the cache may have raced a
		// just-completed flight for the same fingerprint; the result it
		// cached makes a second search pointless. Peek, not Get: this
		// request's miss was already counted at the pre-flight lookup, and
		// counting it twice would halve every derived hit rate.
		if v, ok := s.cache.Peek(fp); ok {
			return v, nil
		}
		if err := s.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		s.searches.Add(1)
		tuned, err := tun.TuneTensorContext(ctx, coo)
		if err != nil {
			return nil, err
		}
		res := &TuneResult{
			Fingerprint:    fp,
			Schedule:       tuned.Schedule.String(),
			PredictedCost:  winnerPredicted(tuned),
			KernelSeconds:  tuned.KernelSeconds,
			TuningSeconds:  tuned.TuningSeconds,
			ConvertSeconds: tuned.ConvertSeconds,
			Info:           tuned.Info,
		}
		s.cache.Put(fp, res)
		s.observe(fp, coo, tun, tuned)
		return res, nil
	})
	if shared {
		s.deduped.Add(1)
	}
	if err != nil {
		return nil, err
	}
	out := *v.(*TuneResult)
	out.Deduped = shared
	return &out, nil
}

// winnerPredicted returns the search's predicted cost for the winning
// schedule, carried on its probe measurement, so reporting it costs no second
// feature extraction. The WACO tuner always probes its winner.
func winnerPredicted(tuned *baselines.Tuned) float64 {
	for _, m := range tuned.Measured {
		if m.Schedule == tuned.Schedule {
			return m.Predicted
		}
	}
	return 0
}

// observe appends a completed tune's measurements to the log — one record
// per probed candidate (the full rankable sample set a retrain needs), with
// the winner's final timing as a fallback when no probes were exposed.
// Called once per actual search (cache hits and deduped joiners re-deliver
// already-logged measurements), inside the flight so the tuner pinned for
// the search supplies the artifact stamp — a racing reload cannot mislabel
// the measurements. The pattern is copied once and shared across the
// records: they outlive the request in the writer's buffer.
func (s *Server) observe(fp string, coo *tensor.COO, tun *core.Tuner, tuned *baselines.Tuned) {
	l := s.opts.ObsLog
	if l == nil {
		return
	}
	coords := make([][]int32, len(coo.Coords))
	for m, cs := range coo.Coords {
		coords[m] = append([]int32(nil), cs...)
	}
	dims := append([]int(nil), coo.Dims...)
	measured := tuned.Measured
	if len(measured) == 0 {
		measured = []baselines.Measurement{{Schedule: tuned.Schedule, Seconds: tuned.KernelSeconds}}
	}
	for _, m := range measured {
		l.Append(obslog.Record{
			Fingerprint: fp,
			Dims:        dims,
			Coords:      coords,
			Schedule:    m.Schedule,
			Decomp:      m.Schedule.Decomp.String(),
			Seconds:     m.Seconds,
			Stamp:       tun.ArtifactStamp,
		})
	}
}

// Predict runs a pure cost-model query: the top-k indexed SuperSchedules by
// predicted cost for the matrix, with no hardware measurement. It shares the
// tune path's worker pool but bypasses the cache (it is cheap relative to
// tuning and k varies per request).
func (s *Server) Predict(ctx context.Context, coo *tensor.COO, k int) ([]Predicted, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	s.predictReqs.Add(1)

	if err := coo.Validate(); err != nil {
		s.errCount.Add(1)
		return nil, err
	}
	if err := s.shed(s.opts.ShedPredictQueue, &s.shedPredict); err != nil {
		s.errCount.Add(1)
		return nil, err
	}
	tun := s.tuner.Load()
	if k <= 0 {
		k = 5
	}
	if n := len(tun.Index.Schedules); k > n {
		k = n
	}
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		s.errCount.Add(1)
		return nil, err
	}
	defer s.release()

	ef := tun.Cfg.SearchEf
	if ef < 6*k {
		ef = 6 * k
	}
	res, err := tun.Index.Search(ctx, costmodel.NewPattern(coo), k, ef)
	if err != nil {
		s.errCount.Add(1)
		return nil, err
	}
	out := make([]Predicted, len(res.Candidates))
	for i, c := range res.Candidates {
		out[i] = Predicted{Schedule: c.SS.String(), Cost: c.Cost}
	}
	return out, nil
}

// Stats is the /v1/stats payload.
type Stats struct {
	Alg             string  `json:"alg"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	IndexSize       int     `json:"index_size"`
	PrefilterMargin float64 `json:"prefilter_margin,omitempty"`
	BuildSeconds    float64 `json:"artifact_build_seconds"`
	ArtifactVersion int     `json:"artifact_version"`
	ArtifactStamp   string  `json:"artifact_stamp,omitempty"`
	ArtifactAge     float64 `json:"artifact_age_seconds"`
	Reloads         uint64  `json:"artifact_reloads"`
	Draining        bool    `json:"draining"`
	TuneRequests    uint64  `json:"tune_requests"`
	PredictRequests uint64  `json:"predict_requests"`
	Searches        uint64  `json:"searches"`
	DedupedSearches uint64  `json:"deduped_searches"`
	FlightAbandoned uint64  `json:"flight_abandoned"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheEvictions  uint64  `json:"cache_evictions"`
	CacheEntries    int     `json:"cache_entries"`
	Errors          uint64  `json:"errors"`
	InFlight        int64   `json:"in_flight"`
	QueueDepth      int64   `json:"queue_depth"`
	ShedTune        uint64  `json:"shed_tune"`
	ShedPredict     uint64  `json:"shed_predict"`
	ObsLogPath      string  `json:"obslog_path,omitempty"`
	ObsLogRecords   uint64  `json:"obslog_records,omitempty"`
	ObsLogDropped   uint64  `json:"obslog_dropped,omitempty"`
}

// Snapshot returns current counters.
func (s *Server) Snapshot() Stats {
	tun := s.tuner.Load()
	art := s.artifact.Load()
	st := Stats{
		Alg:             tun.Cfg.Alg.String(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
		IndexSize:       len(tun.Index.Schedules),
		PrefilterMargin: tun.Index.PrefilterMargin(),
		BuildSeconds:    tun.BuildSeconds,
		ArtifactVersion: art.Version,
		ArtifactStamp:   art.Stamp,
		ArtifactAge:     time.Since(art.LoadedAt).Seconds(),
		Reloads:         s.reloads.Load(),
		Draining:        s.draining.Load(),
		TuneRequests:    s.tuneReqs.Load(),
		PredictRequests: s.predictReqs.Load(),
		Searches:        s.searches.Load(),
		DedupedSearches: s.deduped.Load(),
		FlightAbandoned: s.flight.abandonedCount(),
		CacheHits:       s.cache.Hits(),
		CacheMisses:     s.cache.Misses(),
		CacheEvictions:  s.cache.Evictions(),
		CacheEntries:    s.cache.Len(),
		Errors:          s.errCount.Load(),
		InFlight:        s.inFlight.Load(),
		QueueDepth:      s.queued.Load(),
		ShedTune:        s.shedTune.Load(),
		ShedPredict:     s.shedPredict.Load(),
	}
	if l := s.opts.ObsLog; l != nil {
		st.ObsLogPath = l.Path()
		st.ObsLogRecords = l.Appended()
		st.ObsLogDropped = l.Dropped()
	}
	return st
}

// Close stops admitting requests and drains the in-flight ones. Whether
// the drain finishes or ctx ends first, buffered observation-log records
// are flushed before Close returns, so a restart never strands the tail of
// the log; a missed deadline returns ctx's error and leaves the unfinished
// requests to end on their own contexts.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if l := s.opts.ObsLog; l != nil {
		_ = l.Flush() //waco:nolint errdrop -- a flush failure is sticky in Log.Err and counted in /metrics; drain success is about requests, not the advisory log
	}
	return err
}
