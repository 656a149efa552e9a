package serve

import (
	"sync/atomic"
	"time"

	"waco/internal/metrics"
)

// endpoints instrumented by the HTTP layer.
var endpointNames = []string{"tune", "predict", "stats", "healthz", "readyz", "reload", "metrics"}

// endpointMetrics is one endpoint's request/error/latency triple.
type endpointMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	latency  *metrics.Histogram
}

// serverMetrics holds the server's instruments. The shared totals that
// /v1/stats also reports (requests, searches, dedup, cache counters) are
// func-backed reads of the same atomics Snapshot uses, so the two surfaces
// cannot drift; only purely metric-native data (latency histograms, queue
// waits) lives here exclusively.
type serverMetrics struct {
	reg       *metrics.Registry
	endpoints map[string]*endpointMetrics
	queueWait *metrics.Histogram
	// refused counts matrices admitMatrix turned away, by reason.
	refused map[string]*metrics.Counter
}

// newServerMetrics registers every serving instrument on reg. Called once
// from NewServer — registration stays out of the request path (enforced by
// the waco-vet metricreg check).
func newServerMetrics(reg *metrics.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{reg: reg, endpoints: map[string]*endpointMetrics{}, refused: map[string]*metrics.Counter{}}
	for _, ep := range endpointNames {
		l := metrics.Labels{"endpoint": ep}
		m.endpoints[ep] = &endpointMetrics{
			requests: reg.NewCounter("waco_http_requests_total",
				"HTTP requests by endpoint.", l),
			errors: reg.NewCounter("waco_http_errors_total",
				"HTTP responses with status >= 400, by endpoint.", l),
			latency: reg.NewHistogram("waco_http_request_seconds",
				"HTTP request latency by endpoint.", metrics.DefBuckets(), l),
		}
	}
	for _, reason := range []string{refuseNNZ, refuseOperandBytes} {
		m.refused[reason] = reg.NewCounter("waco_refused_total",
			"Tune and predict requests refused with 413 before any work, by reason: a matrix whose nonzeros or dense operands outgrow what one request may ask for.",
			metrics.Labels{"reason": reason})
	}
	m.queueWait = reg.NewHistogram("waco_pool_queue_wait_seconds",
		"Time requests wait for a worker-pool slot before their search starts.",
		metrics.MicroBuckets(), nil)

	counterFunc := func(name, help string, v func() uint64) {
		reg.NewCounterFunc(name, help, nil, func() float64 { return float64(v()) })
	}
	counterFunc("waco_tune_requests_total", "Tune requests admitted.", s.tuneReqs.Load)
	counterFunc("waco_predict_requests_total", "Predict requests admitted.", s.predictReqs.Load)
	counterFunc("waco_searches_total", "Full HNSW searches executed (cache and dedup absorbed the rest).", s.searches.Load)
	counterFunc("waco_deduped_searches_total", "Requests that joined another request's in-flight search.", s.deduped.Load)
	counterFunc("waco_flight_abandoned_total", "Deduped requests that abandoned their wait when their context ended.", s.flight.abandonedCount)
	counterFunc("waco_request_errors_total", "Requests that returned an error.", s.errCount.Load)
	counterFunc("waco_cache_hits_total", "Fingerprint-cache hits.", s.cache.Hits)
	counterFunc("waco_cache_misses_total", "Fingerprint-cache misses (one per uncached request; in-flight double-checks are not counted).", s.cache.Misses)
	counterFunc("waco_cache_evictions_total", "Fingerprint-cache LRU evictions.", s.cache.Evictions)
	counterFunc("waco_costmodel_head_evals_total", "Predictor-head forward passes over the process lifetime (monotone across artifact reloads).",
		func() uint64 { return s.retiredHeadEvals.Load() + s.tuner.Load().Model.HeadEvals() })
	counterFunc("waco_artifact_reloads_total", "Successful hot artifact reloads.", s.reloads.Load)
	if l := s.opts.ObsLog; l != nil {
		counterFunc("waco_obslog_records_total", "Measurement records accepted into the observation log.", l.Appended)
		counterFunc("waco_obslog_dropped_total", "Measurement records dropped (buffer full, log closed, or write error).", l.Dropped)
		counterFunc("waco_obslog_syncs_total", "Batched fsyncs issued by the observation-log writer.", l.Syncs)
	}

	for _, c := range []struct {
		class string
		v     *atomic.Uint64
	}{{"tune", &s.shedTune}, {"predict", &s.shedPredict}} {
		v := c.v
		reg.NewCounterFunc("waco_shed_total",
			"Requests rejected by queue-depth load shedding, by priority class (cold tunes shed first, cached answers never).",
			metrics.Labels{"class": c.class}, func() float64 { return float64(v.Load()) })
	}

	reg.NewGaugeFunc("waco_cache_entries", "Fingerprint-cache resident entries.", nil,
		func() float64 { return float64(s.cache.Len()) })
	reg.NewGaugeFunc("waco_in_flight_requests", "Requests currently inside Tune/Predict.", nil,
		func() float64 { return float64(s.inFlight.Load()) })
	reg.NewGaugeFunc("waco_pool_queue_depth", "Admitted requests waiting for a worker-pool slot (the shedding signal).", nil,
		func() float64 { return float64(s.queued.Load()) })
	reg.NewGaugeFunc("waco_index_size", "Indexed SuperSchedules.", nil,
		func() float64 { return float64(len(s.tuner.Load().Index.Schedules)) })
	reg.NewGaugeFunc("waco_artifact_version", "In-process version of the serving artifact (1 at startup, +1 per reload).", nil,
		func() float64 { return float64(s.artifact.Load().Version) })
	reg.NewGaugeFunc("waco_draining", "1 while the server is draining (readyz failing), else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.NewGaugeFunc("waco_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	return m
}
