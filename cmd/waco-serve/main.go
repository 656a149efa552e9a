// Command waco-serve runs the WACO auto-tuning service: it loads a sealed
// tuner artifact (written by waco-train -artifact or waco-tune -artifact)
// and answers tuning queries over HTTP until interrupted, draining in-flight
// searches on shutdown.
//
// Endpoints:
//
//	POST /v1/tune        {"matrix": {...}} or {"matrix_market": "..."} -> best SuperSchedule
//	POST /v1/predict     same matrix forms + "k"                       -> top-k predicted schedules
//	GET  /healthz                                                      -> liveness (also /v1/healthz)
//	GET  /readyz                                                       -> readiness (artifact loaded, not draining)
//	POST /admin/reload                                                 -> hot-swap the sealed artifact
//	GET  /v1/stats                                                     -> cache/dedup/search counters (JSON)
//	GET  /metrics                                                      -> Prometheus text exposition
//
// SIGHUP reloads the artifact file in place (same as POST /admin/reload with
// no body): the new tuner swaps in atomically, in-flight requests finish on
// the old one, and /v1/stats reports the bumped artifact version and stamp.
// On SIGINT/SIGTERM the daemon turns /readyz to 503, closes its listener
// and drains the in-flight requests.
//
// With -debug-addr a second listener serves net/http/pprof (profiles stay
// off the public port). Each request is access-logged via log/slog with a
// request id, the matrix fingerprint, and the cached/deduped delivery path;
// -quiet disables the access log.
//
// Usage:
//
//	waco-serve -artifact spmm.tuner -addr :8080 -debug-addr localhost:6060
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"waco/internal/core"
	"waco/internal/obslog"
	"waco/internal/serve"
)

// speedup is the startup-speed headline: sealed-load time vs original build.
func speedup(build, load float64) float64 {
	if load <= 0 {
		return 0
	}
	return build / load
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("waco-serve: ")
	artifactPath := flag.String("artifact", "waco.tuner", "sealed tuner artifact file")
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "optional second listen address for net/http/pprof (empty = disabled)")
	cacheSize := flag.Int("cache", 1024, "fingerprint cache capacity (entries)")
	workers := flag.Int("workers", 2, "max concurrent tune/predict searches")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request tuning deadline (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain deadline for in-flight searches")
	quiet := flag.Bool("quiet", false, "disable per-request structured access logging")
	prefilterMargin := flag.Float64("prefilter-margin", 0, "asymptotic-cost pre-filter prune margin in log2 units (0 = disabled)")
	obslogPath := flag.String("obslog", "", "append-only measurement log file recording every completed tune for waco-retrain (empty = disabled)")
	obslogHost := flag.String("obslog-host", "", "host tag stamped on measurement records (default: os.Hostname)")
	obslogBuffer := flag.Int("obslog-buffer", 256, "measurement records buffered between the request path and the log writer; overflow drops (counted in /metrics)")
	flag.Parse()

	t0 := time.Now()
	tuner, err := core.LoadTunerFile(*artifactPath)
	if err != nil {
		log.Fatal(err)
	}
	loadSecs := time.Since(t0).Seconds()
	log.Printf("loaded %v tuner: %d indexed schedules in %.3fs (sealed build took %.3fs, %.0fx faster startup)",
		tuner.Cfg.Alg, len(tuner.Index.Schedules), loadSecs, tuner.BuildSeconds, speedup(tuner.BuildSeconds, loadSecs))

	var obsLog *obslog.Log
	if *obslogPath != "" {
		obsLog, err = obslog.Open(*obslogPath, obslog.Options{Host: *obslogHost, Buffer: *obslogBuffer})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("observation log %s: %d existing records", *obslogPath, obsLog.Existing())
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv, err := serve.NewServer(tuner, serve.Options{
		CacheSize:       *cacheSize,
		MaxWorkers:      *workers,
		RequestTimeout:  *timeout,
		ArtifactPath:    *artifactPath,
		Logger:          logger,
		PrefilterMargin: *prefilterMargin,
		ObsLog:          obsLog,
	})
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errCh := make(chan error, 2)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s (metrics at /metrics)", *addr)

	var debugSrv *http.Server
	if *debugAddr != "" {
		// pprof on its own mux and listener: profiling endpoints never ride
		// the public port, and the default-mux registration side effects of
		// importing net/http/pprof are avoided by registering explicitly.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() { errCh <- debugSrv.ListenAndServe() }()
		log.Printf("pprof on %s/debug/pprof/", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errCh:
			log.Fatal(err)
		case got := <-sig:
			if got == syscall.SIGHUP {
				// Hot reload in place; a bad artifact leaves the old one serving.
				info, err := srv.ReloadFromFile("")
				if err != nil {
					log.Printf("reload failed, keeping current artifact: %v", err)
					continue
				}
				log.Printf("reloaded artifact: version %d stamp %.16s", info.Version, info.Stamp)
				continue
			}
			log.Printf("received %v, draining", got)
			break loop
		}
	}

	// Readiness goes down, then the listener closes and the request pool
	// drains. Nothing waits in between, so a load balancer sees refused
	// connections rather than a failing /readyz.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil {
			log.Printf("debug shutdown: %v", err)
		}
	}
	if err := srv.Close(ctx); err != nil {
		log.Printf("drain: %v (some searches abandoned)", err)
	}
	if obsLog != nil {
		if err := obsLog.Close(); err != nil {
			log.Printf("observation log close: %v", err)
		}
	}
	st := srv.Snapshot()
	log.Printf("served %d tune + %d predict requests (%d searches, %d deduped, %d cache hits)",
		st.TuneRequests, st.PredictRequests, st.Searches, st.DedupedSearches, st.CacheHits)
	if obsLog != nil {
		log.Printf("observation log: %d records appended, %d dropped", obsLog.Appended(), obsLog.Dropped())
	}
}
