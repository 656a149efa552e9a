package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"waco/internal/obslog"
	"waco/internal/serve"
)

// runOptions are one run's flags, and Short, which only the tests set.
type runOptions struct {
	Seed     int64
	Seconds  float64
	Trace    bool
	TraceOut string // where the spans go; empty: nowhere
	Short    bool   // tiny tuner and matrices: the numbers mean nothing
	// TempDir holds the observation log of an HTTP workload. It lies inside
	// the checkout: the benchmark writes nowhere else.
	TempDir string
}

// A run stops sending operations deadlineFactor times -seconds into the
// timed phase, but not before minDeadline.
const (
	deadlineFactor = 2.5
	minDeadline    = 30 * time.Second
)

// coldSample is one cold tune with what re-running its winner showed.
type coldSample struct {
	In      *input
	Latency time.Duration
	Tune    *serve.TuneResult
	verdict
}

// prepared is a run's set-up: its inputs and the tuner it serves from.
type prepared struct {
	Plan   *opPlan
	Tuner  *fixedTuner
	Stages buildStages // filled by a traced run only
	SetupS float64
	// Mem0 is the allocation baseline: taken before the offline build where
	// the build is the workload, before the timed phase otherwise.
	Mem0 runtime.MemStats
}

// setUp generates the inputs from the seed and builds the tuner from
// source. setup_s is what one set-up takes: where the fixed tuner was built
// fixedBuilds times, inputs and labels plus the median build.
func setUp(ctx context.Context, s spec, opt runOptions) (*prepared, error) {
	size := s.tunerSize(opt.Short)
	p := &prepared{}
	t0 := time.Now()
	var err error
	if p.Plan, err = s.plan(newGenerator(opt.Seed), opt.Seconds); err != nil {
		return nil, err
	}
	if s.Build {
		corpus := trainingCorpus(size.Matrices+heldOut, opt.Seed)
		p.SetupS = time.Since(t0).Seconds()
		runtime.ReadMemStats(&p.Mem0)
		p.Tuner, p.Stages, err = offlineBuild(ctx, corpus, size, opt.Trace)
		return p, err
	}
	p.SetupS = time.Since(t0).Seconds()
	builds, stages := fixedBuilds, (*buildStages)(nil)
	if opt.Trace {
		builds, stages = 1, &p.Stages
	}
	if p.Tuner, err = buildFixedTuner(ctx, s.Alg, size, builds, stages); err != nil {
		return nil, err
	}
	p.SetupS += p.Tuner.LabelS + p.Tuner.BuildS
	return p, nil
}

// serving is a server with the client that reaches it.
type serving struct {
	Server *serve.Server
	Client client
	Log    *obslog.Log
	stop   []func() error
}

// startServing wraps the tuner as waco-serve does. An HTTP workload gets
// httptest.NewServer over srv.Handler() and an observation log, as
// waco-serve -obslog runs.
func startServing(s spec, ft *fixedTuner, tempDir string) (*serving, error) {
	sv := &serving{}
	var opts serve.Options
	if s.HTTP {
		if err := os.MkdirAll(tempDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tempDir, "obslog-")
		if err != nil {
			return nil, err
		}
		sv.stop = append(sv.stop, func() error { return os.RemoveAll(dir) })
		if sv.Log, err = obslog.Open(filepath.Join(dir, "observations.log"), obslog.Options{}); err != nil {
			return nil, errors.Join(err, sv.close(context.Background()))
		}
		sv.stop = append(sv.stop, sv.Log.Close)
		opts.ObsLog = sv.Log
	}
	var err error
	if sv.Server, err = serve.NewServer(ft.Tuner, opts); err != nil {
		return nil, errors.Join(err, sv.close(context.Background()))
	}
	sv.Client = inProcess{sv.Server}
	if s.HTTP {
		ts := httptest.NewServer(sv.Server.Handler())
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.Clients}}
		sv.stop = append(sv.stop, func() error {
			hc.CloseIdleConnections()
			ts.Close()
			return nil
		})
		sv.Client = overHTTP{base: ts.URL, hc: hc}
	}
	return sv, nil
}

// close stops the HTTP side, drains the server and removes the log, in the
// reverse of the order they were started.
func (sv *serving) close(ctx context.Context) error {
	var err error
	if sv.Server != nil {
		ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = sv.Server.Close(ctx)
		cancel()
	}
	for i := len(sv.stop) - 1; i >= 0; i-- {
		err = errors.Join(err, sv.stop[i]())
	}
	return err
}

// run executes one workload once and reports its metrics: the end-to-end
// ones when tracing is off, the per-layer ones from the traced replay
// otherwise.
func run(ctx context.Context, s spec, opt runOptions) (rep *report, err error) {
	rep = newReport(s.Name, opt.Trace)
	if opt.Short {
		s = s.shortened()
	}
	p, err := setUp(ctx, s, opt)
	if err != nil {
		return nil, err
	}
	if s.Build {
		rep.Attempted++ // the build is an operation
	}
	sv, err := startServing(s, p.Tuner, opt.TempDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := sv.close(ctx); err == nil {
			err = cerr
		}
	}()

	// Warm-up and hot set, untimed.
	warm, _ := execute(ctx, sv.Client, s.Clients, p.Plan.Prewarm, time.Hour, nil)
	for i, o := range warm {
		if o.Failure != "" {
			return nil, fmt.Errorf("warm-up op %d: %s", i, o.Failure)
		}
	}

	// The timed phase. A traced run of a one-client workload replays each op
	// right after it was answered, so that the two timings of an op see the
	// same host conditions; with several clients the replay comes after.
	deadline := max(time.Duration(deadlineFactor*opt.Seconds*float64(time.Second)), minDeadline)
	var rp *replayer
	var replayEach func(int, outcome)
	if opt.Trace {
		rp = newReplayer(p.Tuner.Tuner)
		replayEach = func(i int, o outcome) {
			if err := rp.replay(ctx, i, p.Plan.Ops[i], o.Tune); err != nil {
				rep.fail(fmt.Sprintf("replay of op %d (%v): %v", i, p.Plan.Ops[i].Kind, err))
			}
		}
	}
	if !s.Build {
		runtime.ReadMemStats(&p.Mem0)
	}
	var outcomes []outcome
	var wall time.Duration
	if opt.Trace && s.Clients == 1 {
		outcomes, wall = execute(ctx, sv.Client, 1, p.Plan.Ops, 2*deadline, replayEach)
	} else {
		outcomes, wall = execute(ctx, sv.Client, s.Clients, p.Plan.Ops, deadline, nil)
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	rep.Attempted += len(outcomes)
	rep.Wall = wall

	lat := map[opKind]*samples{opCold: {}, opHit: {}, opPredict: {}}
	var cold []coldSample
	wantSearches, sent := len(p.Plan.Prewarm), 0
	for i, o := range outcomes {
		kind := p.Plan.Ops[i].Kind
		if o.Failure != notSent {
			sent++
			if kind == opCold {
				wantSearches++
			}
		}
		if o.Failure != "" {
			rep.fail(fmt.Sprintf("op %d (%v): %s", i, kind, o.Failure))
			continue
		}
		lat[kind].addMs(o.Latency)
		if kind == opCold {
			cold = append(cold, coldSample{In: p.Plan.Ops[i].In, Latency: o.Latency, Tune: o.Tune})
		}
	}
	// Read before anything below calls the server again, so the counters
	// are the workload's own.
	snap, queueWait := sv.Server.Snapshot(), queueWaitMeanMs(sv.Server)
	if int(snap.Searches) != wantSearches {
		rep.fail(fmt.Sprintf("server ran %d searches for %d cold tunes", snap.Searches, wantSearches))
	}

	// Every winner is run against the reference and against the CSR default.
	v := verifier{ft: p.Tuner, alg: s.Alg}
	var speedup, overhead samples
	for i := range cold {
		cs := &cold[i]
		if cs.verdict, err = v.check(cs.In, cs.Tune.Schedule); err != nil {
			rep.fail(fmt.Sprintf("%s matrix %.12s: %v", cs.In.Family, cs.In.Fingerprint, err))
			continue
		}
		if cs.Wrong != "" {
			rep.Correct = false
			rep.fail(fmt.Sprintf("%s matrix %.12s: %s", cs.In.Family, cs.In.Fingerprint, cs.Wrong))
			continue
		}
		speedup.add(cs.CSRS / cs.TunedS)
		overhead.add(cs.Latency.Seconds() / cs.CSRS)
	}

	if !opt.Trace {
		coldN, hitN, predictN := len(*lat[opCold]), len(*lat[opHit]), len(*lat[opPredict])
		rep.set("setup_s", p.SetupS, 0)
		rep.set("cold_tune_p50_ms", lat[opCold].median(), coldN)
		rep.set("tuned_speedup_geomean", speedup.geomean(), len(speedup))
		rep.set("overhead_naive_calls_p50", overhead.median(), len(overhead))
		rep.set("cached_tune_p50_ms", lat[opHit].median(), hitN)
		rep.set("predict_p50_ms", lat[opPredict].median(), predictN)
		rep.set("predict_p90_ms", lat[opPredict].percentile(predictTail), predictN)
		rep.set("serve_req_per_s", float64(sent)/wall.Seconds(), sent)
		rep.set("build_s", p.Tuner.BuildS, 0)
		rep.set("alloc_mb_per_op", float64(mem1.TotalAlloc-p.Mem0.TotalAlloc)/1e6/float64(rep.Attempted), rep.Attempted)
		return rep, nil
	}

	hitPath, err := hitPathSample(ctx, sv.Server, cold)
	if err != nil {
		return nil, err
	}
	if s.Clients > 1 {
		for i, o := range outcomes {
			if o.Failure != notSent {
				replayEach(i, o)
			}
		}
	}
	if opt.TraceOut != "" {
		if err := rp.rec.writeFile(opt.TraceOut); err != nil {
			return nil, err
		}
	}
	layerMetrics(rep, layerInputs{
		Spec: s, Plan: p.Plan, Outcomes: outcomes, Lat: lat, Cold: cold, Replay: rp, HitPath: hitPath,
		Tuner: p.Tuner, Stages: p.Stages, Snap: snap, QueueWaitMs: queueWait, Log: sv.Log, Mem: mem1,
	})
	return rep, nil
}

// hitPathSample times in-process Server.Tune on matrices the server has
// already tuned: the hit path without HTTP.
func hitPathSample(ctx context.Context, srv *serve.Server, cold []coldSample) (samples, error) {
	var out samples
	for round := 0; round < 3; round++ {
		for _, cs := range cold {
			t0 := time.Now()
			res, err := srv.Tune(ctx, cs.In.COO)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			if res.Cached {
				out.add(d.Seconds() * 1e6)
			}
		}
	}
	return out, nil
}

// peakRSSMB reads the process's high-water resident set from /proc; 0 where
// there is none.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
