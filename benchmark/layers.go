package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"waco/internal/costmodel"
	"waco/internal/obslog"
	"waco/internal/schedule"
	"waco/internal/serve"
)

// layerInputs is what a traced run hands to layerMetrics.
type layerInputs struct {
	Spec     spec
	Plan     *opPlan
	Outcomes []outcome
	Lat      map[opKind]*samples
	Cold     []coldSample
	Replay   *replayer
	HitPath  samples
	Tuner    *fixedTuner
	Stages   buildStages
	// Snap and QueueWaitMs are the server's counters as the timed phase left
	// them.
	Snap        serve.Stats
	QueueWaitMs float64
	Log         *obslog.Log
	Mem         runtime.MemStats
}

// layerMetrics fills the per-layer metrics from the replay's spans, the
// replay's counts and the program's own public counters. A metric whose
// layer the workload does not exercise stays 0.
func layerMetrics(rep *report, in layerInputs) {
	rec := in.Replay.rec
	selfs := rec.selfTimes()
	self := rec.stageSelf(selfs)

	// Per stage: self time per op that has it, and the total over cold ops.
	perOp := make(map[string]*samples)
	coldTotal := make(map[string]time.Duration)
	var coldWall time.Duration
	var extractNNZ int
	var extractAll time.Duration
	for i, stages := range self {
		kind := in.Plan.Ops[i].Kind
		for name, d := range stages {
			if perOp[name] == nil {
				perOp[name] = &samples{}
			}
			perOp[name].addMs(d)
			if kind == opCold {
				coldTotal[name] += d
				coldWall += d
			}
		}
		if d, ok := stages[stageExtract]; ok {
			extractAll += d
			extractNNZ += in.Plan.Ops[i].In.COO.NNZ()
		}
	}
	p50 := func(stage string) (float64, int) {
		if s := perOp[stage]; s != nil {
			return s.median(), len(*s)
		}
		return 0, 0
	}
	setP50 := func(metric, stage string) {
		v, n := p50(stage)
		rep.set(metric, v, n)
	}
	coldShare := func(stage string) float64 { return safeDiv(coldTotal[stage].Seconds(), coldWall.Seconds()) }

	// tensor
	rp := in.Replay
	rep.set("tensor.decode_json_ms_p50", rp.decode[false].median(), len(*rp.decode[false]))
	rep.set("tensor.decode_mm_ms_p50", rp.decode[true].median(), len(*rp.decode[true]))
	rep.set("tensor.decode_mb_per_s", safeDiv(float64(rp.bytes)/1e6, (rp.decode[false].sum()+rp.decode[true].sum())/1e3), 0)

	// serve
	snap := in.Snap
	setP50("serve.fingerprint_ms_p50", stageFingerprint)
	rep.set("serve.cold_tune_p90_ms", in.Lat[opCold].percentile(coldTail), len(*in.Lat[opCold]))
	rep.set("serve.cached_tune_p99_ms", in.Lat[opHit].percentile(cachedTail), len(*in.Lat[opHit]))
	rep.set("serve.hit_path_us_p50", in.HitPath.median(), len(in.HitPath))
	setP50("serve.encode_ms_p50", stageEncode)
	setP50("serve.predicted_cost_ms_p50", stagePredictedCost)
	rep.set("serve.cache_hit_share", safeDiv(float64(snap.CacheHits), float64(snap.CacheHits+snap.CacheMisses)), 0)
	rep.set("serve.searches", float64(snap.Searches), 0)
	rep.set("serve.deduped", float64(snap.DedupedSearches), 0)
	rep.set("serve.shed", float64(snap.ShedTune+snap.ShedPredict), 0)
	rep.set("serve.queue_wait_ms_mean", in.QueueWaitMs, 0)
	if in.Spec.HTTP {
		// What a hit costs over HTTP beyond the layers the replay walks.
		var walked samples
		for i, stages := range self {
			if in.Plan.Ops[i].Kind == opHit {
				walked.addMs(stages[stageDecode] + stages[stageFingerprint] + stages[stageEncode])
			}
		}
		rep.set("serve.http_overhead_ms_p50", in.Lat[opHit].median()-walked.median(), len(walked))
	}

	// costmodel and search, from every op that searched
	setP50("costmodel.extract_ms_p50", stageExtract)
	rep.set("costmodel.extract_ns_per_nnz", safeDiv(float64(extractAll.Nanoseconds()), float64(extractNNZ)), 0)
	rep.set("costmodel.extract_share", coldShare(stageExtract), 0)
	setP50("search.anns_ms_p50", stageANNS)

	var evals, pruned, evalShare, regret, rankRho samples
	var assembleCalls, assembledNNZ, probeRuns, rejects, skipped int
	var probeTime, winnerTime time.Duration
	for _, tt := range rp.tunes {
		evals.add(float64(tt.Evals))
		pruned.add(float64(tt.Pruned))
		evalShare.add(tt.EvalShare)
		assembleCalls += tt.AssembleCalls
		assembledNNZ += tt.AssembleCalls * in.Plan.Ops[tt.Op].In.COO.NNZ()
		probeRuns += tt.ProbeRuns
		rejects += tt.Rejects
		skipped += tt.Skipped
		probeTime += tt.ProbeTime
		winnerTime += tt.WinnerRun
		if len(tt.Probed) > 0 {
			best := math.Inf(1)
			for _, s := range tt.Probed {
				best = min(best, s)
			}
			regret.add(tt.Probed[0] / best)
		}
		if len(tt.Probed) >= 3 {
			rankRho.add(costmodel.Spearman(tt.Predicted, tt.Probed))
		}
	}
	tunes := float64(len(rp.tunes))
	rep.set("costmodel.top1_regret_geomean", regret.geomean(), len(regret))
	rep.set("costmodel.probe_rank_spearman_p50", rankRho.median(), len(rankRho))
	rep.set("search.evals_per_query_p50", evals.median(), len(evals))
	rep.set("search.eval_share", evalShare.median(), len(evalShare))
	rep.set("search.pruned_per_query_p50", pruned.median(), len(pruned))

	st := in.Stages
	rep.set("costmodel.train_s", st.TrainS, 0)
	rep.set("costmodel.train_pairs_per_s", safeDiv(float64(st.TrainPairs), st.TrainS), 0)
	rep.set("costmodel.holdout_spearman", st.HoldoutSpearman, 0)
	rep.set("search.index_build_s", st.IndexS, 0)
	rep.set("search.index_size", float64(len(in.Tuner.Tuner.Index.Schedules)), 0)
	rep.set("dataset.collect_s", st.CollectS, 0)
	rep.set("dataset.samples_per_s", safeDiv(float64(st.Samples), st.CollectS), 0)
	rep.set("dataset.excluded_share", 1-safeDiv(float64(st.Samples), float64(st.Requested)), 0)

	// format
	setP50Per := func(metric, stage string) { // per call, not per op
		var per samples
		for i, sp := range rec.spans {
			if sp.Name == stage {
				per.addMs(selfs[i])
			}
		}
		rep.set(metric, per.median(), len(per))
	}
	setP50Per("format.assemble_ms_per_cand_p50", stageAssemble)
	rep.set("format.assemble_ns_per_nnz", safeDiv(float64(coldTotal[stageAssemble].Nanoseconds()), float64(assembledNNZ)), 0)
	rep.set("format.assemble_calls_per_tune", safeDiv(float64(assembleCalls), tunes), len(rp.tunes))
	rep.set("format.assemble_share", coldShare(stageAssemble), 0)
	rep.set("format.storage_limit_rejects", float64(rejects), 0)

	// kernel
	setP50("kernel.workload_setup_ms_p50", stageWorkloadSetup)
	setP50Per("kernel.compile_ms_per_cand_p50", stageCompile)
	setP50("kernel.probe_ms_per_tune_p50", stageProbe)
	rep.set("kernel.probe_runs_per_tune", safeDiv(float64(probeRuns), tunes), len(rp.tunes))
	rep.set("kernel.probe_share", coldShare(stageProbe), 0)
	rep.set("kernel.probe_useful_share", safeDiv(winnerTime.Seconds(), probeTime.Seconds()), 0)
	setP50("kernel.final_ms_p50", stageFinal)
	rep.set("kernel.final_share", coldShare(stageFinal), 0)
	rep.set("kernel.candidates_skipped", float64(skipped), 0)

	var csrUs, tunedUs, mflops, bytesPerNNZ, breakEven, reported samples
	noGain := 0
	denseN := max(in.Tuner.Tuner.Cfg.Collect.DenseN, 1)
	if in.Spec.Alg == schedule.SpMV {
		denseN = 1
	}
	for _, cs := range in.Cold {
		if cs.TunedS == 0 {
			continue // not verified: already counted as failed
		}
		nnz := float64(cs.In.COO.NNZ())
		csrUs.add(cs.CSRS * 1e6)
		tunedUs.add(cs.TunedS * 1e6)
		mflops.add(2 * nnz * float64(denseN) / cs.TunedS / 1e6)
		bytesPerNNZ.add(float64(cs.Bytes) / nnz)
		reported.add(cs.Tune.TuningSeconds / cs.Latency.Seconds())
		if cs.TunedS < cs.CSRS {
			breakEven.add(cs.Latency.Seconds() / (cs.CSRS - cs.TunedS))
		} else {
			noGain++
		}
	}
	rep.set("kernel.csr_run_us_p50", csrUs.median(), len(csrUs))
	rep.set("kernel.tuned_run_us_p50", tunedUs.median(), len(tunedUs))
	rep.set("kernel.tuned_mflops_p50", mflops.median(), len(mflops))
	rep.set("format.winner_bytes_per_nnz", bytesPerNNZ.median(), len(bytesPerNNZ))

	// core
	var coreTune samples
	for _, sp := range rec.spans {
		if sp.Name == stageCore {
			coreTune.addMs(time.Duration(sp.End - sp.Start))
		}
	}
	rep.set("core.tune_ms_p50", coreTune.median(), len(coreTune))
	rep.set("core.reported_tuning_ratio", reported.median(), len(reported))
	rep.set("core.break_even_runs_p50", breakEven.median(), len(breakEven))
	rep.set("core.no_gain_share", safeDiv(float64(noGain), float64(len(csrUs))), len(csrUs))
	rep.set("core.seal_s", in.Tuner.SealS, 0)
	rep.set("core.load_s", in.Tuner.LoadS, 0)
	rep.set("core.artifact_mb", float64(len(in.Tuner.Artifact))/1e6, 0)

	// What the named stages leave of an untraced Server.Tune on the same
	// inputs, and what tracing itself cost.
	var named, traced, untraced samples
	for i, stages := range self {
		if in.Plan.Ops[i].Kind != opCold || in.Outcomes[i].Failure != "" {
			continue
		}
		var sum, all time.Duration
		for name, d := range stages {
			all += d
			if name != stageOp && name != stageCore {
				sum += d
			}
		}
		named.addMs(sum)
		traced.addMs(all)
		untraced.addMs(in.Outcomes[i].Latency)
	}
	if !in.Spec.HTTP {
		// Over HTTP the untraced figure also holds decode, encode, the
		// transport and the other client's contention; only an in-process
		// cold tune compares like with like.
		rep.set("core.unattributed_share", 1-safeDiv(named.median(), untraced.median()), len(named))
		rep.set("trace.overhead_share", safeDiv(traced.median(), untraced.median())-1, len(traced))
	}

	if in.Log != nil {
		rep.set("obslog.records", float64(in.Log.Appended()), 0)
		rep.set("obslog.dropped", float64(in.Log.Dropped()), 0)
	}
	rep.set("process.peak_rss_mb", peakRSSMB(), 0)
	rep.set("process.gc_pause_ms_total", float64(in.Mem.PauseTotalNs)/1e6, int(in.Mem.NumGC))
	rep.set("process.failed_share", safeDiv(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
}

// queueWaitMeanMs reads the pool's queue-wait histogram from the server's
// Prometheus text, the only place its sum and count are public.
func queueWaitMeanMs(srv *serve.Server) float64 {
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		return 0
	}
	series := map[string]float64{"waco_pool_queue_wait_seconds_sum": 0, "waco_pool_queue_wait_seconds_count": 0}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		if _, want := series[name]; want {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				series[name] = v
			}
		}
	}
	return safeDiv(series["waco_pool_queue_wait_seconds_sum"], series["waco_pool_queue_wait_seconds_count"]) * 1e3
}
