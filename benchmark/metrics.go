package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"
)

// metricDef names one metric. BENCHMARK.json repeats these and adds each
// end-to-end metric's regression bound; TestBenchmarkJSONMatches holds the
// two together.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// The tails reported beside the medians: for each kind of operation the
// highest percentile that the smallest sample any workload collects (100
// cold tunes, 1000 hits, 100 predicts) still supports (see supported). The
// cold-tune and hit tails are per-layer metrics: between runs of one commit
// they moved by more than their bounds (README.md has the spreads).
const (
	coldTail    = 90
	cachedTail  = 99
	predictTail = 90
)

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cold_tune_p50_ms", "ms", "lower"},
	{"tuned_speedup_geomean", "x", "higher"},
	{"overhead_naive_calls_p50", "count", "lower"},
	{"cached_tune_p50_ms", "ms", "lower"},
	{"predict_p50_ms", "ms", "lower"},
	{"predict_p90_ms", "ms", "lower"},
	{"serve_req_per_s", "1/s", "higher"},
	{"build_s", "s", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

var perLayer = []metricDef{
	{"tensor.decode_json_ms_p50", "ms", "lower"},
	{"tensor.decode_mm_ms_p50", "ms", "lower"},
	{"tensor.decode_mb_per_s", "MB/s", "higher"},

	{"serve.fingerprint_ms_p50", "ms", "lower"},
	{"serve.cold_tune_p90_ms", "ms", "lower"},
	{"serve.cached_tune_p99_ms", "ms", "lower"},
	{"serve.hit_path_us_p50", "us", "lower"},
	{"serve.http_overhead_ms_p50", "ms", "lower"},
	{"serve.encode_ms_p50", "ms", "lower"},
	{"serve.predicted_cost_ms_p50", "ms", "lower"},
	{"serve.cache_hit_share", "ratio", "higher"},
	{"serve.searches", "count", "lower"},
	{"serve.deduped", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.queue_wait_ms_mean", "ms", "lower"},

	{"costmodel.extract_ms_p50", "ms", "lower"},
	{"costmodel.extract_ns_per_nnz", "ns", "lower"},
	{"costmodel.extract_share", "ratio", "lower"},
	{"costmodel.top1_regret_geomean", "x", "lower"},
	{"costmodel.probe_rank_spearman_p50", "ratio", "higher"},
	{"costmodel.train_s", "s", "lower"},
	{"costmodel.train_pairs_per_s", "1/s", "higher"},
	{"costmodel.holdout_spearman", "ratio", "higher"},

	{"search.anns_ms_p50", "ms", "lower"},
	{"search.evals_per_query_p50", "count", "lower"},
	{"search.eval_share", "ratio", "lower"},
	{"search.pruned_per_query_p50", "count", "higher"},
	{"search.index_build_s", "s", "lower"},
	{"search.index_size", "count", "higher"},

	{"format.assemble_ms_per_cand_p50", "ms", "lower"},
	{"format.assemble_ns_per_nnz", "ns", "lower"},
	{"format.assemble_calls_per_tune", "count", "lower"},
	{"format.assemble_share", "ratio", "lower"},
	{"format.storage_limit_rejects", "count", "lower"},
	{"format.winner_bytes_per_nnz", "B", "lower"},

	{"kernel.workload_setup_ms_p50", "ms", "lower"},
	{"kernel.compile_ms_per_cand_p50", "ms", "lower"},
	{"kernel.probe_ms_per_tune_p50", "ms", "lower"},
	{"kernel.probe_runs_per_tune", "count", "lower"},
	{"kernel.probe_share", "ratio", "lower"},
	{"kernel.probe_useful_share", "ratio", "higher"},
	{"kernel.final_ms_p50", "ms", "lower"},
	{"kernel.final_share", "ratio", "lower"},
	{"kernel.candidates_skipped", "count", "lower"},
	{"kernel.csr_run_us_p50", "us", "lower"},
	{"kernel.tuned_run_us_p50", "us", "lower"},
	{"kernel.tuned_mflops_p50", "MFLOP/s", "higher"},

	{"core.tune_ms_p50", "ms", "lower"},
	{"core.reported_tuning_ratio", "ratio", "higher"},
	{"core.unattributed_share", "ratio", "lower"},
	{"core.break_even_runs_p50", "count", "lower"},
	{"core.no_gain_share", "ratio", "lower"},
	{"core.seal_s", "s", "lower"},
	{"core.load_s", "s", "lower"},
	{"core.artifact_mb", "MB", "lower"},

	{"dataset.collect_s", "s", "lower"},
	{"dataset.samples_per_s", "1/s", "higher"},
	{"dataset.excluded_share", "ratio", "lower"},

	{"obslog.records", "count", "higher"},
	{"obslog.dropped", "count", "lower"},

	{"process.peak_rss_mb", "MB", "lower"},
	{"process.gc_pause_ms_total", "ms", "lower"},
	{"process.failed_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// value is one measured metric: N is how many samples stand behind it (0
// for a count or a single measurement).
type value struct {
	V float64
	N int
}

// report is one run of one workload.
type report struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	Correct   bool
	Wall      time.Duration // the timed phase
	Failures  []string      // first few reasons, for the reader
	Values    map[string]value
}

func newReport(workload string, traced bool) *report {
	return &report{Workload: workload, Traced: traced, Correct: true, Values: make(map[string]value)}
}

func (r *report) set(name string, v float64, n int) { r.Values[name] = value{v, n} }

func (r *report) fail(reason string) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, reason)
	}
}

// defs are the metrics this run reports: the end-to-end ones from a timed
// run, the per-layer ones from a traced run.
func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line() ([]byte, error) {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]resultItem)}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = resultItem{Value: r.Values[d.Name].V, Unit: d.Unit}
	}
	return json.Marshal(out)
}

// print writes every metric by name with its unit and sample count.
func (r *report) print(w io.Writer) {
	kind := "end-to-end (timed run, tracing off)"
	if r.Traced {
		kind = "per-layer (traced replay)"
	}
	fmt.Fprintf(w, "\n== %s: %s ==\n", r.Workload, kind)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, d := range r.defs() {
		v := r.Values[d.Name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", d.Name, v.V, d.Unit, n)
	}
	tw.Flush()
	fmt.Fprintf(w, "attempted %d  failed %d  failed_share %.4g  outputs correct: %v  timed phase %.1fs\n",
		r.Attempted, r.Failed, safeDiv(float64(r.Failed), float64(r.Attempted)), r.Correct, r.Wall.Seconds())
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedDef `json:"end_to_end"`
	PerLayer []metricDef  `json:"per_layer"`
}

type boundedDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
