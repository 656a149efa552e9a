package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Stage names. In-program tracing (ROADMAP item 1) should reuse them.
const (
	stageDecode        = "tensor.decode"
	stageFingerprint   = "serve.fingerprint"
	stageWorkloadSetup = "kernel.workload_setup"
	stageExtract       = "costmodel.extract"
	stageANNS          = "search.anns"
	stageAssemble      = "format.assemble"
	stageCompile       = "kernel.compile"
	stageProbe         = "kernel.probe"
	stageFinal         = "kernel.final"
	stagePredictedCost = "serve.predicted_cost"
	stageEncode        = "serve.encode"
	// stageOp is the root span of one operation; its self time is what the
	// named stages do not cover.
	stageOp = "op"
)

// span is one timed interval of the traced replay. Parent is an index into
// the recorder's spans, -1 for a root; Start and End are nanoseconds since
// the recorder was made.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. It belongs to the traced replay, which is
// one goroutine; the timed run never holds one.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// add records a span whose bounds were measured elsewhere, such as the
// extraction and search times a search.Result reports.
func (r *recorder) add(name string, op, parent int, start, end int64) {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, overlapping children counted once.
func (r *recorder) selfTimes() []time.Duration {
	children := make(map[int][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, edge), min(r.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// stageSelf sums the spans' self times per operation and stage name.
func (r *recorder) stageSelf(selfTimes []time.Duration) map[int]map[string]time.Duration {
	out := make(map[int]map[string]time.Duration)
	for i, d := range selfTimes {
		s := r.spans[i]
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]time.Duration)
		}
		out[s.Op][s.Name] += d
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
