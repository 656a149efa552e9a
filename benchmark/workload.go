package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"waco/internal/schedule"
	"waco/internal/serve"
)

// predictK is the k of every predict request.
const predictK = 10

// warmupOps cold operations run before the clock starts, so that pooled
// scratch and first-touch page faults are not billed to the first samples.
const warmupOps = 5

// spec describes one workload. Operation counts are per second of run
// length (-seconds), so that a run of the contract's length does the same
// operations on every commit; they were sized on a 2-core host.
type spec struct {
	Name string
	Alg  schedule.Algorithm
	// HTTP sends requests through httptest.NewServer(srv.Handler()) with an
	// observation log attached, as waco-serve -obslog runs; otherwise the one
	// client calls Server.Tune and Server.Predict in-process.
	HTTP    bool
	Clients int
	// Build runs the offline pipeline first and serves the operations from
	// the tuner it produced.
	Build bool

	Cold    shape // unseen matrices tuned cold
	Hot     shape // pre-warmed hot set (HTTP mix only)
	HotSet  int
	Predict shape // unseen matrices for predict

	ColdPerSec    float64
	HitPerSec     float64
	PredictPerSec float64
}

// At run_seconds (20) every workload has at least 100 cold tunes, 1000 hits
// and 100 predicts, which the reported tails need.
var specs = []spec{
	{
		Name: "cold_spmm_small", Alg: schedule.SpMM, Clients: 1,
		Cold: shape{512, 4000}, Predict: shape{512, 4000},
		ColdPerSec: 15, HitPerSec: 50, PredictPerSec: 10,
	},
	{
		Name: "cold_spmv_large", Alg: schedule.SpMV, Clients: 1,
		Cold: shape{1024, 40000}, Predict: shape{1024, 40000},
		ColdPerSec: 5, HitPerSec: 50, PredictPerSec: 5,
	},
	{
		Name: "serve_mixed", Alg: schedule.SpMM, HTTP: true, Clients: 2,
		Cold: shape{512, 4000}, Hot: shape{1024, 20000}, HotSet: 8, Predict: shape{1024, 20000},
		ColdPerSec: 7.5, HitPerSec: 52.5, PredictPerSec: 15,
	},
	{
		Name: "offline_build", Alg: schedule.SpMM, Clients: 1, Build: true,
		Cold: shape{512, 4000}, Predict: shape{512, 4000},
		ColdPerSec: 5, HitPerSec: 50, PredictPerSec: 5,
	},
}

// shortened is the workload at smoke-test size: the same code paths on
// matrices a sixteenth the size.
func (s spec) shortened() spec {
	for _, sh := range []*shape{&s.Cold, &s.Hot, &s.Predict} {
		sh.Dim, sh.NNZ = sh.Dim/4, sh.NNZ/16
	}
	s.HotSet = min(s.HotSet, 2)
	return s
}

// tunerSize is the training-set size of the tuner the workload serves from.
func (s spec) tunerSize(short bool) tunerSize {
	switch {
	case s.Build && short:
		return shortOffline
	case s.Build:
		return fullOffline
	case short:
		return shortTuner
	}
	return fullTuner
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

type opKind uint8

const (
	opCold opKind = iota
	opHit
	opPredict
)

func (k opKind) String() string { return [...]string{"cold", "hit", "predict"}[k] }

// op is one request of a workload.
type op struct {
	Kind opKind
	In   *input
}

// outcome is what one op came to. Failure is empty for a success.
type outcome struct {
	Latency time.Duration
	Failure string
	Tune    *serve.TuneResult
}

// opPlan is everything a run sends: the hot set and warm-up operations that
// go first, untimed, and the timed operations in order.
type opPlan struct {
	Prewarm []op
	Ops     []op
}

// perRun turns a per-second count into a run's count, at least one.
func perRun(perSec, seconds float64) int {
	n := int(perSec*seconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// plan generates the workload's inputs from the seed and lays out its
// operations. An in-process workload follows each cold tune with its share
// of cache hits on the matrices tuned so far and of predicts on unseen ones;
// the HTTP mix shuffles the three kinds with a seeded permutation.
func (s spec) plan(g *generator, seconds float64) (*opPlan, error) {
	nCold, nHit, nPredict := perRun(s.ColdPerSec, seconds), perRun(s.HitPerSec, seconds), perRun(s.PredictPerSec, seconds)
	tuneEP, predictEP := noBody, noBody
	if s.HTTP {
		tuneEP, predictEP = tuneBody, predictBody
	}
	cold, err := g.stream(s.Name+"/cold", warmupOps+nCold, s.Cold, tuneEP)
	if err != nil {
		return nil, err
	}
	predict, err := g.stream(s.Name+"/predict", nPredict, s.Predict, predictEP)
	if err != nil {
		return nil, err
	}
	p := &opPlan{}
	for _, in := range cold[:warmupOps] {
		p.Prewarm = append(p.Prewarm, op{opCold, in})
	}
	cold = cold[warmupOps:]

	if s.HTTP {
		hot, err := g.stream(s.Name+"/hot", s.HotSet, s.Hot, tuneBody)
		if err != nil {
			return nil, err
		}
		for _, in := range hot {
			p.Prewarm = append(p.Prewarm, op{opCold, in})
		}
		for _, in := range cold {
			p.Ops = append(p.Ops, op{opCold, in})
		}
		for i := 0; i < nHit; i++ {
			p.Ops = append(p.Ops, op{opHit, hot[i%len(hot)]})
		}
		for _, in := range predict {
			p.Ops = append(p.Ops, op{opPredict, in})
		}
		rand.New(rand.NewSource(g.seed)).Shuffle(len(p.Ops), func(a, b int) { p.Ops[a], p.Ops[b] = p.Ops[b], p.Ops[a] })
		return p, nil
	}

	hits, predicts := 0, 0
	for i, in := range cold {
		p.Ops = append(p.Ops, op{opCold, in})
		for ; hits < (i+1)*nHit/nCold; hits++ {
			p.Ops = append(p.Ops, op{opHit, cold[hits%(i+1)]})
		}
		for ; predicts < (i+1)*nPredict/nCold; predicts++ {
			p.Ops = append(p.Ops, op{opPredict, predict[predicts]})
		}
	}
	return p, nil
}

// client is how a workload reaches the server: in-process or over HTTP.
type client interface {
	tune(ctx context.Context, in *input) (*serve.TuneResult, error)
	// predict returns how many schedules came back.
	predict(ctx context.Context, in *input) (int, error)
}

type inProcess struct{ srv *serve.Server }

func (c inProcess) tune(ctx context.Context, in *input) (*serve.TuneResult, error) {
	return c.srv.Tune(ctx, in.COO)
}

func (c inProcess) predict(ctx context.Context, in *input) (int, error) {
	out, err := c.srv.Predict(ctx, in.COO, predictK)
	return len(out), err
}

type overHTTP struct {
	base string
	hc   *http.Client
}

func (c overHTTP) post(ctx context.Context, path string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.120s", path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, into)
}

func (c overHTTP) tune(ctx context.Context, in *input) (*serve.TuneResult, error) {
	var res serve.TuneResult
	if err := c.post(ctx, "/v1/tune", in.Body, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (c overHTTP) predict(ctx context.Context, in *input) (int, error) {
	var res serve.PredictResponse
	err := c.post(ctx, "/v1/predict", in.Body, &res)
	return len(res.Schedules), err
}

// do sends one op and classifies the answer. An op fails on an error or a
// non-200 status, when a cold tune is answered from the cache or a joined
// search, when a hit is not, or when a predict returns other than k
// schedules.
func do(ctx context.Context, c client, o op) outcome {
	t0 := time.Now()
	var out outcome
	switch o.Kind {
	case opPredict:
		n, err := c.predict(ctx, o.In)
		out.Latency = time.Since(t0)
		if err != nil {
			out.Failure = err.Error()
		} else if n != predictK {
			out.Failure = fmt.Sprintf("predict returned %d schedules, want %d", n, predictK)
		}
	default:
		res, err := c.tune(ctx, o.In)
		out.Latency = time.Since(t0)
		switch {
		case err != nil:
			out.Failure = err.Error()
		case res.Fingerprint != o.In.Fingerprint:
			out.Failure = "answer carries another matrix's fingerprint"
		case o.Kind == opCold && (res.Cached || res.Deduped):
			out.Failure = fmt.Sprintf("cold tune delivered cached=%v deduped=%v", res.Cached, res.Deduped)
		case o.Kind == opHit && !res.Cached:
			out.Failure = "hot-set tune missed the cache"
		default:
			out.Tune = res
		}
	}
	return out
}

// notSent is the failure of an op the deadline kept from being sent.
const notSent = "not sent: the run was out of time"

// execute runs the ops closed-loop: each of the clients sends its next
// request only when the previous one has been answered. It stops handing
// out ops once the deadline has passed, so a run on a commit or host much
// slower than the counts were sized for still ends; the ops not sent fail
// as notSent, so a run cut short cannot pass for a complete one. after, if
// not nil, is called with each answered op by the client that sent it,
// before its next one.
func execute(ctx context.Context, c client, clients int, ops []op, deadline time.Duration, after func(i int, o outcome)) (out []outcome, wall time.Duration) {
	out = make([]outcome, len(ops))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The deadline is read before an op is claimed, so every claimed
			// op is sent and the ones sent are a prefix of ops.
			for time.Since(t0) <= deadline {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				out[i] = do(ctx, c, ops[i])
				if after != nil {
					after(i, out[i])
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(t0)
	for i := int(next.Load()); i < len(ops); i++ {
		out[i].Failure = notSent
	}
	return out, wall
}
