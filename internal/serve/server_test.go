package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/generate"
	"waco/internal/schedule"
	"waco/internal/sparseconv"
	"waco/internal/tensor"
)

// testTuner builds one small SpMM tuner, shared across the package's tests
// (training even a tiny model dominates test time otherwise).
var (
	tunerOnce sync.Once
	tuner     *core.Tuner
	tunerErr  error
)

func quickTuner(t *testing.T) *core.Tuner {
	t.Helper()
	tunerOnce.Do(func() {
		cfg := core.DefaultConfig(schedule.SpMM)
		cfg.Collect.SchedulesPerMatrix = 8
		cfg.Collect.Repeats = 1
		cfg.Collect.DenseN = 8
		sp := schedule.DefaultSpace(schedule.SpMM)
		sp.SplitChoices = []int32{1, 2, 4, 8}
		sp.ThreadChoices = []int{1, 2}
		cfg.Collect.Space = sp
		cfg.Model = costmodel.Config{
			Extractor: costmodel.KindHumanFeature,
			ConvCfg:   sparseconv.Config{Dim: 2, Channels: 4, Depth: 2, FirstKernel: 3, OutDim: 12},
			EmbDim:    12,
			HeadDims:  []int{16},
			Seed:      1,
		}
		cfg.Train = costmodel.TrainConfig{Epochs: 3, PairsPerMatrix: 8, LR: 1e-3, Seed: 2, Loss: costmodel.LossRank}
		cfg.TopK = 3
		cfg.SearchEf = 24
		cc := generate.DefaultCorpusConfig()
		cc.Count = 5
		cc.MinDim, cc.MaxDim, cc.MaxNNZ = 64, 160, 2500
		tuner, _, tunerErr = core.Build(generate.Corpus(cc), cfg)
	})
	if tunerErr != nil {
		t.Fatal(tunerErr)
	}
	return tuner
}

func testMatrix(seed int64) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	return generate.Uniform(rng, 96, 96, 900)
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := NewServer(quickTuner(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTuneCachesByFingerprint(t *testing.T) {
	s := newTestServer(t, Options{})
	coo := testMatrix(1)

	first, err := s.Tune(context.Background(), coo)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Deduped {
		t.Fatalf("first request: cached=%v deduped=%v", first.Cached, first.Deduped)
	}
	if first.Schedule == "" || first.KernelSeconds <= 0 {
		t.Fatalf("degenerate result: %+v", first)
	}

	// Same pattern, different value distribution and append order: must be a
	// cache hit with no new search.
	clone := testMatrix(1)
	for i := range clone.Vals {
		clone.Vals[i] *= 3
	}
	second, err := s.Tune(context.Background(), clone)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat request was not served from the cache")
	}
	if second.Schedule != first.Schedule {
		t.Fatalf("cached schedule differs: %s vs %s", second.Schedule, first.Schedule)
	}

	st := s.Snapshot()
	if st.Searches != 1 {
		t.Fatalf("searches = %d, want 1", st.Searches)
	}
	// Exactly one miss for the one uncached request: the in-flight
	// double-check is a non-counting Peek, so the cold path no longer
	// counts twice.
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.TuneRequests != 2 {
		t.Fatalf("tune requests = %d, want 2", st.TuneRequests)
	}
}

// TestColdTunePredictedCostMatchesModel: on the float path, the predicted
// cost a cold tune reports (the search's own score for the winner) equals a
// fresh cost-model evaluation of the winning schedule.
func TestColdTunePredictedCostMatchesModel(t *testing.T) {
	s := newTestServer(t, Options{})
	tun := quickTuner(t)
	coo := testMatrix(7)
	res, err := s.Tune(context.Background(), coo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("first request was served from the cache")
	}
	var winner *schedule.SuperSchedule
	for _, ss := range tun.Index.Schedules {
		if ss.String() == res.Schedule {
			winner = ss
			break
		}
	}
	if winner == nil {
		t.Fatalf("winner %s is not an indexed schedule", res.Schedule)
	}
	want, err := tun.Model.Cost(costmodel.NewPattern(coo), winner)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PredictedCost-want) > 1e-9*math.Abs(want) {
		t.Fatalf("predicted_cost %v, model evaluates the winner at %v", res.PredictedCost, want)
	}
}

// TestCacheCountsAreExact is the satellite-bug regression at the server
// level: after N distinct and M duplicate (sequential, so cache-served) tune
// requests, misses == N and hits == M — the totals any hit-rate dashboard
// divides.
func TestCacheCountsAreExact(t *testing.T) {
	s := newTestServer(t, Options{})
	const distinct = 3
	const repeatsPer = 2
	for seed := int64(0); seed < distinct; seed++ {
		for rep := 0; rep <= repeatsPer; rep++ {
			if _, err := s.Tune(context.Background(), testMatrix(200+seed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Snapshot()
	if st.CacheMisses != distinct {
		t.Fatalf("cache misses = %d, want exactly %d (one per distinct matrix)", st.CacheMisses, distinct)
	}
	if st.CacheHits != distinct*repeatsPer {
		t.Fatalf("cache hits = %d, want %d", st.CacheHits, distinct*repeatsPer)
	}
	if st.Searches != distinct {
		t.Fatalf("searches = %d, want %d", st.Searches, distinct)
	}
	if st.DedupedSearches != 0 || st.FlightAbandoned != 0 {
		t.Fatalf("sequential requests deduped=%d abandoned=%d, want 0/0", st.DedupedSearches, st.FlightAbandoned)
	}
}

// TestConcurrentTuneMix is the -race exercised concurrency test: N
// goroutines with a mix of duplicate and distinct matrices. Whatever the
// interleaving, each distinct fingerprint must trigger exactly one search;
// every other request is absorbed by the cache or the flight group.
func TestConcurrentTuneMix(t *testing.T) {
	s := newTestServer(t, Options{MaxWorkers: 2})
	const goroutines = 24
	const distinct = 3

	var wg sync.WaitGroup
	results := make([]*TuneResult, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			coo := testMatrix(int64(100 + g%distinct))
			results[g], errs[g] = s.Tune(context.Background(), coo)
		}(g)
	}
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// Same fingerprint -> same schedule, regardless of delivery path.
	bySeed := map[int64]string{}
	for g, r := range results {
		seed := int64(100 + g%distinct)
		if prev, ok := bySeed[seed]; ok && prev != r.Schedule {
			t.Fatalf("seed %d got two schedules:\n  %s\n  %s", seed, prev, r.Schedule)
		}
		bySeed[seed] = r.Schedule
	}

	st := s.Snapshot()
	if st.Searches != distinct {
		t.Fatalf("searches = %d, want exactly %d (one per distinct fingerprint)", st.Searches, distinct)
	}
	// Conservation: every request was a fresh search, a flight join, or a
	// cache hit.
	if st.Searches+st.DedupedSearches+st.CacheHits != goroutines {
		t.Fatalf("searches %d + deduped %d + hits %d != %d requests",
			st.Searches, st.DedupedSearches, st.CacheHits, goroutines)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after drain", st.InFlight)
	}
}

func TestConcurrentPredict(t *testing.T) {
	s := newTestServer(t, Options{MaxWorkers: 4})
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scheds, err := s.Predict(context.Background(), testMatrix(int64(g)), 4)
			if err == nil && len(scheds) != 4 {
				err = fmt.Errorf("got %d schedules, want 4", len(scheds))
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if st := s.Snapshot(); st.PredictRequests != 12 {
		t.Fatalf("predict requests = %d", st.PredictRequests)
	}
}

func TestPredictRanksAscending(t *testing.T) {
	s := newTestServer(t, Options{})
	scheds, err := s.Predict(context.Background(), testMatrix(7), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(scheds) == 0 {
		t.Fatal("no schedules")
	}
	for i := 1; i < len(scheds); i++ {
		if scheds[i-1].Cost > scheds[i].Cost {
			t.Fatalf("costs not ascending at %d: %v > %v", i, scheds[i-1].Cost, scheds[i].Cost)
		}
	}
}

func TestServerRejectsAfterClose(t *testing.T) {
	s := newTestServer(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tune(context.Background(), testMatrix(1)); err != ErrShuttingDown {
		t.Fatalf("got %v, want ErrShuttingDown", err)
	}
	if _, err := s.Predict(context.Background(), testMatrix(1), 3); err != ErrShuttingDown {
		t.Fatalf("got %v, want ErrShuttingDown", err)
	}
}

func TestTuneHonorsContext(t *testing.T) {
	s := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Tune(ctx, testMatrix(55)); err == nil {
		t.Fatal("cancelled tune succeeded")
	}
	if st := s.Snapshot(); st.Errors == 0 {
		t.Fatal("error not counted")
	}
}

func TestTuneRejectsInvalidMatrix(t *testing.T) {
	s := newTestServer(t, Options{})
	bad := tensor.NewCOO([]int{4, 4}, 1)
	bad.Append(1, 9, 0) // out of range
	if _, err := s.Tune(context.Background(), bad); err == nil {
		t.Fatal("accepted out-of-range coordinate")
	}
}
