package baselines

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"waco/internal/generate"
	"waco/internal/kernel"
	"waco/internal/nn"
	"waco/internal/schedule"
	"waco/internal/tensor"
)

func testProfile() kernel.MachineProfile {
	return kernel.MachineProfile{Name: "test", ThreadCap: 2}
}

func testWorkload(t *testing.T, alg schedule.Algorithm, seed int64) *kernel.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var coo *tensor.COO
	if alg.SparseOrder() == 3 {
		base := generate.Uniform(rng, 48, 48, 300)
		coo = generate.Tensor3D(rng, base, 16, 2)
	} else {
		coo = generate.Uniform(rng, 96, 96, 800)
	}
	wl, err := kernel.NewWorkload(alg, coo, 8)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestFixedCSRAllAlgorithms(t *testing.T) {
	for _, alg := range schedule.Algorithms {
		wl := testWorkload(t, alg, int64(alg)+1)
		tuned, err := (FixedCSR{}).Tune(wl, testProfile(), Config{Repeats: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if tuned.KernelSeconds <= 0 {
			t.Fatalf("%v: kernel time %g", alg, tuned.KernelSeconds)
		}
		if tuned.TuningSeconds != 0 {
			t.Fatalf("%v: FixedCSR should have no tuning time", alg)
		}
		if err := tuned.Schedule.Validate(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

func TestMKLLike(t *testing.T) {
	m := NewMKLLike()
	if m.Supports(schedule.SDDMM) || m.Supports(schedule.MTTKRP) {
		t.Fatal("MKL baseline must support only SpMV/SpMM")
	}
	for _, alg := range []schedule.Algorithm{schedule.SpMV, schedule.SpMM} {
		wl := testWorkload(t, alg, int64(alg)+10)
		tuned, err := m.Tune(wl, testProfile(), Config{Repeats: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if tuned.KernelSeconds <= 0 || tuned.TuningSeconds <= 0 {
			t.Fatalf("%v: times %g/%g", alg, tuned.KernelSeconds, tuned.TuningSeconds)
		}
		// The format must remain CSR (schedule-only tuning).
		if !tuned.Schedule.AFormat.Equal(schedule.DefaultSchedule(alg, 2).AFormat) {
			t.Fatalf("%v: MKL changed the format", alg)
		}
	}
	wl := testWorkload(t, schedule.SDDMM, 20)
	if _, err := m.Tune(wl, testProfile(), Config{Repeats: 1}); err == nil {
		t.Fatal("MKL accepted SDDMM")
	}
}

func TestASpTSpMMCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// A mix of dense columns and scattered entries exercises both paths.
	coo := generate.BlockDense(rng, 128, 128, 16, 10, 0.9)
	extra := generate.Uniform(rng, 128, 128, 500)
	for p := 0; p < extra.NNZ(); p++ {
		coo.Append(extra.Vals[p], extra.Coords[0][p], extra.Coords[1][p])
	}
	coo.SortRowMajor()
	coo.Dedup()

	b := tensor.NewDense(128, 16)
	b.FillIota()
	out := tensor.NewDense(128, 16)
	if err := NewASpT().SpMMInto(coo, b, out, 3); err != nil {
		t.Fatal(err)
	}
	ref := kernel.RefSpMM(coo, b)
	if d := out.MaxAbsDiff(ref); d > 2e-3 {
		t.Fatalf("ASpT SpMM differs from reference by %g", d)
	}
}

func TestASpTTune(t *testing.T) {
	a := NewASpT()
	if a.Supports(schedule.SpMV) || a.Supports(schedule.MTTKRP) {
		t.Fatal("ASpT must support only SpMM/SDDMM")
	}
	for _, alg := range []schedule.Algorithm{schedule.SpMM, schedule.SDDMM} {
		wl := testWorkload(t, alg, int64(alg)+40)
		tuned, err := a.Tune(wl, testProfile(), Config{Repeats: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if tuned.KernelSeconds <= 0 || tuned.ConvertSeconds <= 0 {
			t.Fatalf("%v: times %+v", alg, tuned)
		}
	}
	if _, err := a.Tune(testWorkload(t, schedule.SpMV, 50), testProfile(), Config{Repeats: 1}); err == nil {
		t.Fatal("ASpT accepted SpMV")
	}
}

func TestASpTPanelEdgeCases(t *testing.T) {
	// Rows not divisible by panel size; empty rows; single dense column.
	c := tensor.NewCOO([]int{70, 8}, 0)
	for i := 0; i < 70; i += 2 {
		c.Append(float32(i+1), int32(i), 3) // column 3 dense in every panel
	}
	c.SortRowMajor()
	b := tensor.NewDense(8, 4)
	b.FillIota()
	out := tensor.NewDense(70, 4)
	if err := NewASpT().SpMMInto(c, b, out, 2); err != nil {
		t.Fatal(err)
	}
	ref := kernel.RefSpMM(c, b)
	if d := out.MaxAbsDiff(ref); d > 1e-4 {
		t.Fatalf("edge-case ASpT differs by %g", d)
	}
}

func trainedBestFormat(t *testing.T, alg schedule.Algorithm) *BestFormat {
	t.Helper()
	bf := NewBestFormat(alg, 7)
	cc := generate.DefaultCorpusConfig()
	cc.Count = 6
	cc.MinDim = 64
	cc.MaxDim = 128
	cc.MaxNNZ = 2000
	cfg := TrainConfig{DenseN: 8, Repeats: 1, Epochs: 10, LR: 1e-2, Seed: 8, Profile: testProfile()}
	if err := bf.Train(generate.Corpus(cc), cfg); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBestFormatTrainAndTune(t *testing.T) {
	bf := trainedBestFormat(t, schedule.SpMM)
	wl := testWorkload(t, schedule.SpMM, 60)
	tuned, err := bf.Tune(wl, testProfile(), Config{Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.KernelSeconds <= 0 {
		t.Fatal("no kernel time")
	}
	if tuned.Info == "" {
		t.Fatal("no chosen-format info")
	}
	if err := tuned.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	// Prediction is stable and in range.
	p1 := bf.Predict(wl.COO)
	p2 := bf.Predict(wl.COO)
	if p1 != p2 || p1 < 0 || p1 >= len(bf.Candidates) {
		t.Fatalf("predictions %d, %d", p1, p2)
	}
}

func TestBestFormatUntrainedErrors(t *testing.T) {
	bf := NewBestFormat(schedule.SpMM, 1)
	wl := testWorkload(t, schedule.SpMM, 70)
	if _, err := bf.Tune(wl, testProfile(), Config{Repeats: 1}); err == nil {
		t.Fatal("untrained BestFormat tuned")
	}
}

func TestCandidateFormatsValid(t *testing.T) {
	for _, alg := range schedule.Algorithms {
		cands := CandidateFormats(alg)
		if len(cands) != 5 {
			t.Fatalf("%v: %d candidates, want 5", alg, len(cands))
		}
		for _, c := range cands {
			if err := c.F.Validate(); err != nil {
				t.Fatalf("%v %s: %v", alg, c.Name, err)
			}
			if c.F.Order() != alg.SparseOrder() {
				t.Fatalf("%v %s: wrong order", alg, c.Name)
			}
		}
	}
}

func TestBestEffortScheduleParallel(t *testing.T) {
	// SparseBlock (k1:U i1:U k0:C ...): the root is the reduction mode but
	// the row variable's level is Uncompressed, so hoisting keeps threads.
	ss := schedule.BestEffortSchedule(schedule.SpMM, CandidateFormats(schedule.SpMM)[4].F, 4, 32)
	if ss.Threads != 4 {
		t.Fatalf("sparse-block threads %d, want 4 (hoisted)", ss.Threads)
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	// CSC: the row variable's level is Compressed; hoisting would pay a
	// binary search per iteration, so the schedule stays concordant-serial.
	css := schedule.BestEffortSchedule(schedule.SpMM, CandidateFormats(schedule.SpMM)[1].F, 4, 32)
	if css.Threads != 1 {
		t.Fatalf("CSC threads %d, want 1 (serial concordant)", css.Threads)
	}
	if err := css.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCEGradient(t *testing.T) {
	logits := nn.NewGrad([]float32{0.5, -1, 2})
	loss := softmaxCE(logits, 1)
	if loss <= 0 {
		t.Fatalf("loss %g", loss)
	}
	// Gradient sums to zero (softmax property) and label entry is negative.
	var sum float64
	for _, d := range logits.D {
		sum += float64(d)
	}
	if math.Abs(sum) > 1e-5 {
		t.Fatalf("gradient sum %g", sum)
	}
	if logits.D[1] >= 0 {
		t.Fatal("label gradient not negative")
	}
	// Numeric check against finite differences.
	for i := range logits.V {
		const h = 1e-3
		probe := func(x float32) float64 {
			l2 := nn.NewGrad(append([]float32(nil), logits.V...))
			l2.V[i] = x
			return float64(softmaxCE(l2, 1))
		}
		want := (probe(logits.V[i]+h) - probe(logits.V[i]-h)) / (2 * h)
		if math.Abs(float64(logits.D[i])-want) > 1e-2 {
			t.Fatalf("logit %d: analytic %g numeric %g", i, logits.D[i], want)
		}
	}
}

func TestBestFormat3D(t *testing.T) {
	bf := NewBestFormat(schedule.MTTKRP, 9)
	rng := rand.New(rand.NewSource(80))
	base := generate.Uniform(rng, 32, 32, 200)
	t3 := generate.Tensor3D(rng, base, 8, 2)
	mats := []generate.Matrix{{Name: "t3", Family: "synthetic", COO: t3}}
	cfg := TrainConfig{DenseN: 4, Repeats: 1, Epochs: 5, LR: 1e-2, Seed: 10, Profile: testProfile()}
	if err := bf.Train(mats, cfg); err != nil {
		t.Fatal(err)
	}
	wl, err := kernel.NewWorkload(schedule.MTTKRP, t3, 4)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := bf.Tune(wl, testProfile(), Config{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.KernelSeconds <= 0 {
		t.Fatal("no kernel time")
	}
}

// TestStatsConsumersLeaveInput: ComputeStats and BestFormat.Predict only
// read their argument, so an unsorted, duplicate-bearing COO comes back
// bit-identical and Predict answers the same for it and its canonical form.
func TestStatsConsumersLeaveInput(t *testing.T) {
	c := tensor.NewCOO([]int{40, 40}, 8)
	for _, e := range [][2]int32{{30, 2}, {1, 1}, {30, 2}, {7, 39}, {1, 1}, {12, 12}, {0, 38}, {30, 2}} {
		c.Append(float32(e[0])+0.5, e[0], e[1])
	}
	before := c.Clone()
	tensor.ComputeStats(c)
	if !reflect.DeepEqual(c, before) {
		t.Fatalf("ComputeStats changed its input: %+v, was %+v", c, before)
	}
	bf := NewBestFormat(schedule.SpMM, 3)
	got := bf.Predict(c)
	if !reflect.DeepEqual(c, before) {
		t.Fatalf("Predict changed its input: %+v, was %+v", c, before)
	}
	canon := before.Clone()
	canon.SortRowMajor()
	canon.Dedup()
	if want := bf.Predict(canon); got != want {
		t.Fatalf("Predict = %d on the raw input, %d on its canonical form", got, want)
	}
}
