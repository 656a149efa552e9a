package costmodel

import (
	"fmt"
	"math"
	"sort"

	"waco/internal/dataset"
)

// Ranks assigns average ranks (ties share the mean of their positions), the
// standard preprocessing for Spearman correlation.
func Ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && v[idx[j]] == v[idx[i]] { //waco:nolint floatcmp -- rank ties are defined by exact equality; nearly-equal values are distinct ranks by design
			j++
		}
		avg := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			r[idx[k]] = avg
		}
		i = j
	}
	return r
}

// Spearman computes the Spearman rank correlation between two score vectors.
// It returns 0 when either vector is constant (order is undefined). WACO's
// ranking loss means only candidate ORDER matters, so this is the repo's
// universal quality metric: the retrain promotion gate and the
// transfer-budget experiment both report it.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra, rb := Ranks(a), Ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var num, da, db float64
	for i := range ra {
		x, y := ra[i]-ma, rb[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

// RankQuality scores how well the model orders measured schedules: for every
// entry with at least three samples it predicts a cost per sampled schedule
// and correlates predictions against measured runtimes, returning the
// sample-weighted mean Spearman over all rankable entries. This is the
// promotion-gate metric cmd/waco-retrain uses — candidate and incumbent are
// both scored on the same held-out obslog slice and the candidate must not
// rank worse.
func RankQuality(m *Model, entries []*dataset.Entry) (float64, error) {
	b := NewInferBuffers()
	var weighted float64
	var weight int
	for _, e := range entries {
		if len(e.Samples) < 3 {
			continue // two points always correlate perfectly; no signal
		}
		b.Reset()
		feat, err := m.ExtractInfer(b, NewPattern(e.COO))
		if err != nil {
			continue // unscorable entry contributes nothing, as in search
		}
		feat = append([]float32(nil), feat...)
		preds := make([]float64, len(e.Samples))
		secs := make([]float64, len(e.Samples))
		embs := make([][]float32, len(e.Samples))
		for i := range e.Samples {
			b.Reset()
			embs[i] = append([]float32(nil), m.EmbedScheduleInfer(b, e.Samples[i].SS)...)
			secs[i] = e.Samples[i].Seconds
		}
		b.Reset()
		m.PredictHeadInto(b, feat, embs, preds)
		rho := Spearman(preds, secs)
		weighted += rho * float64(len(e.Samples))
		weight += len(e.Samples)
	}
	if weight == 0 {
		return 0, fmt.Errorf("costmodel: no rankable entries (need >= 3 samples per entry)")
	}
	return weighted / float64(weight), nil
}
