package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of measurements of one quantity.
type samples []float64

func (s *samples) add(v float64)         { *s = append(*s, v) }
func (s *samples) addMs(d time.Duration) { s.add(d.Seconds() * 1e3) }
func (s samples) median() float64        { return s.percentile(50) }

func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile interpolates linearly between the two nearest ranks; 0 for an
// empty set.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (pos-float64(lo))*(c[hi]-c[lo])
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// geomean skips non-positive values, which carry no ratio.
func (s samples) geomean() float64 {
	var logSum float64
	n := 0
	for _, v := range s {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the figure is one or two outliers.
const minBeyond = 10

// supported says whether n samples leave at least minBeyond of them beyond
// percentile p.
func supported(p, n int) bool {
	return n*(100-p) >= minBeyond*100
}
