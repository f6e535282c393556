package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks. It returns NaN for an empty v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

// tail is the highest percentile, up to the 99th, that has at least ten
// samples beyond it; below forty samples there is no tail and it is the
// median.
func tail(v []float64) float64 {
	n := float64(len(v))
	if n < 40 {
		return median(v)
	}
	return percentile(v, math.Min(99, 100*(1-10/n)))
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) with its
// default "exclusive" method, which is how the steadiness of a metric
// across runs is judged. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		j = min(max(j, 1), n-1)
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// latencies collects operation latencies in microseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Microsecond)) }

func merge(ls ...latencies) latencies {
	var out latencies
	for _, l := range ls {
		out = append(out, l...)
	}
	return out
}
