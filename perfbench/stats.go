package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks, the definition of Python's
// statistics.quantiles(method="inclusive") and NumPy's default. xs need
// not be sorted; it is not modified. An empty xs gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, the median and the third
// quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75)
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly greater than the q-quantile: a
// tail percentile is reported only when at least ten samples lie past
// it.
func beyond(xs []float64, q float64) int {
	p := percentile(xs, q)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// trimmedMean is the mean of xs without the trim share (0 <= trim <
// 0.5) of samples at each end of its sorted order. It is NaN for an empty
// xs.
//
// Per-program times are reported as a trimmed mean, not a median: the
// host's speed switches between states that last seconds, so a run's
// samples mix a fast and a slow mode, and a median jumps from one mode
// to the other as their shares cross one half, while a mean moves in
// proportion to them. Trimming keeps rare stalls out.
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// geomean is the geometric mean of xs, all of which must be positive;
// it returns NaN otherwise or for an empty xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
