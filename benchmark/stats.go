package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted is the q-quantile of an ascending slice, linearly
// interpolated between the two nearest ranks. Empty input gives 0.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// tailPercentile reports the highest of the percentiles 99, 95, 90 that
// has at least ten samples beyond it, and its value: a p95 over 100
// samples would be set by five of them. With fewer than 100 samples no
// tail percentile is supported and ok is false.
func tailPercentile(s []float64) (pct int, value float64, ok bool) {
	for _, p := range []int{99, 95, 90} {
		if float64(len(s))*float64(100-p)/100 >= 10 {
			return p, quantileSorted(s, float64(p)/100), true
		}
	}
	return 0, 0, false
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method): the
// measure the driver accepts or refuses the benchmark by.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	med := quantileSorted(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
