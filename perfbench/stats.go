package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule), or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly above the q-quantile: the number of
// observations a reported percentile rests on.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// nearestRank returns the q-quantile of integer samples by the nearest-rank
// rule. It is used for simulated latencies, whose digest must be exact.
func nearestRank(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// collect maps reps to one float each.
func collect(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}
