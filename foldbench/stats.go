package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the highest percentile that leaves at least ten
// samples beyond it in a list of n. It depends on the job list size
// only, so a run with more rounds reports the same percentile.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 100
	}
	return 100 * float64(n-10) / float64(n)
}

// tail is the value at tailPercentile(len(xs)): the 11th largest, or
// the largest of ten or fewer (0 for none).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) <= 10 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
