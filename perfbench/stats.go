package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: p99
// needs at least 1000 samples, p90 at least 100.
const minTail = 10

// percentile returns the q-quantile of xs by nearest rank. It refuses a
// percentile the sample cannot support, one with fewer than minTail samples
// beyond it, so a tail figure always rests on real tail observations.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minTail, max(n-rank, 0), n)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// median is the middle of xs (the mean of the two middle values for an
// even count). Unlike percentile it accepts any non-empty sample: it
// summarizes repeated whole-run measurements, of which a run has few.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
