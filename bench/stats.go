package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles together with its size: every
// timing the benchmark prints carries the n it rests on.
type summary struct {
	N              int
	Q1, Median, Q3 float64
}

// summarize sorts a copy of xs and returns its median and quartiles. The
// quartiles use the same exclusive method as Python's
// statistics.quantiles(xs, n=4), so a spread computed here matches one
// computed from the result files with Python.
func summarize(xs []float64) summary {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{N: n, Q1: q(1), Median: median(s), Q3: q(3)}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// median returns the middle of a sorted sample (the mean of the two middle
// values for even sizes), or 0 for an empty one.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of a sorted sample by
// linear interpolation between the closest ranks, or 0 for an empty one.
func percentile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// tailLadder is the set of tail percentiles the benchmark may report.
var tailLadder = []float64{99.9, 99, 90}

// reportable reports whether a sample of n values supports percentile p: at
// least ten samples must lie beyond it, so p99 needs n >= 1000.
func reportable(p float64, n int) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9
}

// highestPercentile returns the highest percentile of tailLadder a sample of
// n values supports, or 0 when it supports none (fewer than 100 values).
func highestPercentile(n int) float64 {
	for _, p := range tailLadder {
		if reportable(p, n) {
			return p
		}
	}
	return 0
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides, returning 0 for a zero denominator so that a metric with no
// samples reads as 0 rather than as NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
