package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	for _, tc := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if s.N != len(tc.xs) || s.Q1 != tc.q1 || s.Median != tc.median || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %+v, want n=%d q1=%g median=%g q3=%g", tc.xs, s, len(tc.xs), tc.q1, tc.median, tc.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("summarize reordered its input: %v", xs)
	}
}

func TestSpread(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got, want := s.spread(), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("spread of an empty summary = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	s := sorted([]float64{10, 20, 30, 40, 50})
	for _, tc := range []struct{ p, want float64 }{
		{50, 30}, {25, 20}, {10, 14}, {99, 49.6}, {100, 50},
	} {
		if got := percentile(s, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %v, want %v", s, tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestHighestReportablePercentile(t *testing.T) {
	// A percentile needs ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if reportable(99, 999) || !reportable(99, 1000) {
		t.Error("p99 must need exactly 1000 samples")
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
	if got := ratio(3, 2); got != 1.5 {
		t.Errorf("ratio(3, 2) = %v, want 1.5", got)
	}
}
