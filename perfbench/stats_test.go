package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5.5, 1.25, 9, 2, 7, 3.5, 8, 4, 6, 10}, 3.125, 5.75, 8.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSummarizeSpread(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Median != 3 || s.Q1 != 1.5 || s.Q3 != 4.5 || s.Spread != 1 {
		t.Errorf("summarize = %+v", s)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

// The tail is the highest ladder percentile with at least ten samples
// ranked beyond it (nearest rank), reported with its sample count.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{5, 0, 0},    // too few for any percentile
		{19, 0, 0},   // p50 is rank 10: only 9 beyond
		{20, 50, 10}, // p50 rank 10, 10 beyond
		{40, 75, 30}, // p90 rank 36 leaves 4; p75 rank 30 leaves 10
		{120, 90, 108},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		got := tail(ramp(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.N != c.n {
			t.Errorf("tail(n=%d) = %+v, want pct %v value %v", c.n, got, c.pct, c.value)
		}
		if got.Pct > 0 && c.n-int(got.Value) < minBeyond {
			t.Errorf("tail(n=%d): only %d samples beyond", c.n, c.n-int(got.Value))
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	spans := []span{{Start: 0, End: 2}, {Start: 1, End: 3}, {Start: 5, End: 6}, {Start: 5.5, End: 5.7}}
	if got := covered(spans); math.Abs(got-4) > 1e-12 {
		t.Errorf("covered = %v, want 4", got)
	}
}
