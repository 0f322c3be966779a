package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, or the mean of the two middle
// values when len(xs) is even; 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads read here match the ones a Python check computes.
// One sample gives that sample three times; none gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// minBeyond is how many samples must rank above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder lists the percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailStat is the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, by the nearest-rank rule, with the
// sample count it was read from. Pct is 0 when no ladder step
// qualifies (fewer than 2×minBeyond samples).
type tailStat struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// tail reads the tail percentile of xs.
func tail(xs []float64) tailStat {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p/100 not being exact
		if rank >= 1 && n-rank >= minBeyond {
			return tailStat{Pct: p, Value: s[rank-1], N: n}
		}
	}
	return tailStat{N: n}
}

// summary is the median and quartiles of a metric's values over
// repeated runs, as the committed baseline stores them.
type summary struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"iqr_over_median"`
	Values []float64 `json:"values"`
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	s := summary{N: len(xs), Median: q2, Q1: q1, Q3: q3, Values: xs}
	if q2 != 0 {
		s.Spread = (q3 - q1) / math.Abs(q2)
	}
	return s
}
