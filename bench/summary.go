package main

import "sort"

// summary describes the samples of one timing. With the handful of
// repetitions a run affords, quartiles are the widest spread that means
// anything: there are too few samples for a higher percentile.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize computes the median and the quartiles of Python's
// statistics.quantiles(v, n=4), the rule the benchmark contract names.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	out := summary{Min: s[0], Max: s[n-1], N: n, Q1: s[0], Q3: s[0]}
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n > 1 {
		out.Q1, out.Q3 = quartile(s, 1), quartile(s, 3)
	}
	return out
}

// quartile is the exclusive-method cut point i of 4 over sorted s.
func quartile(s []float64, i int) float64 {
	n := len(s)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	// As in Python, delta is taken after clamping, so tiny samples
	// extrapolate beyond their extremes.
	delta := i*(n+1) - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
