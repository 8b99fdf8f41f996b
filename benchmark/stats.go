package main

import "sort"

// summary is the spread of one metric's samples.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// they match what an outside script computes from the same samples.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// median is summarize(xs).Median.
func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
