package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted, interpolating
// linearly between the two closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile is the highest percentile that leaves at least ten of
// n samples beyond it, capped at p99: p90 for 100 samples, p95 for
// 200, p99 from 1000 on.  Below 20 samples it falls back to the median.
// Each workload fixes n from its planned sample count, so a faster
// build reports the same percentile rather than a deeper one.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return math.Min(99, 100*(1-10/float64(n)))
}

// beyond counts the samples strictly above the p-th percentile value.
func beyond(sorted []float64, p float64) int {
	v := quantile(sorted, p/100)
	k := 0
	for _, x := range sorted {
		if x > v {
			k++
		}
	}
	return k
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads read the same here and in tooling
// built on it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func ceilLB(lb float64) int { return int(math.Ceil(lb - 1e-9)) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }
