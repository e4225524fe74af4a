package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, in per mille,
// highest first.
var tailLadder = []int{999, 990, 900, 500}

// tail applies the percentile rule: it reports the highest percentile on
// tailLadder that leaves at least ten samples beyond it, with its value
// (nearest rank) and the sample count. With fewer than 20 samples no
// percentile qualifies and the maximum is reported as percentile 100.
func tail(samples []float64) (pct, value float64, n int) {
	n = len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(samples)
	for _, q := range tailLadder {
		if n-rank(q, n) >= 10 {
			return float64(q) / 10, nearestRank(s, q), n
		}
	}
	return 100, s[n-1], n
}

// median returns the 50th percentile by nearest rank (0 for no samples).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return nearestRank(sorted(samples), 500)
}

// rank returns the 1-based nearest rank of the q-per-mille percentile of n
// samples: the smallest rank with at least q/1000 of the samples at or
// below it. Integer arithmetic keeps percentiles such as 99.9 exact.
func rank(q, n int) int { return max((q*n+999)/1000, 1) }

// nearestRank returns the q-per-mille percentile of sorted samples.
func nearestRank(s []float64, q int) float64 { return s[rank(q, len(s))-1] }

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// mean returns the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// geomean returns the geometric mean of positive values (0 for none).
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vals {
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vals)))
}

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
