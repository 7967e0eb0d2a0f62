package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie strictly beyond it, so a p99 needs at
// least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of
// ascending-sorted samples and whether the percentile rule allows
// reporting it: at least minBeyond samples must lie beyond the rank.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the median of the values (the mean of the middle two
// for an even count); 0 for none. The input is not modified.
func median(values []float64) float64 {
	q := quartiles(values)
	return q[1]
}

// trimmedMean returns the mean of the values left after dropping the
// lowest and highest trim share of them (at least one value is kept);
// 0 for none.
func trimmedMean(values []float64, trim float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	if len(s)-2*k < 1 {
		k = (len(s) - 1) / 2
	}
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k)
}

// harmonicMean returns n over the sum of reciprocals: for rates of
// equal work it is total work over total time. 0 for none.
func harmonicMean(rates []float64) float64 {
	inv := 0.0
	for _, r := range rates {
		inv += 1 / r
	}
	if inv == 0 {
		return 0
	}
	return float64(len(rates)) / inv
}

// quartiles returns the first quartile, median and third quartile of
// the values with the same "exclusive" method as Python's
// statistics.quantiles(values, n=4), so the run-to-run spread this
// benchmark records matches the one computed from its output. One
// value yields that value three times; none yields zeros.
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		// statistics.quantiles, method="exclusive": m = n+1.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMs returns the durations in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}
