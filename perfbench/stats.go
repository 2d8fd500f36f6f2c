package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile read off fewer is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (q in (0,1])
// and how many samples lie beyond it. It fails when fewer than minBeyond
// samples are beyond the rank, so a tail is never reported from too
// small a sample.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 || q <= 0 || q > 1 {
		return 0, fmt.Errorf("percentile q=%g of %d samples", q, n)
	}
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample (the mean of the middle two for an even
// count); it does not apply the tail rule, for small sets of repeats.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var logs float64
	for _, x := range v {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(v)))
}

// regret is the paper's measure of an advised order: the simulated
// bandwidth of the best order divided by that of the advised one, so 1
// means the advice picked a best order. bw maps an order key (orderKey)
// to its simulated bandwidth.
func regret(bw map[string]float64, advised []int) (float64, error) {
	got, ok := bw[orderKey(advised)]
	if !ok || got <= 0 {
		return 0, fmt.Errorf("advised order %v was not simulated", advised)
	}
	best := 0.0
	for _, b := range bw {
		best = math.Max(best, b)
	}
	return best / got, nil
}

func orderKey(sigma []int) string { return fmt.Sprint(sigma) }

// maxOf returns the largest value, or 0 for none.
func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/b, or 0 when b is 0, so an empty count never reports NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
