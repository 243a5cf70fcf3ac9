package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile; a tail resting on fewer is one or two outliers, not a
// percentile.
const minTail = 10

// median returns the median of xs (the mean of the middle pair for an
// even count). It panics on an empty slice: every caller has at least
// one sample by construction.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs, refusing it when
// fewer than minTail samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	n := len(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minTail)
	}
	return sorted(xs)[idx], nil
}

// quartiles returns the first and third quartile of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), which is what the benchmark's steadiness check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
