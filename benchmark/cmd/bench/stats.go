package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the p-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tail returns the highest percentile that still has at least ten samples
// beyond it, and its value. With fewer than 21 samples no percentile above
// the median qualifies, and the median is returned as "p50".
func tail(xs []float64) (label string, v float64) {
	s := sorted(xs)
	n := len(s)
	if n < 21 {
		return "p50", quantile(s, 0.5)
	}
	// s[n-11] has exactly ten samples above it.
	pct := 100 * float64(n-10) / float64(n)
	for _, std := range []float64{99.9, 99, 95, 90, 75} {
		if pct >= std {
			return fmt.Sprintf("p%g", std), quantile(s, std/100)
		}
	}
	return "p50", quantile(s, 0.5)
}
