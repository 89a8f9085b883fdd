package main

import (
	"math"
	"sort"
)

// quantile is the type-7 (linear interpolation) q-quantile of xs; xs is not
// modified. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
