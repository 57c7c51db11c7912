package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between order statistics, or 0 when there are none (a phase in which no
// request was answered). vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(vals []float64) float64 { return quantile(vals, 0.75) - quantile(vals, 0.25) }

// ratio is a/b, or 0 when b is 0 (a rate over nothing observed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
