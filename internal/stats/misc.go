package stats

import (
	"math"
	"sort"
)

// Jaccard returns the Jaccard similarity |A∩B| / |A∪B| of two sets given as
// membership maps (paper Table 2 compares the top-100 critical clusters of
// metric pairs this way). Two empty sets have similarity 0.
func Jaccard[K comparable](a, b map[K]bool) float64 {
	inter, union := 0, 0
	for k := range a {
		if a[k] {
			union++
			if b[k] {
				inter++
			}
		}
	}
	for k := range b {
		if b[k] && !a[k] {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Streaks collapses a sorted slice of integer positions (epoch indexes in
// which a cluster was a problem cluster) into the lengths of its maximal
// runs of consecutive values. This is the paper's persistence measure
// (§4.1, Fig. 6): occurrences at epochs {2,3, 5,6,7} yield streaks {2, 3}.
// The input must be strictly increasing.
func Streaks(positions []int32) []int {
	if len(positions) == 0 {
		return nil
	}
	var runs []int
	runLen := 1
	for i := 1; i < len(positions); i++ {
		if positions[i] == positions[i-1]+1 {
			runLen++
			continue
		}
		runs = append(runs, runLen)
		runLen = 1
	}
	runs = append(runs, runLen)
	return runs
}

// MedianInt returns the median of a slice of ints using the lower middle for
// even lengths (matching nearest-rank). Zero for empty input.
func MedianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[(len(s)-1)/2]
}

// MaxInt returns the maximum (0 for empty input).
func MaxInt(xs []int) int {
	m := 0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series (0 for degenerate inputs). The paper's §2 observes that the four
// metrics' problem-ratio timeseries are only weakly correlated.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx <= 0 || syy <= 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
