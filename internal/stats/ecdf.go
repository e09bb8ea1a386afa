package stats

import (
	"fmt"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples, used to regenerate the paper's CDF figures (Fig. 1) and inverse
// CDFs (Figs. 7, 8).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples. The input is copied; NaNs are
// rejected.
func NewECDF(samples []float64) (*ECDF, error) {
	s := make([]float64, 0, len(samples))
	for i, v := range samples {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("stats: NaN sample at index %d", i)
		}
		s = append(s, v)
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x), the CDF evaluated at x. An empty ECDF returns 0.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Exceeds returns P(X > x), the inverse-CDF style fraction the paper plots
// in Figs. 7 and 8 ("fraction of problem clusters with value greater than x").
func (e *ECDF) Exceeds(x float64) float64 { return 1 - e.At(x) }

// Quantile returns the q-th quantile (q in [0, 1]) using nearest-rank on the
// sorted samples. Empty ECDFs return 0.
func (e *ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Summary holds the standard moments and order statistics of a sample set.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	P10, P50, P90  float64
	P95, P99, P999 float64
}

// Summarize computes a Summary. Empty input yields the zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	e, err := NewECDF(samples)
	if err != nil {
		return Summary{}
	}
	var sum, sq float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(len(samples))
	for _, v := range samples {
		d := v - mean
		sq += d * d
	}
	std := 0.0
	if len(samples) > 1 {
		std = math.Sqrt(sq / float64(len(samples)-1))
	}
	return Summary{
		N:    len(samples),
		Mean: mean, Std: std,
		Min: e.sorted[0], Max: e.sorted[len(e.sorted)-1],
		P10: e.Quantile(0.10), P50: e.Quantile(0.50), P90: e.Quantile(0.90),
		P95: e.Quantile(0.95), P99: e.Quantile(0.99), P999: e.Quantile(0.999),
	}
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
