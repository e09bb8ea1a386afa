package stats

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^alpha. Popularity of sites, ASNs, and content in the synthetic
// world follows Zipf laws, matching the long literature on video popularity
// the paper cites (§7, "Other video measurements").
//
// Sampling is by inverted CDF over precomputed cumulative weights: O(log n)
// per draw, exact, and allocation-free after construction.
type Zipf struct {
	cum []float64 // cumulative probabilities; cum[n-1] == 1
}

// NewZipf constructs a sampler over n ranks with exponent alpha >= 0
// (alpha = 0 is uniform).
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: Zipf needs n > 0, got %d", n)
	}
	if alpha < 0 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("stats: Zipf needs alpha >= 0, got %v", alpha)
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), alpha)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1
	return &Zipf{cum: cum}, nil
}

// Sample draws a rank using randomness from r.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// WeightedChoice samples an index proportionally to the given non-negative
// weights. It returns -1 when all weights are zero or the slice is empty.
func WeightedChoice(r *RNG, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// CumWeights precomputes a cumulative distribution for repeated sampling via
// SampleCum. Weights must be non-negative with a positive sum.
func CumWeights(weights []float64) ([]float64, error) {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("stats: negative weight %v at %d", w, i)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("stats: weights sum to %v, need > 0", total)
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1
	return cum, nil
}

// SampleCum draws an index from a cumulative distribution built by
// CumWeights.
func SampleCum(r *RNG, cum []float64) int {
	return sort.SearchFloat64s(cum, r.Float64())
}
