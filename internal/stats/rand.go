// Package stats supplies the small statistics substrate the analysis needs:
// a deterministic splittable random source, the heavy-tailed samplers that
// drive the synthetic workload (Zipf, lognormal, Pareto), empirical CDFs and
// quantiles for figure reproduction, streak extraction for the persistence
// analysis, and the Jaccard index used to compare critical clusters across
// metrics (paper Table 2).
//
// Go has no dominant data-analysis library; everything here is stdlib-only
// and purpose-built for the paper's computations.
package stats

import "math"

// RNG is a deterministic, splittable pseudo-random generator based on
// SplitMix64. Determinism matters: every experiment in the repository is
// reproducible from a single seed, and splitting lets independent model
// components (sites, ASNs, events, epochs) draw from decorrelated streams
// without sharing mutable state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split derives an independent generator from the current one, keyed by a
// caller-chosen label so the derived stream is stable regardless of how many
// draws the parent has made when unrelated code changes.
func (r *RNG) Split(label uint64) *RNG {
	// Mix the label through one SplitMix64 round against the seed state.
	z := r.state + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// uint64 returns the next 64 random bits.
func (r *RNG) uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// normFloat64 returns a standard normal variate (Box–Muller; one value per
// call keeps the generator splittable without cached state).
func (r *RNG) normFloat64() float64 {
	u := r.nonZero()
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// nonZero returns a uniform variate in (0, 1): the zero draw that would
// blow up a log or division is redrawn, preserving the draw sequence of the
// guard loops it replaces.
func (r *RNG) nonZero() float64 {
	for {
		if u := r.Float64(); u > 0 {
			return u
		}
	}
}

// LogNormal returns a lognormal variate with the given parameters of the
// underlying normal (mu, sigma). The median is e^mu.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.normFloat64())
}

// Pareto returns a Pareto variate with scale xm > 0 and shape alpha > 0.
// Heavy tails (small alpha) model the day-long problem events of paper §4.1.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	return xm / math.Pow(r.nonZero(), 1/alpha)
}

// Geometric returns the number of failures before the first success of a
// Bernoulli(p) process (support 0, 1, 2, …). p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("stats: Geometric with non-positive p")
	}
	u := r.nonZero()
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Poisson returns a Poisson variate with the given mean (Knuth's method;
// means here are small — event arrivals per epoch).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Beta returns a Beta(a, b) variate via Jöhnk's algorithm for small shape
// parameters and gamma ratios otherwise. Used for event severities.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.gamma(a)
	y := r.gamma(b)
	if x+y <= 0 {
		return 0.5
	}
	return x / (x + y)
}

// gamma returns a Gamma(shape, 1) variate using Marsaglia–Tsang.
func (r *RNG) gamma(shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		return r.gamma(shape+1) * math.Pow(r.nonZero(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.normFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.nonZero()
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
