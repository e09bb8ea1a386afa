// Package critical implements the paper's phase-transition algorithm for
// identifying critical clusters (§3.2, Fig. 5): minimal attribute
// combinations that explain the problem clusters around them. A problem
// cluster C is critical when
//
//   - upward: for every immediate parent P (one attribute removed), P is
//     not a problem cluster at all, or P ceases to be one once C's sessions
//     are removed ("removing any one attribute from this set will reduce
//     the problem ratio"); clusters losing statistical significance after
//     removal count as ceasing; and
//
//   - downward: its statistically significant descendants are themselves
//     problem clusters ("adding any attribute to it will continue to be a
//     problem cluster"). Real data is noisy, so the test is
//     session-weighted: along every free dimension, at least
//     Options.ChildProblemFraction of the sessions inside significant
//     children must lie in children that are problem clusters.
//
// When attributes are fully correlated (a Site using a single CDN), both
// the coarse and the fine combination pass; following the paper's footnote
// 5, the algorithm prefers the more compact description and drops a
// critical cluster whose sessions are almost entirely those of a critical
// ancestor.
//
// The package also attributes problem clusters and problem sessions to
// their nearest critical ancestors, splitting ties equally (paper §3.2
// "equally divide the attribution"), which yields the coverage numbers of
// Table 1 and the per-cluster volumes the what-if analysis fixes.
package critical

import (
	"math/bits"
	"sort"

	"repro/internal/attr"
	"repro/internal/cluster"
)

// Options tunes the noise handling of the detector. The zero value is not
// valid; use DefaultOptions.
type Options struct {
	// ChildProblemFraction is the minimum session-weighted fraction of
	// significant children (per free dimension) that must be problem
	// clusters for the downward condition to hold.
	ChildProblemFraction float64
	// DedupeOverlap is the session-overlap fraction above which a critical
	// cluster is considered redundant with a critical ancestor and dropped
	// (correlated attributes; paper footnote 5).
	DedupeOverlap float64
}

// DefaultOptions returns the tuning used throughout the reproduction.
func DefaultOptions() Options {
	return Options{ChildProblemFraction: 0.6, DedupeOverlap: 0.8}
}

// Cluster is one detected critical cluster with its attribution tallies.
type Cluster struct {
	Key    attr.Key
	Counts cluster.Counts

	// AttributedProblems is the fractional number of problem sessions
	// attributed to this cluster (each problem session splits equally
	// among its nearest critical ancestors).
	AttributedProblems float64
	// AttributedSessions is the fractional number of sessions (problem or
	// not, metric defined) attributed likewise; the what-if analysis uses
	// it to compute the post-fix baseline.
	AttributedSessions float64
	// ProblemClusters is the fractional number of problem clusters
	// attributed to this cluster.
	ProblemClusters float64
}

// Result is the critical-cluster analysis of one (epoch, metric) view.
type Result struct {
	View *cluster.View
	// Critical maps each critical cluster key to its record.
	Critical map[attr.Key]*Cluster
	// CoveredProblems is the number of problem sessions matching at least
	// one critical cluster (Table 1's critical coverage numerator).
	CoveredProblems int32
	// ProblemsInProblemClusters is the number of problem sessions inside
	// at least one problem cluster (Table 1's problem coverage numerator).
	ProblemsInProblemClusters int32
}

// childAgg accumulates, for one candidate cluster and one added dimension,
// the sessions inside statistically significant children and the subset of
// those sessions inside children that are problem clusters.
type childAgg struct {
	sig, prob int64
}

// DetectOpts runs the phase-transition search and attribution passes over
// a problem-cluster view.
func DetectOpts(v *cluster.View, opts Options) *Result {
	r := &Result{View: v, Critical: make(map[attr.Key]*Cluster)}
	m := v.Metric

	childStats := buildChildStats(v)

	// Phase-transition test per problem cluster.
	for k, c := range v.Problem {
		if passesUp(v, k, c) && passesDown(v, k, childStats, opts) {
			r.Critical[k] = &Cluster{Key: k, Counts: c}
		}
	}

	dedupeCorrelated(v, r.Critical, opts)

	// Attribute problem clusters to nearest critical ancestors; a problem
	// cluster with no critical ancestor may instead be a coarse shadow of a
	// finer critical cluster beneath it (Fig. 5: CDN1 and ASN1 are problem
	// clusters explained by the critical CDN1∧ASN1), so fall back to
	// critical descendants. The keys are visited in sorted order so the
	// fractional attribution sums accumulate identically on every run (map
	// order would perturb their low bits).
	problemKeys := make([]attr.Key, 0, len(v.Problem))
	for k := range v.Problem {
		problemKeys = append(problemKeys, k)
	}
	sort.Slice(problemKeys, func(i, j int) bool { return problemKeys[i].Less(problemKeys[j]) })
	for _, k := range problemKeys {
		nearest := nearestCritical(r.Critical, k)
		if len(nearest) == 0 {
			nearest = criticalDescendants(r.Critical, k)
		}
		if len(nearest) == 0 {
			continue
		}
		share := 1 / float64(len(nearest))
		for _, ck := range nearest {
			r.Critical[ck].ProblemClusters += share
		}
	}

	// Attribute sessions (coverage pass). Group critical keys by mask for
	// fast matching.
	masks := criticalMasks(r.Critical)
	sessions := v.Table().Sessions
	var buf []attr.Key
	for i := range sessions {
		l := &sessions[i]
		if !l.Defined(m) {
			continue
		}
		buf = buf[:0]
		bestSize := -1
		for _, mk := range masks {
			key := attr.KeyOf(l.Attrs, mk)
			if _, ok := r.Critical[key]; !ok {
				continue
			}
			size := mk.Size()
			switch {
			case size > bestSize:
				bestSize = size
				buf = append(buf[:0], key)
			case size == bestSize:
				buf = append(buf, key)
			}
		}
		if len(buf) == 0 {
			continue
		}
		problem := l.Problem(m)
		if problem {
			r.CoveredProblems++
		}
		share := 1 / float64(len(buf))
		for _, key := range buf {
			cc := r.Critical[key]
			cc.AttributedSessions += share
			if problem {
				cc.AttributedProblems += share
			}
		}
	}

	r.ProblemsInProblemClusters = v.ProblemSessionsInClusters()
	return r
}

// buildChildStats aggregates significant-children statistics for every
// problem-cluster candidate in one pass over the count table. The entry for
// candidate P at dimension d covers P's children obtained by fixing d.
func buildChildStats(v *cluster.View) map[attr.Key]*[attr.NumDims]childAgg {
	m := v.Metric
	// One backing array for every candidate: two allocations total, and —
	// unlike Mask.Dims() — the inner dimension walk below allocates nothing
	// even though it runs for every significant key of the table.
	backing := make([][attr.NumDims]childAgg, len(v.Problem))
	stats := make(map[attr.Key]*[attr.NumDims]childAgg, len(v.Problem))
	next := 0
	for k := range v.Problem {
		stats[k] = &backing[next]
		next++
	}
	v.Table().ForEach(func(k attr.Key, c cluster.Counts) {
		n := c.Sessions(m)
		if n < v.MinSessions {
			return
		}
		// Children are judged by the ratio-only rule: a weak anchor's
		// descendants are too small for per-child z-significance, but their
		// uniformly elevated ratios are the downward pattern we test for.
		problem := v.IsProblemRatioOnly(c)
		for rem := k.Mask; rem != 0; {
			d := attr.Dim(bits.TrailingZeros8(uint8(rem)))
			rem = rem.Without(d)
			agg, ok := stats[k.Parent(d)]
			if !ok {
				continue
			}
			agg[d].sig += int64(n)
			if problem {
				agg[d].prob += int64(n)
			}
		}
	})
	return stats
}

// passesUp applies the per-parent removal test.
func passesUp(v *cluster.View, k attr.Key, c cluster.Counts) bool {
	m := v.Metric
	for _, p := range k.Parents() {
		if p.Mask == 0 {
			// The root's ratio is the global ratio, below the threshold by
			// construction (factor > 1): never a problem cluster.
			continue
		}
		pc := v.Counts(p)
		if !v.IsProblem(pc) {
			continue
		}
		// Remove C's sessions from P and re-test: the parent must cease to
		// be a (significant) problem cluster for C to be the transition
		// point.
		n := pc.Sessions(m) - c.Sessions(m)
		probs := pc.Problems[m] - c.Problems[m]
		if !v.IsProblemCounts(n, probs) {
			continue
		}
		// The parent stays a problem cluster without C: C does not explain
		// it, so C is not the transition point on this path.
		return false
	}
	return true
}

// passesDown applies the session-weighted descendants test.
func passesDown(v *cluster.View, k attr.Key, stats map[attr.Key]*[attr.NumDims]childAgg, opts Options) bool {
	agg := stats[k]
	if agg == nil {
		return true
	}
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		if k.Mask.Has(d) {
			continue
		}
		a := agg[d]
		if a.sig == 0 {
			// No statistically significant children along d: vacuous.
			continue
		}
		if float64(a.prob)/float64(a.sig) < opts.ChildProblemFraction {
			return false
		}
	}
	return true
}

// dedupeCorrelated removes critical clusters that are redundant refinements
// of a critical ancestor (correlated attributes: a Site on a single CDN
// yields identical Site and Site+CDN clusters; the paper prefers the more
// compact description).
func dedupeCorrelated(v *cluster.View, critical map[attr.Key]*Cluster, opts Options) {
	m := v.Metric
	keys := make([]attr.Key, 0, len(critical))
	for k := range critical {
		keys = append(keys, k)
	}
	// Visit finer keys first so chains collapse to the coarsest member.
	sort.Slice(keys, func(i, j int) bool {
		si, sj := keys[i].Mask.Size(), keys[j].Mask.Size()
		if si != sj {
			return si > sj
		}
		return keys[i].Less(keys[j])
	})
	for _, k := range keys {
		c, ok := critical[k]
		if !ok {
			continue
		}
		for _, sub := range k.SubKeys() {
			if sub == k {
				continue
			}
			anc, ok := critical[sub]
			if !ok {
				continue
			}
			ancN := anc.Counts.Sessions(m)
			if ancN > 0 && float64(c.Counts.Sessions(m)) >= opts.DedupeOverlap*float64(ancN) {
				delete(critical, k)
				break
			}
		}
	}
}

// nearestCritical returns the critical ancestors-or-self of key k with the
// largest mask size (the "nearest" explanation in the DAG). The result is
// sorted for determinism.
func nearestCritical(critical map[attr.Key]*Cluster, k attr.Key) []attr.Key {
	var best []attr.Key
	bestSize := -1
	for _, sub := range k.SubKeys() {
		if _, ok := critical[sub]; !ok {
			continue
		}
		size := sub.Mask.Size()
		switch {
		case size > bestSize:
			bestSize = size
			best = append(best[:0], sub)
		case size == bestSize:
			best = append(best, sub)
		}
	}
	sort.Slice(best, func(i, j int) bool { return best[i].Less(best[j]) })
	return best
}

// criticalDescendants returns the critical refinements of key k (critical
// keys that k subsumes), sorted for determinism.
func criticalDescendants(critical map[attr.Key]*Cluster, k attr.Key) []attr.Key {
	var out []attr.Key
	for ck := range critical {
		if ck != k && k.Subsumes(ck) {
			out = append(out, ck)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// criticalMasks lists the distinct masks of the critical set.
func criticalMasks(set map[attr.Key]*Cluster) []attr.Mask {
	seen := make(map[attr.Mask]bool)
	var out []attr.Mask
	for k := range set {
		if !seen[k.Mask] {
			seen[k.Mask] = true
			out = append(out, k.Mask)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Keys returns the critical cluster keys sorted for deterministic output.
func (r *Result) Keys() []attr.Key {
	out := make([]attr.Key, 0, len(r.Critical))
	for k := range r.Critical {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
