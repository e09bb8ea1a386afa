// Package cluster implements the first stage of the paper's methodology
// (§3.1): grouping the sessions of a one-hour epoch into clusters — one per
// non-empty subset of the seven attributes with concrete values — and
// culling the statistically significant problem clusters, whose problem
// ratio is at least ProblemRatioFactor times the epoch's global ratio and
// whose size meets the minimum session floor.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/attr"
	"repro/internal/core/cktable"
	"repro/internal/core/eps"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/session"
)

// Lite is the per-session digest the analysis retains: the full attribute
// vector plus one problem bit per metric. JoinFailed doubles as the
// "continuous metrics undefined" marker.
type Lite struct {
	Attrs attr.Vector
	// Bits holds one problem flag per metric in metric order.
	Bits uint8
	// Failed mirrors QoE.JoinFailed.
	Failed bool
}

// Problem reports the problem flag for metric m.
func (l Lite) Problem(m metric.Metric) bool { return l.Bits&(1<<m) != 0 }

// Defined reports whether metric m was measurable.
func (l Lite) Defined(m metric.Metric) bool { return m == metric.JoinFailure || !l.Failed }

// Digest compresses a session under thresholds t.
func Digest(s *session.Session, t metric.Thresholds) Lite {
	var l Lite
	l.Attrs = s.Attrs
	l.Failed = s.QoE.JoinFailed
	for _, m := range metric.All() {
		if s.QoE.Problem(m, t) {
			l.Bits |= 1 << m
		}
	}
	return l
}

// Counts aggregates one cluster's sessions across all four metrics in a
// single pass. It is an alias of the aggregation engine's count cell, so
// the engine and its consumers share one representation.
type Counts = cktable.Counts

// Table is the cluster count table of one epoch: every attribute-subset
// cluster with at least one session, plus the root. Counts live in an
// open-addressing cktable rather than a Go map; read them through Get,
// Len, and ForEach. Tables built by NewTable draw their storage from a
// pool — call Release when done with one to make the next epoch's build
// allocation-free (skipping Release is safe, merely slower).
type Table struct {
	Epoch epoch.Index
	// Root aggregates the whole epoch.
	Root Counts
	// Sessions retains the per-session digests for coverage passes.
	Sessions []Lite
	// MaxDims limits the enumerated subset sizes (NumDims by default).
	MaxDims int

	ck *cktable.Table
}

// NewTable builds the count table for one epoch of sessions. maxDims <= 0
// enumerates all seven dimensions (the paper's full hierarchy). Storage is
// sized by the engine's keys-per-session heuristic (see cktable.Acquire) —
// cluster cardinality scales with sessions × enumerated masks, not with
// sessions alone.
func NewTable(e epoch.Index, sessions []Lite, maxDims int) *Table {
	if maxDims <= 0 || maxDims > attr.NumDims {
		maxDims = attr.NumDims
	}
	t := &Table{
		Epoch:    e,
		Sessions: sessions,
		MaxDims:  maxDims,
		ck:       cktable.Acquire(len(sessions), maxDims),
	}
	for i := range sessions {
		l := &sessions[i]
		t.Root.Add(l.Bits, l.Failed)
		t.ck.AddSession(l.Attrs, l.Bits, l.Failed)
	}
	return t
}

// AssembleTable wraps already-filled engine storage as an epoch count
// table — the aggregator's path, where each session was counted into its
// epoch's table on arrival, and the window engine's, where the window total
// is kept by merging and unmerging per-tick tables. The root counts are
// accumulated alongside, so there is nothing to rebuild from the sessions.
// Ownership of ck transfers to the returned table (Release returns it to
// the pool); sessions is retained for coverage passes exactly as NewTable
// retains its input, and its order is the order coverage and attribution
// passes will traverse.
func AssembleTable(e epoch.Index, sessions []Lite, maxDims int, ck *cktable.Table, root Counts) *Table {
	if maxDims <= 0 || maxDims > attr.NumDims {
		maxDims = attr.NumDims
	}
	return &Table{
		Epoch:    e,
		Root:     root,
		Sessions: sessions,
		MaxDims:  maxDims,
		ck:       ck,
	}
}

// Release returns the table's storage to the engine pool. The table (and
// any View built over it) must not be used afterwards.
func (t *Table) Release() {
	if t.ck != nil {
		t.ck.Release()
		t.ck = nil
	}
	t.Sessions = nil
}

// Get returns the counts of key k; the root key returns Root.
func (t *Table) Get(k attr.Key) Counts {
	if k.Mask == 0 {
		return t.Root
	}
	c, _ := t.ck.Get(k)
	return c
}

// Len returns the number of distinct non-root cluster keys.
func (t *Table) Len() int { return t.ck.Len() }

// ForEach calls fn for every non-root (key, counts) pair, in a
// deterministic but unsorted order (see cktable.Table.ForEach).
func (t *Table) ForEach(fn func(k attr.Key, c Counts)) { t.ck.ForEach(fn) }

// View is the problem-cluster view of one (epoch, metric) pair.
type View struct {
	Epoch  epoch.Index
	Metric metric.Metric
	// GlobalSessions and GlobalProblems aggregate the epoch.
	GlobalSessions int32
	GlobalProblems int32
	// GlobalRatio is the epoch's global problem ratio.
	GlobalRatio float64
	// Threshold is the absolute problem-ratio cutoff
	// (ProblemRatioFactor × GlobalRatio).
	Threshold float64
	// MinSessions is the statistical-significance size floor.
	MinSessions int32
	// MinZScore is the binomial significance requirement (0 disables).
	MinZScore float64
	// Problem is the set of problem clusters.
	Problem map[attr.Key]Counts

	table *Table
}

// BuildView extracts the problem clusters of metric m from a count table.
func BuildView(t *Table, m metric.Metric, th metric.Thresholds) (*View, error) {
	if err := th.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	v := &View{
		Epoch:          t.Epoch,
		Metric:         m,
		GlobalSessions: t.Root.Sessions(m),
		GlobalProblems: t.Root.Problems[m],
		GlobalRatio:    t.Root.Ratio(m),
		MinSessions:    int32(th.MinClusterSessions),
		MinZScore:      th.MinZScore,
		Problem:        make(map[attr.Key]Counts),
		table:          t,
	}
	v.Threshold = th.ProblemRatioFactor * v.GlobalRatio
	if eps.Zero(v.GlobalRatio) {
		return v, nil
	}
	t.ForEach(func(k attr.Key, c Counts) {
		if v.IsProblem(c) {
			v.Problem[k] = c
		}
	})
	return v, nil
}

// IsProblem applies the significance test to raw counts: the paper's
// two-part rule (ratio ≥ factor × global, size ≥ floor) plus the binomial
// z-score requirement when configured.
func (v *View) IsProblem(c Counts) bool {
	return v.IsProblemCounts(c.Sessions(v.Metric), c.Problems[v.Metric])
}

// IsProblemCounts is IsProblem on raw (sessions, problems) tallies; the
// critical-cluster detector uses it to re-test parents after removing a
// candidate's sessions.
func (v *View) IsProblemCounts(n, problems int32) bool {
	if n < v.MinSessions || v.Threshold <= 0 || n == 0 {
		return false
	}
	// Tolerance-aware: a cluster at exactly factor × global passes even when
	// the product sits one ulp below the quotient.
	if !eps.GTE(float64(problems)/float64(n), v.Threshold) {
		return false
	}
	if v.MinZScore > 0 {
		mean := float64(n) * v.GlobalRatio
		sd := math.Sqrt(float64(n) * v.GlobalRatio * (1 - v.GlobalRatio))
		if sd > 0 && float64(problems) < mean+v.MinZScore*sd {
			return false
		}
	}
	return true
}

// IsProblemRatioOnly applies the paper's literal two-part rule (ratio and
// size) without the z-score requirement. The critical-cluster detector's
// downward test uses it: descendants of a weak but huge anchor are
// individually too small to be z-significant, yet their uniformly elevated
// ratios are exactly the pattern the phase transition looks for.
func (v *View) IsProblemRatioOnly(c Counts) bool {
	n := c.Sessions(v.Metric)
	return n >= v.MinSessions && v.Threshold > 0 && eps.GTE(c.Ratio(v.Metric), v.Threshold)
}

// Counts returns the counts of key k from the underlying table (the root
// key returns the global counts).
func (v *View) Counts(k attr.Key) Counts { return v.table.Get(k) }

// Table returns the underlying count table.
func (v *View) Table() *Table { return v.table }

// ProblemSessionsInClusters returns how many problem sessions belong to at
// least one problem cluster — the paper's "problem cluster coverage"
// numerator (Table 1).
func (v *View) ProblemSessionsInClusters() int32 {
	if len(v.Problem) == 0 {
		return 0
	}
	masks := problemMasks(v.Problem)
	var covered int32
	for i := range v.table.Sessions {
		l := &v.table.Sessions[i]
		if !l.Defined(v.Metric) || !l.Problem(v.Metric) {
			continue
		}
		if matchesAny(l.Attrs, masks, v.Problem) {
			covered++
		}
	}
	return covered
}

// problemMasks returns the distinct masks present in a key set, sorted so
// downstream passes probe them in a deterministic order.
func problemMasks[V any](set map[attr.Key]V) []attr.Mask {
	seen := make(map[attr.Mask]bool)
	var masks []attr.Mask
	for k := range set {
		if !seen[k.Mask] {
			seen[k.Mask] = true
			masks = append(masks, k.Mask)
		}
	}
	sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
	return masks
}

func matchesAny[V any](v attr.Vector, masks []attr.Mask, set map[attr.Key]V) bool {
	for _, m := range masks {
		if _, ok := set[attr.KeyOf(v, m)]; ok {
			return true
		}
	}
	return false
}
