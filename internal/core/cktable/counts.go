// Package cktable is the epoch-aggregation engine behind the cluster count
// table (paper §3.1): for every session of a one-hour epoch it enumerates
// the up-to-127 attribute-subset cluster keys the session belongs to and
// accumulates per-cluster problem tallies.
//
// The engine exists because this enumeration is the dominant cost of the
// whole analysis at production volume: a Go map keyed by the 32-byte
// attr.Key re-hashes every key from scratch, 127 times per session. Here
// instead:
//
//   - storage is a flat open-addressing hash table (power-of-two capacity,
//     linear probing) of 64-byte slots {hash, key, Counts};
//   - keys are hashed with a 64-bit xor-decomposable scheme — one mixed
//     hash per (dimension, value) pair, xor-combined per subset and
//     finalised with a per-mask salt — so per-session enumeration walks the
//     masks in Gray-code order and derives each projected key and its hash
//     from the previous mask's partial state in O(changed bits);
//   - tables are recycled through a sync.Pool, so steady-state epoch
//     analysis allocates nothing: the slot array is cleared and reused, and
//     its grown capacity carries over to the next epoch.
//
// Iteration order over slots is a pure function of the inserted key set
// (the hash is seedless), never of insertion order; consumers that emit
// reports still sort, exactly as they did over map keys.
package cktable

import "repro/internal/metric"

// Counts aggregates one cluster's sessions across all four metrics in a
// single pass. cluster.Counts is an alias of this type.
type Counts struct {
	// Total is the number of sessions in the cluster.
	Total int32
	// Failed is the number of join-failed sessions (these do not define
	// the continuous metrics).
	Failed int32
	// Problems counts problem sessions per metric.
	Problems [metric.NumMetrics]int32
}

// Add accumulates one session: flags holds one problem bit per metric in
// metric order, failed mirrors QoE.JoinFailed.
func (c *Counts) Add(flags uint8, failed bool) {
	c.Total++
	if failed {
		c.Failed++
	}
	for m := 0; m < metric.NumMetrics; m++ {
		if flags&(1<<m) != 0 {
			c.Problems[m]++
		}
	}
}

// Merge accumulates another cell's tallies into c. All fields are integer
// sums, so merging is exact and order-independent — the property the sharded
// aggregation path relies on for bit-identical results at any worker count.
func (c *Counts) Merge(o Counts) {
	c.Total += o.Total
	c.Failed += o.Failed
	for m := 0; m < metric.NumMetrics; m++ {
		c.Problems[m] += o.Problems[m]
	}
}

// Sub removes another cell's tallies from c — the exact inverse of Merge.
// The sliding-window engine uses it to retire an expired sub-bucket: the
// counts are integer differences, so subtracting a previously merged cell
// restores the pre-merge tallies bit for bit.
func (c *Counts) Sub(o Counts) {
	c.Total -= o.Total
	c.Failed -= o.Failed
	for m := 0; m < metric.NumMetrics; m++ {
		c.Problems[m] -= o.Problems[m]
	}
}

// isZero reports whether every tally is zero — the condition under which a
// windowed cell holds no live sessions and its slot can be reclaimed.
func (c Counts) isZero() bool { return c == Counts{} }

// Sessions returns the number of sessions for which metric m is defined.
func (c Counts) Sessions(m metric.Metric) int32 {
	if m == metric.JoinFailure {
		return c.Total
	}
	return c.Total - c.Failed
}

// Ratio returns the problem ratio for metric m (0 when empty).
func (c Counts) Ratio(m metric.Metric) float64 {
	n := c.Sessions(m)
	if n == 0 {
		return 0
	}
	return float64(c.Problems[m]) / float64(n)
}
