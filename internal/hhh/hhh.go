// Package hhh implements the hierarchical heavy hitters baseline the paper
// contrasts its critical clusters against (§7, Zhang et al.): find every
// cluster whose problem-session volume — after discounting sessions already
// claimed by finer HHH clusters — exceeds a fraction φ of the total.
//
// The paper argues HHH is the wrong tool for root-cause attribution because
// it counts volume rather than problem concentration: a huge healthy ISP
// carries more problem sessions than a small broken one. The ablation
// benchmark quantifies exactly that, comparing HHH output against the
// phase-transition critical clusters on ground-truth events.
//
// Detection runs on flat, pooled storage in the style of the cktable
// engine: per level, a pass over the unclaimed problem sessions counts
// occurrences per key in an open-addressing table, a prefix sum over the
// occupied slots carves one shared positions array into per-key segments,
// and a second pass fills the segments — a counting sort that replaces the
// old map[attr.Key][]int32 (one map insert plus amortised slice growth per
// session×mask) with two linear scans and zero steady-state allocation.
package hhh

import (
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core/cktable"
	"repro/internal/metric"
)

// Config parameterises detection.
type Config struct {
	// Phi is the heavy-hitter fraction: a cluster is reported when its
	// discounted problem-session count is at least Phi × total problem
	// sessions. Classic values are 0.01–0.1.
	Phi float64
	// MaxDims caps the enumerated attribute-subset sizes (0 = all seven).
	MaxDims int
}

// DefaultConfig returns the baseline settings used by the ablation.
func DefaultConfig() Config { return Config{Phi: 0.02} }

// validate reports the first invalid field.
func (c Config) validate() error {
	if c.Phi <= 0 || c.Phi >= 1 {
		return fmt.Errorf("hhh: Phi %v out of (0,1)", c.Phi)
	}
	return nil
}

// Hitter is one detected hierarchical heavy hitter.
type Hitter struct {
	Key attr.Key
	// Discounted is the problem-session count not claimed by finer
	// hitters.
	Discounted int
	// Raw is the undiscounted problem-session count.
	Raw int
}

// Result is an epoch's HHH detection.
type Result struct {
	Metric metric.Metric
	// Total is the epoch's problem-session count.
	Total int
	// Hitters are sorted by discounted count descending.
	Hitters []Hitter
}

// levelMasks groups the subset masks by size so the per-level loop does not
// re-derive (and re-allocate) the grouping on every Detect call; within a
// size the masks keep attr.MasksUpTo's order, matching the map-based
// reference's stable sort.
var levelMasks = func() [attr.NumDims + 1][]attr.Mask {
	var lv [attr.NumDims + 1][]attr.Mask
	for _, mk := range attr.MasksUpTo(attr.NumDims) {
		lv[mk.Size()] = append(lv[mk.Size()], mk)
	}
	return lv
}()

// hslot is one occupied cell of the per-level counting table. hash is the
// key's cktable.KeyHash with bit 0 forced on so zero means empty; start/next
// delimit the key's segment of the shared positions array.
type hslot struct {
	hash  uint64
	key   attr.Key
	count int32
	start int32
	next  int32
}

// scratch holds every per-Detect buffer. Each Detect call owns one, and
// its passes (one per subset size) reuse the capacity.
type scratch struct {
	idx       []int32 // problem-session indices into the lites slice
	claimed   []bool  // per idx entry: claimed by a finer hitter
	slots     []hslot // open-addressing counting table, power-of-two len
	used      []int32 // occupied slot indices, for clearing and iteration
	maxUsed   int     // grow threshold: 75% load
	positions []int32 // per-key position segments, carved by prefix sum
	cands     []int32 // slot indices of threshold-crossing candidates
}

// resetTable clears the occupied slots (keeping capacity) and sizes the
// table for about hint keys if it has never been sized.
func (sc *scratch) resetTable(hint int) {
	for _, si := range sc.used {
		sc.slots[si] = hslot{}
	}
	sc.used = sc.used[:0]
	if len(sc.slots) == 0 {
		want := 1024
		for want*3/4 < hint && want < 1<<18 {
			want <<= 1
		}
		sc.slots = make([]hslot, want)
		sc.maxUsed = want * 3 / 4
	}
}

// grow doubles the table and re-probes the occupied slots by their stored
// hashes (no re-hashing), refreshing the used index list.
func (sc *scratch) grow() {
	old := sc.slots
	oldUsed := sc.used
	sc.slots = make([]hslot, len(old)*2)
	sc.maxUsed = len(sc.slots) * 3 / 4
	sc.used = sc.used[:0]
	mask := uint64(len(sc.slots) - 1)
	for _, si := range oldUsed {
		s := old[si]
		i := s.hash & mask
		for sc.slots[i].hash != 0 {
			i = (i + 1) & mask
		}
		sc.slots[i] = s
		sc.used = append(sc.used, int32(i))
	}
}

// upsert returns the slot for (h, key), inserting an empty one if absent.
func (sc *scratch) upsert(h uint64, key attr.Key) *hslot {
	mask := uint64(len(sc.slots) - 1)
	i := h & mask
	for {
		s := &sc.slots[i]
		if s.hash == 0 {
			if len(sc.used) >= sc.maxUsed {
				sc.grow()
				return sc.upsert(h, key)
			}
			s.hash, s.key = h, key
			sc.used = append(sc.used, int32(i))
			return s
		}
		if s.hash == h && s.key == key {
			return s
		}
		i = (i + 1) & mask
	}
}

// find returns the slot for (h, key), which must have been upserted.
func (sc *scratch) find(h uint64, key attr.Key) *hslot {
	mask := uint64(len(sc.slots) - 1)
	i := h & mask
	for {
		s := &sc.slots[i]
		if s.hash == h && s.key == key {
			return s
		}
		i = (i + 1) & mask
	}
}

func normDims(maxDims int) int {
	if maxDims <= 0 || maxDims > attr.NumDims {
		maxDims = attr.NumDims
	}
	return maxDims
}

// Detect runs bottom-up discounted heavy-hitter detection over one epoch of
// session digests for metric m: masks are processed finest-first; a cluster
// whose unclaimed problem sessions reach φ×total claims those sessions so
// coarser ancestors only count what remains (the classic "discounted"
// semantics). The output is bit-identical to the map-based reference
// implementation kept in this package's differential test.
func Detect(sessions []cluster.Lite, m metric.Metric, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxDims := normDims(cfg.MaxDims)
	sc := &scratch{}
	res := detectDiscounted(sessions, m, maxDims, cfg.Phi, sc)
	if len(res.Hitters) > 0 {
		// Raw (undiscounted) problem-session counts per key, aggregated once
		// through the pooled open-addressing engine instead of 127 map
		// increments per problem session.
		raw := cktable.Acquire(len(sc.idx), maxDims)
		for _, si := range sc.idx {
			raw.AddSession(sessions[si].Attrs, 0, false)
		}
		for i := range res.Hitters {
			c, _ := raw.Get(res.Hitters[i].Key)
			res.Hitters[i].Raw = int(c.Total)
		}
		raw.Release()
	}
	sortHitters(res)
	return res, nil
}

// DetectFromTable runs the same discounted detection over the sessions an
// epoch count table retains, taking the raw (undiscounted) per-cluster
// counts from the table's already-maintained Problems[m] tallies instead of
// re-enumerating every problem session's subset keys. This is the
// sliding-window path: the window engine keeps the count table current
// incrementally, so the 127-mask raw-count pass — the part of Detect that
// scales with the whole window rather than with the discounting working set
// — is free. Problems[m] equals Detect's raw table exactly because a
// session's problem bit is only ever set when metric m is defined for it.
//
// Discounted claims are inherently order-dependent (a finer hitter's claim
// changes every coarser count), so the claim passes themselves are rerun
// over the window's problem sessions rather than maintained decrementally;
// DESIGN.md records the measurements behind that choice. Output is
// bit-identical to Detect(tbl.Sessions, m, cfg).
func DetectFromTable(tbl *cluster.Table, m metric.Metric, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxDims := normDims(cfg.MaxDims)
	if maxDims > tbl.MaxDims {
		return nil, fmt.Errorf("hhh: MaxDims %d exceeds the table's %d", maxDims, tbl.MaxDims)
	}
	sc := &scratch{}
	res := detectDiscounted(tbl.Sessions, m, maxDims, cfg.Phi, sc)
	for i := range res.Hitters {
		res.Hitters[i].Raw = int(tbl.Get(res.Hitters[i].Key).Problems[m])
	}
	sortHitters(res)
	return res, nil
}

// detectDiscounted is the shared discounting core: it fills every Hitter
// field except Raw and leaves the hitters unsorted (sortHitters finishes
// the job). sc.idx holds the problem-session indices on return.
func detectDiscounted(sessions []cluster.Lite, m metric.Metric, maxDims int, phi float64, sc *scratch) *Result {
	// Problem sessions only.
	idx := sc.idx[:0]
	for i := range sessions {
		l := &sessions[i]
		if l.Defined(m) && l.Problem(m) {
			idx = append(idx, int32(i))
		}
	}
	sc.idx = idx
	res := &Result{Metric: m, Total: len(idx)}
	if res.Total == 0 {
		return res
	}
	threshold := phi * float64(res.Total)
	if threshold < 1 {
		threshold = 1
	}

	claimed := sc.claimed
	if cap(claimed) < len(idx) {
		claimed = make([]bool, len(idx))
	}
	claimed = claimed[:len(idx)]
	for i := range claimed {
		claimed[i] = false
	}
	sc.claimed = claimed

	for size := maxDims; size >= 1; size-- {
		level := levelMasks[size]

		// Pass A: count unclaimed problem sessions per key at this level.
		sc.resetTable(len(idx))
		for pos, si := range idx {
			if claimed[pos] {
				continue
			}
			l := &sessions[si]
			for _, mk := range level {
				key := attr.KeyOf(l.Attrs, mk)
				sc.upsert(cktable.KeyHash(key)|1, key).count++
			}
		}

		// Prefix sum carves the shared positions array into per-key
		// segments; pass B fills them in session order, so each segment
		// lists positions ascending exactly like the reference's append
		// loop.
		var total int32
		for _, si := range sc.used {
			s := &sc.slots[si]
			s.start = total
			s.next = total
			total += s.count
		}
		positions := sc.positions
		if cap(positions) < int(total) {
			positions = make([]int32, total)
		}
		positions = positions[:total]
		sc.positions = positions
		for pos, si := range idx {
			if claimed[pos] {
				continue
			}
			l := &sessions[si]
			for _, mk := range level {
				key := attr.KeyOf(l.Attrs, mk)
				s := sc.find(cktable.KeyHash(key)|1, key)
				positions[s.next] = int32(pos)
				s.next++
			}
		}

		// Keys reaching the threshold become hitters and claim their
		// sessions. Deterministic order: larger counts first, then key
		// order, so overlapping candidates claim stably.
		cands := sc.cands[:0]
		for _, si := range sc.used {
			if float64(sc.slots[si].count) >= threshold {
				cands = append(cands, si)
			}
		}
		sc.cands = cands
		sort.Slice(cands, func(i, j int) bool {
			a, b := sc.slots[cands[i]].count, sc.slots[cands[j]].count
			if a != b {
				return a > b
			}
			return sc.slots[cands[i]].key.Less(sc.slots[cands[j]].key)
		})
		for _, si := range cands {
			s := &sc.slots[si]
			n := 0
			for _, pos := range positions[s.start : s.start+s.count] {
				if !claimed[pos] {
					claimed[pos] = true
					n++
				}
			}
			// Overlap with an earlier hitter at this level may have
			// consumed some of the mass; whatever remains is still this
			// hitter's discounted count (the reference appends on any
			// n > 0 for threshold ≥ 1).
			if n > 0 {
				res.Hitters = append(res.Hitters, Hitter{Key: s.key, Discounted: n})
			}
		}
	}

	return res
}

// sortHitters applies the deterministic output order: discounted count
// descending, then key order.
func sortHitters(res *Result) {
	sort.SliceStable(res.Hitters, func(i, j int) bool {
		if res.Hitters[i].Discounted != res.Hitters[j].Discounted {
			return res.Hitters[i].Discounted > res.Hitters[j].Discounted
		}
		return res.Hitters[i].Key.Less(res.Hitters[j].Key)
	})
}
