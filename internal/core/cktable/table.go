package cktable

import (
	mathbits "math/bits"
	"sync"

	"repro/internal/attr"
)

// slot is one open-addressing cell: 64 bytes, so a probe touches one cache
// line. hash is the key's finalised hash with bit 0 forced on; 0 marks an
// empty cell.
type slot struct {
	hash   uint64
	key    attr.Key
	counts Counts
}

// Table is the open-addressing cluster count table of one epoch. Obtain
// instances with Acquire and return them with Release; the zero value is
// not usable.
type Table struct {
	slots []slot
	// used counts occupied slots; the table grows when used exceeds 3/4 of
	// capacity.
	used    int
	maxUsed int
	plan    []step
}

var tablePool = sync.Pool{New: func() any { return new(Table) }}

// maxInitialSlots caps the Acquire pre-size: beyond ~2M slots (128 MB) the
// keys-per-session heuristic overshoots badly — at millions of sessions per
// epoch distinct-key cardinality saturates near the attribute universe, not
// sessions × masks — so large epochs start here and double on demand.
// Pooled reuse keeps whatever capacity growth settles on.
const maxInitialSlots = 1 << 21

// Acquire returns a cleared table ready for one epoch of sessions, drawn
// from the pool when possible so its slot array is reused across epochs.
//
// Sizing: cluster cardinality is driven by the subset enumeration, not by
// the session count alone — at the reproduction's synthetic volumes each
// session contributes ~100 distinct keys of the 127 it touches (the fine
// masks are nearly all unique), so the old map pre-size of 2× sessions was
// off by ~50× and rehashed continually. We pre-size for 64 keys per
// session at a 75% load ceiling (capped at maxInitialSlots) and double from
// there; pooled reuse makes the initial estimate matter only for the very
// first epoch.
func Acquire(sessions, maxDims int) *Table {
	t := tablePool.Get().(*Table)
	t.plan = planFor(maxDims)
	want := sessions * 64 * 4 / 3
	if want < 1024 {
		want = 1024
	}
	if want > maxInitialSlots {
		want = maxInitialSlots
	}
	if len(t.slots) < want {
		t.slots = make([]slot, nextPow2(want))
	}
	t.maxUsed = len(t.slots) / 4 * 3
	return t
}

// Release clears the table and returns it to the pool. The table must not
// be used afterwards.
func (t *Table) Release() {
	clear(t.slots)
	t.used = 0
	t.plan = nil
	tablePool.Put(t)
}

// Len returns the number of distinct keys in the table.
func (t *Table) Len() int { return t.used }

// AddSession enumerates every mask of the table's plan for attribute
// vector v and accumulates (flags, failed) into each projected cluster.
// The walk keeps a partial key and xor-accumulated hash, updating both
// only for the dimensions that changed since the previous mask.
func (t *Table) AddSession(v attr.Vector, flags uint8, failed bool) {
	for t.used+len(t.plan) > t.maxUsed {
		// Worst case every step inserts a fresh key; growing up front keeps
		// the inner loop free of capacity checks.
		t.grow()
	}
	var h Hasher
	h.reset(v)
	var cur attr.Key
	var acc uint64
	for _, st := range t.plan {
		diff := st.diff
		for diff != 0 {
			d := attr.Dim(mathbits.TrailingZeros8(uint8(diff)))
			diff &^= 1 << d
			acc ^= h.dim[d]
			if st.mask.Has(d) {
				cur.Vals[d] = v[d]
			} else {
				cur.Vals[d] = 0
			}
		}
		cur.Mask = st.mask
		t.upsert(mix64(acc^maskSalt[st.mask]), cur).Add(flags, failed)
	}
}

func (t *Table) upsert(h uint64, k attr.Key) *Counts {
	hs := h | 1
	mask := uint64(len(t.slots) - 1)
	for i := hs & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			s.hash = hs
			s.key = k
			t.used++
			return &s.counts
		}
		if s.hash == hs && s.key == k {
			return &s.counts
		}
	}
}

// Get returns the counts of key k and whether it is present.
func (t *Table) Get(k attr.Key) (Counts, bool) {
	if len(t.slots) == 0 {
		return Counts{}, false
	}
	hs := KeyHash(k) | 1
	mask := uint64(len(t.slots) - 1)
	for i := hs & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			return Counts{}, false
		}
		if s.hash == hs && s.key == k {
			return s.counts, true
		}
	}
}

// Merge folds every cell of src into t, summing counts cell-wise. It is a
// linear walk over src's slots: the stored hash of each occupied slot is the
// key's finalised hash, so no key is re-hashed and no subset enumeration
// reruns — this is what makes sharded epoch aggregation cheap to recombine.
// Counts are integer sums, so the merged table is identical (as a key→counts
// mapping) regardless of merge order or shard count. src is not modified;
// release it separately.
func (t *Table) Merge(src *Table) {
	// Reserve for the no-overlap worst case up front: one rehash instead of
	// a cascade of doublings, each of which would re-probe every live slot
	// and leave a dead half-size array behind for the GC.
	t.reserve(t.used + src.used)
	for i := range src.slots {
		s := &src.slots[i]
		if s.hash == 0 {
			continue
		}
		if t.used >= t.maxUsed {
			t.grow()
		}
		t.upsert(s.hash, s.key).Merge(s.counts)
	}
}

// Unmerge subtracts every cell of src from t, cell-wise — the exact inverse
// of a prior Merge(src). Like Merge it is a linear walk over src's slots
// probing t by the stored hash, so no key is re-hashed and no subset
// enumeration reruns. A cell whose counts reach zero is deleted and its
// slot reclaimed immediately by backward-shift compaction (no tombstones),
// so a long-running sliding window that merges and unmerges sub-bucket
// tables forever stays at the load factor of its live key set instead of
// accreting dead slots. Subtracting a key t does not hold, or driving any
// session tally negative, panics: the window contract is exact — src must
// be (cell-wise) contained in t.
func (t *Table) Unmerge(src *Table) {
	for i := range src.slots {
		s := &src.slots[i]
		if s.hash == 0 {
			continue
		}
		t.unmerge(s.hash, s.key, s.counts)
	}
}

func (t *Table) unmerge(h uint64, k attr.Key, c Counts) {
	if len(t.slots) == 0 {
		panic("cktable: Unmerge from an empty table")
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			panic("cktable: Unmerge of a key not present in the table")
		}
		if s.hash == h && s.key == k {
			s.counts.Sub(c)
			if s.counts.Total < 0 {
				panic("cktable: Unmerge drove a session count negative")
			}
			if s.counts.isZero() {
				t.deleteSlot(i)
			}
			return
		}
	}
}

// deleteSlot removes the entry at slot i with backward-shift compaction:
// subsequent probe-chain entries whose home position lies at or before the
// vacated slot shift back into it, preserving the linear-probing invariant
// (every key is reachable from its home slot with no gaps) without
// tombstones. The resulting layout can differ from a fresh build of the
// same key set — consumers already tolerate that, since Merge-built tables
// differ from AddSession-built ones the same way; nothing downstream reads
// slot order into results.
func (t *Table) deleteSlot(i uint64) {
	mask := uint64(len(t.slots) - 1)
	t.used--
	j := i
	for {
		t.slots[i] = slot{}
		for {
			j = (j + 1) & mask
			s := &t.slots[j]
			if s.hash == 0 {
				return
			}
			home := s.hash & mask
			// Entry j may move into the hole at i only if its home slot is
			// not cyclically within (i, j] — otherwise the move would place
			// it before its home and break its probe chain.
			if i <= j {
				if home <= i || home > j {
					break
				}
			} else if home <= i && home > j {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// reserve grows the table, in a single rehash, until it can hold n keys
// without exceeding the load ceiling.
func (t *Table) reserve(n int) {
	want := nextPow2(n*4/3 + 1)
	if want <= len(t.slots) {
		return
	}
	t.growTo(want)
}

// ForEach calls fn for every (key, counts) pair. The visit order is a pure
// function of the stored key set — deterministic across runs, unlike map
// ranges — but not sorted; consumers that need sorted keys sort as before.
func (t *Table) ForEach(fn func(k attr.Key, c Counts)) {
	for i := range t.slots {
		if t.slots[i].hash != 0 {
			fn(t.slots[i].key, t.slots[i].counts)
		}
	}
}

func (t *Table) grow() { t.growTo(2 * len(t.slots)) }

func (t *Table) growTo(newLen int) {
	old := t.slots
	t.slots = make([]slot, newLen)
	t.maxUsed = len(t.slots) / 4 * 3
	mask := uint64(len(t.slots) - 1)
	for i := range old {
		s := &old[i]
		if s.hash == 0 {
			continue
		}
		j := s.hash & mask
		for t.slots[j].hash != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = *s
	}
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (64 - mathbits.LeadingZeros64(uint64(n-1)))
}
