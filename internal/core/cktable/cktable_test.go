package cktable

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/metric"
)

// refAdd is the straightforward map-based accumulation AddSession replaces.
func refAdd(ref map[attr.Key]Counts, v attr.Vector, flags uint8, failed bool, maxDims int) {
	for _, m := range attr.MasksUpTo(maxDims) {
		k := attr.KeyOf(v, m)
		c := ref[k]
		c.Add(flags, failed)
		ref[k] = c
	}
}

func randVector(rng *rand.Rand) attr.Vector {
	var v attr.Vector
	for d := range v {
		v[d] = int32(rng.Intn(4))
	}
	return v
}

// TestPlanCoversMasksUpTo: the Gray-code plan visits exactly the masks of
// attr.MasksUpTo, each once, with diffs that chain from the empty mask.
func TestPlanCoversMasksUpTo(t *testing.T) {
	for maxDims := 1; maxDims <= attr.NumDims; maxDims++ {
		steps := planFor(maxDims)
		want := attr.MasksUpTo(maxDims)
		if len(steps) != len(want) {
			t.Fatalf("maxDims=%d: %d steps, want %d", maxDims, len(steps), len(want))
		}
		seen := make(map[attr.Mask]bool)
		prev := attr.Mask(0)
		for _, st := range steps {
			if st.mask == 0 || st.mask.Size() > maxDims {
				t.Fatalf("maxDims=%d: bad mask %v", maxDims, st.mask)
			}
			if seen[st.mask] {
				t.Fatalf("maxDims=%d: mask %v visited twice", maxDims, st.mask)
			}
			seen[st.mask] = true
			if prev^st.diff != st.mask {
				t.Fatalf("maxDims=%d: diff %v does not chain %v -> %v", maxDims, st.diff, prev, st.mask)
			}
			prev = st.mask
		}
	}
}

// TestIncrementalHashMatchesKeyHash: the walk's derived hashes equal the
// from-scratch KeyHash for every mask.
func TestIncrementalHashMatchesKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		v := randVector(rng)
		var h Hasher
		h.reset(v)
		var acc uint64
		prev := attr.Mask(0)
		for _, st := range planFor(attr.NumDims) {
			diff := st.mask ^ prev
			for d := attr.Dim(0); d < attr.NumDims; d++ {
				if diff.Has(d) {
					acc ^= h.dim[d]
				}
			}
			prev = st.mask
			got := mix64(acc ^ maskSalt[st.mask])
			if want := KeyHash(attr.KeyOf(v, st.mask)); got != want {
				t.Fatalf("hash mismatch for mask %v", st.mask)
			}
		}
	}
}

// TestTableMatchesMap: random sessions aggregated through the table and a
// reference map agree on every key, including misses.
func TestTableMatchesMap(t *testing.T) {
	for _, maxDims := range []int{1, 2, 3, attr.NumDims} {
		rng := rand.New(rand.NewSource(int64(maxDims)))
		tbl := Acquire(0, maxDims)
		ref := make(map[attr.Key]Counts)
		for i := 0; i < 400; i++ {
			v := randVector(rng)
			flags := uint8(rng.Intn(16))
			failed := flags&(1<<metric.JoinFailure) != 0
			tbl.AddSession(v, flags, failed)
			refAdd(ref, v, flags, failed, maxDims)
		}
		if tbl.Len() != len(ref) {
			t.Fatalf("maxDims=%d: Len=%d, want %d", maxDims, tbl.Len(), len(ref))
		}
		tbl.ForEach(func(k attr.Key, c Counts) {
			if ref[k] != c {
				t.Errorf("maxDims=%d: key %v counts %+v, want %+v", maxDims, k, c, ref[k])
			}
		})
		for k, want := range ref {
			if got, ok := tbl.Get(k); !ok || got != want {
				t.Errorf("maxDims=%d: Get(%v) = %+v/%v, want %+v", maxDims, k, got, ok, want)
			}
		}
		if _, ok := tbl.Get(attr.KeyOf(attr.Vector{9, 9, 9, 9, 9, 9, 9}, attr.AllDims)); ok {
			t.Error("absent key reported present")
		}
		tbl.Release()
	}
}

// TestTableGrowth forces repeated doubling and checks nothing is lost.
func TestTableGrowth(t *testing.T) {
	tbl := Acquire(0, attr.NumDims)
	start := len(tbl.slots)
	ref := make(map[attr.Key]Counts)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		var v attr.Vector
		for d := range v {
			v[d] = rng.Int31() // near-unique vectors: ~127 fresh keys each
		}
		tbl.AddSession(v, 1, false)
		refAdd(ref, v, 1, false, attr.NumDims)
	}
	if len(tbl.slots) <= start {
		t.Fatalf("table never grew (cap %d, used %d)", len(tbl.slots), tbl.used)
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("Len=%d, want %d", tbl.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tbl.Get(k); !ok || got != want {
			t.Fatalf("lost key %v after growth", k)
		}
	}
	tbl.Release()
}

// TestPoolReuseIsClean: a released table comes back empty.
func TestPoolReuseIsClean(t *testing.T) {
	tbl := Acquire(10, attr.NumDims)
	tbl.AddSession(attr.Vector{1, 2, 3, 4, 5, 6, 7}, 3, false)
	tbl.Release()
	reused := Acquire(10, attr.NumDims)
	defer reused.Release()
	if reused.Len() != 0 {
		t.Fatalf("pooled table not cleared: Len=%d", reused.Len())
	}
	if _, ok := reused.Get(attr.KeyOf(attr.Vector{1, 2, 3, 4, 5, 6, 7}, attr.AllDims)); ok {
		t.Fatal("stale key visible after Release")
	}
}

// TestMergeMatchesUnsharded: splitting a session stream across several
// tables and merging them must reproduce the single-table accumulation
// exactly — every cell, both lookup directions, any shard count.
func TestMergeMatchesUnsharded(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		for _, maxDims := range []int{2, attr.NumDims} {
			rng := rand.New(rand.NewSource(int64(31*shards + maxDims)))
			whole := Acquire(0, maxDims)
			parts := make([]*Table, shards)
			for s := range parts {
				parts[s] = Acquire(0, maxDims)
			}
			for i := 0; i < 500; i++ {
				v := randVector(rng)
				flags := uint8(rng.Intn(16))
				failed := flags&(1<<metric.JoinFailure) != 0
				whole.AddSession(v, flags, failed)
				parts[VectorHash(v)%uint64(shards)].AddSession(v, flags, failed)
			}
			merged := parts[0]
			for _, src := range parts[1:] {
				merged.Merge(src)
				src.Release()
			}
			if merged.Len() != whole.Len() {
				t.Fatalf("shards=%d maxDims=%d: merged Len=%d, want %d",
					shards, maxDims, merged.Len(), whole.Len())
			}
			whole.ForEach(func(k attr.Key, c Counts) {
				if got, ok := merged.Get(k); !ok || got != c {
					t.Errorf("shards=%d maxDims=%d: key %v merged %+v/%v, want %+v",
						shards, maxDims, k, got, ok, c)
				}
			})
			merged.ForEach(func(k attr.Key, c Counts) {
				if got, ok := whole.Get(k); !ok || got != c {
					t.Errorf("shards=%d maxDims=%d: merged-only key %v (%+v vs %+v/%v)",
						shards, maxDims, k, c, got, ok)
				}
			})
			merged.Release()
			whole.Release()
		}
	}
}

// TestMergeGrowsDestination: merging a large source into a small, nearly
// full destination must trigger growth without losing cells.
func TestMergeGrowsDestination(t *testing.T) {
	dst := Acquire(0, attr.NumDims)
	src := Acquire(0, attr.NumDims)
	defer dst.Release()
	defer src.Release()
	ref := make(map[attr.Key]Counts)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		var v attr.Vector
		for d := range v {
			v[d] = rng.Int31() // near-unique: ~127 fresh keys per session
		}
		dst.AddSession(v, 1, false)
		refAdd(ref, v, 1, false, attr.NumDims)
	}
	for i := 0; i < 400; i++ {
		var v attr.Vector
		for d := range v {
			v[d] = rng.Int31()
		}
		src.AddSession(v, 2, true)
		refAdd(ref, v, 2, true, attr.NumDims)
	}
	dst.Merge(src)
	if dst.Len() != len(ref) {
		t.Fatalf("Len=%d after growing merge, want %d", dst.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := dst.Get(k); !ok || got != want {
			t.Fatalf("key %v lost or wrong after growing merge: %+v/%v want %+v", k, got, ok, want)
		}
	}
}

// TestVectorHashMatchesLeafKeyHash: the shard partition hash is exactly the
// leaf key's hash, so equal vectors shard together and the partition is a
// pure function of the attribute vector.
func TestVectorHashMatchesLeafKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		v := randVector(rng)
		if VectorHash(v) != KeyHash(attr.KeyOf(v, attr.AllDims)) {
			t.Fatalf("VectorHash(%v) != KeyHash(leaf)", v)
		}
	}
}
