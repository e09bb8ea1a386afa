package cluster

import (
	"runtime"
	"sync"

	"repro/internal/attr"
	"repro/internal/core/cktable"
	"repro/internal/epoch"
)

// ResolveWorkers maps a configured worker count to an effective one:
// values <= 0 mean GOMAXPROCS.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// NewTableParallel builds the same count table as NewTable by sharding the
// session stream across workers goroutines. Sessions are partitioned by the
// splitmix64 hash of their full attribute vector (cktable.VectorHash), so
// equal vectors — and therefore all fine-mask keys — stay shard-local; each
// worker fills its own pooled cktable plus a local root, and the shard
// tables are then combined pairwise (tree merge, concurrent rounds) via
// cktable.Table.Merge's linear slot walk.
//
// Every count is an integer sum, so the resulting table is identical — as a
// key→counts mapping, including the root — to NewTable's for any worker
// count; the differential tests in this package assert exactly that, and
// downstream consumers (BuildView, the critical detector) observe the table
// only through order-insensitive reads or explicit sorts.
func NewTableParallel(e epoch.Index, sessions []Lite, maxDims, workers int) *Table {
	workers = ResolveWorkers(workers)
	if workers > 256 {
		workers = 256 // shard ids are bytes; 256 shards is already absurd
	}
	if workers <= 1 {
		return NewTable(e, sessions, maxDims)
	}
	if maxDims <= 0 || maxDims > attr.NumDims {
		maxDims = attr.NumDims
	}

	// One serial pre-pass computes each session's shard so the per-worker
	// scans below test a byte instead of re-hashing the vector W times.
	ids := make([]uint8, len(sessions))
	for i := range sessions {
		ids[i] = uint8(cktable.VectorHash(sessions[i].Attrs) % uint64(workers))
	}

	shards := make([]*cktable.Table, workers)
	roots := make([]Counts, workers)
	sizeHint := len(sessions) / workers // workers >= 2 past the early return
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tbl := cktable.Acquire(sizeHint, maxDims)
			var root Counts
			me := uint8(w)
			for i := range sessions {
				if ids[i] != me {
					continue
				}
				l := &sessions[i]
				root.Add(l.Bits, l.Failed)
				tbl.AddSession(l.Attrs, l.Bits, l.Failed)
			}
			shards[w] = tbl
			roots[w] = root
		}(w)
	}
	wg.Wait()

	// Tree merge: log2(workers) concurrent rounds of pairwise merges, so
	// the serial fraction is one final merge instead of workers-1.
	for stride := 1; stride < workers; stride *= 2 {
		var mg sync.WaitGroup
		for j := 0; j+stride < workers; j += 2 * stride {
			mg.Add(1)
			go func(dst, src int) {
				defer mg.Done()
				shards[dst].Merge(shards[src])
				shards[src].Release()
				shards[src] = nil
				roots[dst].Merge(roots[src])
			}(j, j+stride)
		}
		mg.Wait()
	}

	return &Table{
		Epoch:    e,
		Root:     roots[0],
		Sessions: sessions,
		MaxDims:  maxDims,
		ck:       shards[0],
	}
}
