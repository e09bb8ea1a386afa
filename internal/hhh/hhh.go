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
// Detection is the definition written with plain maps. It runs only on the
// ablation's sampled epochs, where its cost does not matter.
package hhh

import (
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/metric"
)

// Config parameterises detection.
type Config struct {
	// Phi is the heavy-hitter fraction: a cluster is reported when its
	// discounted problem-session count is at least Phi × total problem
	// sessions. Classic values are 0.01–0.1.
	Phi float64
	// MaxDims caps the enumerated attribute-subset sizes, in
	// [1, attr.NumDims].
	MaxDims int
}

// DefaultConfig returns the baseline settings used by the ablation.
func DefaultConfig() Config { return Config{Phi: 0.02, MaxDims: attr.NumDims} }

// validate reports the first invalid field. The Phi check is written in
// its negated in-range form so a NaN fails it.
func (c Config) validate() error {
	if !(c.Phi > 0 && c.Phi < 1) {
		return fmt.Errorf("hhh: Phi %v out of (0,1)", c.Phi)
	}
	if c.MaxDims < 1 || c.MaxDims > attr.NumDims {
		return fmt.Errorf("hhh: MaxDims %d out of [1,%d]", c.MaxDims, attr.NumDims)
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

// Detect runs bottom-up discounted heavy-hitter detection over one epoch of
// session digests for metric m: masks are processed finest-first; a cluster
// whose unclaimed problem sessions reach φ×total claims those sessions so
// coarser ancestors only count what remains (the classic "discounted"
// semantics). Hitters come out sorted by discounted count descending, then
// key order.
func Detect(sessions []cluster.Lite, m metric.Metric, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxDims := cfg.MaxDims

	var idx []int32
	for i := range sessions {
		l := &sessions[i]
		if l.Defined(m) && l.Problem(m) {
			idx = append(idx, int32(i))
		}
	}
	res := &Result{Metric: m, Total: len(idx)}
	if res.Total == 0 {
		return res, nil
	}
	threshold := cfg.Phi * float64(res.Total)
	if threshold < 1 {
		threshold = 1
	}

	claimed := make([]bool, len(idx))

	raw := make(map[attr.Key]int)
	for _, si := range idx {
		l := &sessions[si]
		for _, mk := range attr.MasksUpTo(maxDims) {
			raw[attr.KeyOf(l.Attrs, mk)]++
		}
	}

	masks := attr.MasksUpTo(maxDims)
	sort.SliceStable(masks, func(i, j int) bool { return masks[i].Size() > masks[j].Size() })

	for start := 0; start < len(masks); {
		size := masks[start].Size()
		end := start
		for end < len(masks) && masks[end].Size() == size {
			end++
		}
		level := masks[start:end]
		start = end

		unclaimed := make(map[attr.Key][]int32)
		for pos, si := range idx {
			if claimed[pos] {
				continue
			}
			l := &sessions[si]
			for _, mk := range level {
				key := attr.KeyOf(l.Attrs, mk)
				unclaimed[key] = append(unclaimed[key], int32(pos))
			}
		}
		var cands []attr.Key
		for key, list := range unclaimed {
			if float64(len(list)) >= threshold {
				cands = append(cands, key)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			a, b := len(unclaimed[cands[i]]), len(unclaimed[cands[j]])
			if a != b {
				return a > b
			}
			return cands[i].Less(cands[j])
		})
		for _, key := range cands {
			n := 0
			for _, pos := range unclaimed[key] {
				if !claimed[pos] {
					claimed[pos] = true
					n++
				}
			}
			if n > 0 {
				res.Hitters = append(res.Hitters, Hitter{Key: key, Discounted: n})
			}
		}
	}

	for i := range res.Hitters {
		res.Hitters[i].Raw = raw[res.Hitters[i].Key]
	}
	sortHitters(res)
	return res, nil
}

// DetectFromTable is Detect over the sessions an epoch count table retains.
// It exists only as the entry point of the benchmark's
// hhh.detect_from_table probe and goes when that probe does.
func DetectFromTable(tbl *cluster.Table, m metric.Metric, cfg Config) (*Result, error) {
	if cfg.MaxDims > tbl.MaxDims {
		return nil, fmt.Errorf("hhh: MaxDims %d exceeds the table's %d", cfg.MaxDims, tbl.MaxDims)
	}
	return Detect(tbl.Sessions, m, cfg)
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
