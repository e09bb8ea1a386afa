package hhh

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/metric"
)

// detectRef is the original map-based implementation of Detect, preserved
// verbatim as the differential oracle for the flat counting-sort rewrite.
// Any behavioural divergence — ordering, tie-breaking, discount semantics —
// is a bug in the rewrite, not a new convention.
func detectRef(sessions []cluster.Lite, m metric.Metric, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxDims := cfg.MaxDims
	if maxDims <= 0 || maxDims > attr.NumDims {
		maxDims = attr.NumDims
	}

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
	sort.SliceStable(res.Hitters, func(i, j int) bool {
		if res.Hitters[i].Discounted != res.Hitters[j].Discounted {
			return res.Hitters[i].Discounted > res.Hitters[j].Discounted
		}
		return res.Hitters[i].Key.Less(res.Hitters[j].Key)
	})
	return res, nil
}

// genHHHLites draws sessions from a small attribute universe (so keys
// collide and levels overlap) with a few concentrated problem cells layered
// over background noise — the shape that exercises claiming and tie-breaks.
func genHHHLites(r *rand.Rand, n int) []cluster.Lite {
	cards := [attr.NumDims]int32{3, 4, 2, 3, 2, 3, 4}
	lites := make([]cluster.Lite, n)
	for i := range lites {
		l := &lites[i]
		for d := attr.Dim(0); d < attr.NumDims; d++ {
			l.Attrs[d] = r.Int31n(cards[d])
		}
		if r.Float64() < 0.05 {
			l.Failed = true
			l.Bits = 1 << metric.JoinFailure
			continue
		}
		for m := metric.Metric(0); m < metric.NumMetrics; m++ {
			if r.Float64() < 0.15 {
				l.Bits |= 1 << m
			}
		}
	}
	// Concentrate problems in one cell to guarantee hitters above phi.
	hot := lites[0].Attrs
	for i := 0; i < n/5; i++ {
		l := &lites[r.Intn(n)]
		l.Attrs = hot
		l.Failed = false
		l.Bits |= 1 << metric.BufRatio
	}
	return lites
}

// TestDetectMatchesMapReference: the flat counting-sort Detect is
// bit-identical to the preserved map-based reference across fuzzed session
// sets, metrics, phi values, and maxDims, including repeated runs that
// exercise pooled-scratch reuse.
func TestDetectMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	phis := []float64{0.01, 0.05, 0.2, 0.6}
	dims := []int{1, 2, 3, attr.NumDims}
	for trial := 0; trial < 8; trial++ {
		n := 50 + r.Intn(900)
		lites := genHHHLites(r, n)
		for _, m := range []metric.Metric{metric.BufRatio, metric.JoinTime} {
			for _, phi := range phis {
				for _, md := range dims {
					cfg := Config{Phi: phi, MaxDims: md}
					got, err := Detect(lites, m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := detectRef(lites, m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d metric %v phi %v maxDims %d:\nflat %+v\nref  %+v",
							trial, m, phi, md, got, want)
					}
				}
			}
		}
	}
}

// TestDetectEmptyAndNoProblems: degenerate inputs agree with the reference.
func TestDetectEmptyAndNoProblems(t *testing.T) {
	for _, lites := range [][]cluster.Lite{nil, make([]cluster.Lite, 10)} {
		got, err := Detect(lites, metric.BufRatio, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want, err := detectRef(lites, metric.BufRatio, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flat %+v != ref %+v", got, want)
		}
	}
}

// TestDetectScratchReuseDeterminism: back-to-back detections over different
// inputs reuse the pooled scratch without cross-contamination.
func TestDetectScratchReuseDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	big := genHHHLites(r, 800)
	small := genHHHLites(r, 60)
	first, err := Detect(small, metric.BufRatio, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A large detection dirties the pooled scratch far beyond the small
	// input's extents...
	if _, err := Detect(big, metric.BufRatio, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// ...and the small input must still produce the identical result.
	again, err := Detect(small, metric.BufRatio, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("scratch reuse changed output:\nfirst %+v\nagain %+v", first, again)
	}
}

// TestDetectFromTableMatchesDetect: the sliding-window path — raw counts
// read from an epoch count table instead of re-enumerated — is bit-identical
// to Detect over the same sessions, across fuzzed inputs, metrics, phi
// values, and maxDims (including a table enumerated wider than the query).
func TestDetectFromTableMatchesDetect(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	phis := []float64{0.01, 0.05, 0.3}
	dims := []int{1, 3, attr.NumDims}
	for trial := 0; trial < 6; trial++ {
		n := 50 + r.Intn(700)
		lites := genHHHLites(r, n)
		tbl := cluster.NewTable(0, lites, 0)
		for _, m := range []metric.Metric{metric.BufRatio, metric.JoinTime, metric.JoinFailure} {
			for _, phi := range phis {
				for _, md := range dims {
					cfg := Config{Phi: phi, MaxDims: md}
					got, err := DetectFromTable(tbl, m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Detect(lites, m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d metric %v phi %v maxDims %d:\ntable %+v\nbatch %+v",
							trial, m, phi, md, got, want)
					}
				}
			}
		}
		tbl.Release()
	}
}

// TestDetectFromTableRejectsNarrowTable: querying more dimensions than the
// table enumerated cannot produce correct raw counts and must error.
func TestDetectFromTableRejectsNarrowTable(t *testing.T) {
	lites := genHHHLites(rand.New(rand.NewSource(1)), 50)
	tbl := cluster.NewTable(0, lites, 2)
	defer tbl.Release()
	if _, err := DetectFromTable(tbl, metric.BufRatio, Config{Phi: 0.05, MaxDims: 3}); err == nil {
		t.Fatal("DetectFromTable over a narrower table did not fail")
	}
	if _, err := DetectFromTable(tbl, metric.BufRatio, Config{Phi: 0.05, MaxDims: 2}); err != nil {
		t.Fatal(err)
	}
}
