package hhh

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/metric"
)

func addCell(dst []cluster.Lite, asn, cdn int32, n, p int) []cluster.Lite {
	for i := 0; i < n; i++ {
		var l cluster.Lite
		l.Attrs[attr.ASN] = asn
		l.Attrs[attr.CDN] = cdn
		if i < p {
			l.Bits |= 1 << metric.BufRatio
		}
		dst = append(dst, l)
	}
	return dst
}

func key(pairs map[attr.Dim]int32) attr.Key { return attr.NewKey(pairs) }

func TestDetectBasics(t *testing.T) {
	var sessions []cluster.Lite
	sessions = addCell(sessions, 1, 1, 100, 80)
	sessions = addCell(sessions, 2, 2, 100, 20)
	r, err := Detect(sessions, metric.BufRatio, Config{Phi: 0.5, MaxDims: attr.NumDims})
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 100 {
		t.Fatalf("total = %d", r.Total)
	}
	if len(r.Hitters) == 0 {
		t.Fatal("no hitters")
	}
	// The finest combination containing the 80 problems is reported first
	// and claims them; coarser ancestors have no unclaimed mass left.
	top := r.Hitters[0]
	if top.Discounted != 80 {
		t.Errorf("top discounted = %d, want 80", top.Discounted)
	}
	if !top.Key.Matches(sessions[0].Attrs) {
		t.Errorf("top hitter %v does not contain the problem cell", top.Key)
	}
	var totalDiscounted int
	for _, h := range r.Hitters {
		totalDiscounted += h.Discounted
	}
	if totalDiscounted > r.Total {
		t.Errorf("discounted sum %d exceeds total %d", totalDiscounted, r.Total)
	}
}

// addVariedCell is addCell with the remaining dimensions spread thin so no
// constant-valued dimension aggregates the whole population.
func addVariedCell(dst []cluster.Lite, asn, cdn int32, n, p int) []cluster.Lite {
	base := len(dst)
	for i := 0; i < n; i++ {
		var l cluster.Lite
		j := base + i
		l.Attrs[attr.ASN] = asn
		l.Attrs[attr.CDN] = cdn
		l.Attrs[attr.Site] = int32(j % 97)
		l.Attrs[attr.VoDOrLive] = int32(j % 2)
		l.Attrs[attr.PlayerType] = int32(j % 3)
		l.Attrs[attr.Browser] = int32((j / 2) % 4)
		l.Attrs[attr.ConnType] = int32((j / 3) % 6)
		if i < p {
			l.Bits |= 1 << metric.BufRatio
		}
		dst = append(dst, l)
	}
	return dst
}

// TestHHHPrefersVolumeOverConcentration demonstrates the paper's §7
// argument: a big mildly-problematic cluster outranks a small broken one,
// so HHH is the wrong tool for root-cause attribution.
func TestHHHPrefersVolumeOverConcentration(t *testing.T) {
	var sessions []cluster.Lite
	// Big healthy-ish ASN: 5% ratio but 50 problem sessions.
	sessions = addVariedCell(sessions, 1, 1, 1000, 50)
	// Small broken ASN: 60% ratio but only 30 problem sessions.
	sessions = addVariedCell(sessions, 2, 2, 50, 30)
	r, err := Detect(sessions, metric.BufRatio, Config{Phi: 0.3, MaxDims: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hitters) == 0 {
		t.Fatal("no hitters")
	}
	top := r.Hitters[0].Key
	broken := key(map[attr.Dim]int32{attr.ASN: 2})
	if top == broken {
		t.Error("HHH ranked the concentrated broken cluster first; volume should win")
	}
	if r.Hitters[0].Discounted < 40 {
		t.Errorf("top hitter mass = %d, want the big cluster's ~50", r.Hitters[0].Discounted)
	}
}

func TestDiscountingClaimsOnce(t *testing.T) {
	// One problem cell: after the leaf-level key claims it, no ancestor may
	// report the same sessions again.
	var sessions []cluster.Lite
	sessions = addCell(sessions, 1, 1, 100, 100)
	r, err := Detect(sessions, metric.BufRatio, Config{Phi: 0.5, MaxDims: attr.NumDims})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hitters) != 1 {
		t.Fatalf("hitters = %+v, want exactly one", r.Hitters)
	}
	if r.Hitters[0].Key.Size() != attr.NumDims {
		t.Errorf("hitter should be the finest mask, got %v", r.Hitters[0].Key)
	}
	if r.Hitters[0].Raw != 100 || r.Hitters[0].Discounted != 100 {
		t.Errorf("raw/discounted = %d/%d", r.Hitters[0].Raw, r.Hitters[0].Discounted)
	}
}

func TestMaxDims(t *testing.T) {
	var sessions []cluster.Lite
	sessions = addCell(sessions, 1, 1, 100, 100)
	r, err := Detect(sessions, metric.BufRatio, Config{Phi: 0.5, MaxDims: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range r.Hitters {
		if h.Key.Size() > 1 {
			t.Errorf("hitter %v exceeds MaxDims", h.Key)
		}
	}
}

func TestEmptyAndErrors(t *testing.T) {
	r, err := Detect(nil, metric.BufRatio, DefaultConfig())
	if err != nil || r.Total != 0 || len(r.Hitters) != 0 {
		t.Errorf("empty detect = %+v, %v", r, err)
	}
	if _, err := Detect(nil, metric.BufRatio, Config{Phi: 0}); err == nil {
		t.Error("Phi 0 accepted")
	}
	if _, err := Detect(nil, metric.BufRatio, Config{Phi: 1}); err == nil {
		t.Error("Phi 1 accepted")
	}
	for _, cfg := range []Config{
		{Phi: math.NaN(), MaxDims: attr.NumDims},
		{Phi: 0.02, MaxDims: 0},
		{Phi: 0.02, MaxDims: attr.NumDims + 1},
	} {
		if _, err := Detect(nil, metric.BufRatio, cfg); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
	// Healthy sessions only.
	var sessions []cluster.Lite
	sessions = addCell(sessions, 1, 1, 50, 0)
	r, err = Detect(sessions, metric.BufRatio, DefaultConfig())
	if err != nil || r.Total != 0 {
		t.Error("healthy epoch should have no hitters")
	}
}

func TestKeysOrder(t *testing.T) {
	var sessions []cluster.Lite
	sessions = addCell(sessions, 1, 1, 100, 60)
	sessions = addCell(sessions, 2, 2, 100, 40)
	r, err := Detect(sessions, metric.BufRatio, Config{Phi: 0.3, MaxDims: attr.NumDims})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Hitters); i++ {
		if r.Hitters[i].Discounted > r.Hitters[i-1].Discounted {
			t.Error("hitters not sorted")
		}
	}
	_ = key
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

// TestDetectPinned locks Detect's exact output on multi-level inputs: every
// result over the grid below (seed 77, 8 trials, two metrics, four φ, four
// MaxDims; hitters at all seven levels) is rendered and hashed with
// FNV-64a. The constant was recorded from the counting-sort engine that
// Detect replaced and is unchanged by the plain-map definition, so a change
// to ordering, tie-breaking or discount semantics fails here.
func TestDetectPinned(t *testing.T) {
	const want uint64 = 0x2823841136c34c94
	r := rand.New(rand.NewSource(77))
	h := fnv.New64a()
	for trial := 0; trial < 8; trial++ {
		lites := genHHHLites(r, 50+r.Intn(900))
		for _, m := range []metric.Metric{metric.BufRatio, metric.JoinTime} {
			for _, phi := range []float64{0.01, 0.05, 0.2, 0.6} {
				for _, md := range []int{1, 2, 3, attr.NumDims} {
					res, err := Detect(lites, m, Config{Phi: phi, MaxDims: md})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%d %v %v %d total=%d\n", trial, m, phi, md, res.Total)
					for _, x := range res.Hitters {
						fmt.Fprintf(h, "%v %d %d\n", x.Key, x.Discounted, x.Raw)
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("output hash %#x, want %#x", got, want)
	}
}

// TestDetectFromTableMatchesDetect: detection over an epoch count table's
// sessions equals Detect over the same sessions, across fuzzed inputs,
// metrics, phi values, and maxDims (including a table enumerated wider than
// the query).
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
