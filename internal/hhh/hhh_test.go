package hhh

import (
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
	r, err := Detect(sessions, metric.BufRatio, Config{Phi: 0.5})
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
	r, err := Detect(sessions, metric.BufRatio, Config{Phi: 0.5})
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
	r, err := Detect(sessions, metric.BufRatio, Config{Phi: 0.3})
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
