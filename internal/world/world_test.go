package world

import (
	"math"
	"testing"

	"repro/internal/attr"
	"repro/internal/stats"
)

func build(t *testing.T) *World {
	t.Helper()
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewPopulationSizes(t *testing.T) {
	w := build(t)
	if len(w.Sites) != 379 {
		t.Errorf("sites = %d, want 379 (paper §2)", len(w.Sites))
	}
	if len(w.CDNs) != 19 {
		t.Errorf("CDNs = %d, want 19 (paper §2)", len(w.CDNs))
	}
	if len(w.Countries) != 213 {
		t.Errorf("countries = %d, want 213 (paper §2)", len(w.Countries))
	}
	if len(w.ASNs) != DefaultConfig().NumASNs {
		t.Errorf("ASNs = %d, want %d", len(w.ASNs), DefaultConfig().NumASNs)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sites {
		if a.Sites[i].Name != b.Sites[i].Name || a.Sites[i].UGC != b.Sites[i].UGC ||
			len(a.Sites[i].BitrateLadder) != len(b.Sites[i].BitrateLadder) {
			t.Fatalf("site %d differs between identically seeded worlds", i)
		}
	}
	ra, rb := stats.NewRNG(9), stats.NewRNG(9)
	for i := 0; i < 100; i++ {
		if a.SampleAttrs(ra) != b.SampleAttrs(rb) {
			t.Fatal("SampleAttrs not deterministic")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 999
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Sites {
		if a.Sites[i].UGC == c.Sites[i].UGC {
			same++
		}
	}
	if same == len(a.Sites) {
		t.Error("different seeds produced identical site traits")
	}
}

func TestValidateConfig(t *testing.T) {
	bad := []Config{
		{NumSites: 0, NumCDNs: 19, NumASNs: 10, NumCountries: 10},
		{NumSites: 10, NumCDNs: 1, NumASNs: 10, NumCountries: 10},
		{NumSites: 10, NumCDNs: 19, NumASNs: 1, NumCountries: 10},
		{NumSites: 10, NumCDNs: 19, NumASNs: 10, NumCountries: 2},
		{NumSites: 10, NumCDNs: 19, NumASNs: 10, NumCountries: 10, ZipfSites: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRegionMix(t *testing.T) {
	w := build(t)
	counts := make([]int, NumRegions)
	for i := range w.ASNs {
		counts[w.ASNs[i].Region]++
	}
	frac := func(r Region) float64 { return float64(counts[r]) / float64(len(w.ASNs)) }
	if f := frac(RegionUS); f < 0.45 || f > 0.65 {
		t.Errorf("US ASN share = %v, want ~0.55", f)
	}
	if f := frac(RegionChina); f < 0.03 || f > 0.14 {
		t.Errorf("China ASN share = %v, want ~0.08", f)
	}
	for i := range w.ASNs {
		a := &w.ASNs[i]
		if w.Countries[a.Country].Region != a.Region {
			t.Fatalf("ASN %d country region mismatch", i)
		}
	}
}

func TestSiteInvariants(t *testing.T) {
	w := build(t)
	singles, ugc, lowPri := 0, 0, 0
	for i := range w.Sites {
		s := &w.Sites[i]
		if len(s.CDNIDs) == 0 || len(s.CDNIDs) != len(s.CDNWeights) {
			t.Fatalf("site %d has bad CDN mix", i)
		}
		for _, id := range s.CDNIDs {
			if id < 0 || int(id) >= len(w.CDNs) {
				t.Fatalf("site %d references CDN %d out of range", i, id)
			}
		}
		if len(s.BitrateLadder) == 0 {
			t.Fatalf("site %d has empty ladder", i)
		}
		for j := 1; j < len(s.BitrateLadder); j++ {
			if s.BitrateLadder[j] <= s.BitrateLadder[j-1] {
				t.Fatalf("site %d ladder not ascending", i)
			}
		}
		if s.SingleBitrate() {
			singles++
		}
		if s.UGC {
			ugc++
		}
		if s.LowPriority {
			lowPri++
			if len(s.CDNIDs) != 1 || s.CDNIDs[0] != 0 {
				t.Errorf("low-priority site %d should use the single global CDN", i)
			}
		}
		if s.InHouseCDN {
			if len(s.CDNIDs) != 1 || w.CDNs[s.CDNIDs[0]].Kind != CDNInHouse {
				t.Errorf("in-house site %d not wired to an in-house CDN", i)
			}
		}
	}
	if singles == 0 {
		t.Error("no single-bitrate sites generated (needed for Table 3)")
	}
	if ugc == 0 {
		t.Error("no UGC sites generated (needed for Table 3)")
	}
	if lowPri == 0 {
		t.Error("no low-priority sites generated (needed for Table 3)")
	}
}

func TestSampleAttrsInCatalog(t *testing.T) {
	w := build(t)
	r := stats.NewRNG(4)
	space := w.Space()
	for i := 0; i < 5000; i++ {
		v := w.SampleAttrs(r)
		if !space.Valid(v) {
			t.Fatalf("sampled vector %v outside catalog", v)
		}
		site := &w.Sites[v[attr.Site]]
		found := false
		for _, id := range site.CDNIDs {
			if id == v[attr.CDN] {
				found = true
			}
		}
		if !found {
			t.Fatalf("session got CDN %d not in site %d's mix", v[attr.CDN], v[attr.Site])
		}
	}
}

func TestSampleAttrsZipfSkew(t *testing.T) {
	w := build(t)
	r := stats.NewRNG(5)
	siteCounts := make([]int, len(w.Sites))
	n := 50_000
	for i := 0; i < n; i++ {
		v := w.SampleAttrs(r)
		siteCounts[v[attr.Site]]++
	}
	if siteCounts[0] <= siteCounts[100] {
		t.Errorf("site popularity not skewed: top=%d rank100=%d", siteCounts[0], siteCounts[100])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += siteCounts[i]
	}
	if f := float64(top10) / float64(n); f < 0.15 || f > 0.6 {
		t.Errorf("top-10 site share = %v, want skewed but not degenerate", f)
	}
}

func TestWirelessASNConnMix(t *testing.T) {
	w := build(t)
	r := stats.NewRNG(6)
	wireless := w.ASNsWhere(func(a *ASN) bool { return a.Wireless })
	if len(wireless) == 0 {
		t.Fatal("no wireless ASNs")
	}
	a := &w.ASNs[wireless[0]]
	mobile := 0
	n := 5000
	for i := 0; i < n; i++ {
		if stats.SampleCum(r, a.connCum) == int(ConnMobileWireless) {
			mobile++
		}
	}
	if f := float64(mobile) / float64(n); math.Abs(f-0.85) > 0.05 {
		t.Errorf("wireless ASN mobile share = %v, want ~0.85", f)
	}
}

func TestWhereHelpers(t *testing.T) {
	w := build(t)
	inHouse := w.CDNsWhere(func(c *CDN) bool { return c.Kind == CDNInHouse })
	if len(inHouse) == 0 {
		t.Error("no in-house CDNs")
	}
	ugc := w.SitesWhere(func(s *Site) bool { return s.UGC })
	for _, id := range ugc {
		if !w.Sites[id].UGC {
			t.Fatal("SitesWhere returned non-matching site")
		}
	}
	china := w.ASNsWhere(func(a *ASN) bool { return a.Region == RegionChina })
	if len(china) == 0 {
		t.Error("no Chinese ASNs (needed for Table 3)")
	}
}

func TestKindAndRegionStrings(t *testing.T) {
	if RegionChina.String() != "China" || CDNInHouse.String() != "InHouse" {
		t.Error("String() names wrong")
	}
	if Region(99).String() == "" || CDNKind(99).String() == "" {
		t.Error("out-of-range String() should not be empty")
	}
}

func TestMarginalShares(t *testing.T) {
	w := build(t)
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		var sum float64
		card := 0
		switch d {
		case attr.ASN:
			card = len(w.ASNs)
		case attr.CDN:
			card = len(w.CDNs)
		case attr.Site:
			card = len(w.Sites)
		case attr.VoDOrLive:
			card = 2
		case attr.PlayerType:
			card = len(PlayerTypeNames)
		case attr.Browser:
			card = len(BrowserNames)
		case attr.ConnType:
			card = NumConnTypes
		}
		for id := int32(0); int(id) < card; id++ {
			share := w.marginalShare(d, id)
			if share < 0 || share > 1 {
				t.Fatalf("%v[%d] share = %v", d, id, share)
			}
			sum += share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v shares sum to %v, want 1", d, sum)
		}
	}
	// Zipf head dominates.
	if w.marginalShare(attr.Site, 0) <= w.marginalShare(attr.Site, 100) {
		t.Error("site popularity not decreasing in rank")
	}
	if w.marginalShare(attr.Site, -1) != 0 || w.marginalShare(attr.Dim(99), 0) != 0 {
		t.Error("out-of-range shares should be 0")
	}
}

func TestKeyShare(t *testing.T) {
	w := build(t)
	root := attr.Key{}
	if w.KeyShare(root) != 1 {
		t.Error("root share should be 1")
	}
	single := attr.NewKey(map[attr.Dim]int32{attr.VoDOrLive: 0})
	if s := w.KeyShare(single); s < 0.5 || s > 0.95 {
		t.Errorf("VoD share = %v, want the majority", s)
	}
	pair := attr.NewKey(map[attr.Dim]int32{attr.VoDOrLive: 0, attr.ConnType: ConnMobileWireless})
	if w.KeyShare(pair) >= w.KeyShare(single) {
		t.Error("adding a dimension must shrink the share")
	}
}
