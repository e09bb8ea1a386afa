package attr

import (
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	m := MaskOf(ASN, CDN)
	if !m.Has(ASN) || !m.Has(CDN) {
		t.Fatalf("MaskOf(ASN, CDN) = %v, missing dims", m)
	}
	if m.Has(Site) {
		t.Errorf("mask %v unexpectedly has Site", m)
	}
	if got := m.Size(); got != 2 {
		t.Errorf("Size() = %d, want 2", got)
	}
	if got := m.with(Site).Size(); got != 3 {
		t.Errorf("With(Site).Size() = %d, want 3", got)
	}
	if got := m.Without(CDN); got != MaskOf(ASN) {
		t.Errorf("Without(CDN) = %v, want %v", got, MaskOf(ASN))
	}
	if !MaskOf(ASN).subsetOf(m) {
		t.Errorf("MaskOf(ASN).SubsetOf(%v) = false, want true", m)
	}
	if m.subsetOf(MaskOf(ASN)) {
		t.Errorf("%v.SubsetOf(ASN) = true, want false", m)
	}
}

func TestMaskDims(t *testing.T) {
	m := MaskOf(Site, ConnType, ASN)
	got := m.Dims()
	want := []Dim{ASN, Site, ConnType}
	if len(got) != len(want) {
		t.Fatalf("Dims() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Dims()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAllMasks(t *testing.T) {
	ms := allMasks()
	if len(ms) != 127 {
		t.Fatalf("len(allMasks()) = %d, want 127", len(ms))
	}
	seen := make(map[Mask]bool)
	prevSize := 0
	for _, m := range ms {
		if m == 0 {
			t.Fatal("allMasks contains the empty mask")
		}
		if seen[m] {
			t.Fatalf("allMasks contains duplicate %v", m)
		}
		seen[m] = true
		if m.Size() < prevSize {
			t.Fatalf("allMasks not ordered by size: %v after size %d", m, prevSize)
		}
		prevSize = m.Size()
	}
}

func TestMasksUpTo(t *testing.T) {
	cases := []struct {
		max  int
		want int
	}{
		{1, 7},
		{2, 7 + 21},
		{7, 127},
		{0, 7},    // clamped up
		{99, 127}, // clamped down
	}
	for _, c := range cases {
		if got := len(MasksUpTo(c.max)); got != c.want {
			t.Errorf("len(MasksUpTo(%d)) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestKeyOfCanonical(t *testing.T) {
	v := Vector{10, 20, 30, 1, 2, 3, 4}
	k := KeyOf(v, MaskOf(CDN, ConnType))
	if k.Vals[CDN] != 20 || k.Vals[ConnType] != 4 {
		t.Errorf("KeyOf kept wrong values: %v", k)
	}
	// Positions outside the mask must be zeroed for canonical equality.
	for d := Dim(0); d < NumDims; d++ {
		if !k.Mask.Has(d) && k.Vals[d] != 0 {
			t.Errorf("KeyOf left non-zero value at unmasked dim %v: %v", d, k)
		}
	}
	k2 := KeyOf(Vector{99, 20, 99, 99, 99, 99, 4}, MaskOf(CDN, ConnType))
	if k != k2 {
		t.Errorf("keys with same projection differ: %v vs %v", k, k2)
	}
}

func TestKeyMatches(t *testing.T) {
	v := Vector{10, 20, 30, 1, 2, 3, 4}
	k := KeyOf(v, MaskOf(ASN, Site))
	if !k.Matches(v) {
		t.Errorf("key %v does not match its source vector", k)
	}
	v2 := v
	v2[Site] = 31
	if k.Matches(v2) {
		t.Errorf("key %v matches vector with different Site", k)
	}
	if !Root.Matches(v) {
		t.Error("root does not match an arbitrary vector")
	}
}

func TestKeySubsumes(t *testing.T) {
	v := Vector{10, 20, 30, 1, 2, 3, 4}
	child := KeyOf(v, MaskOf(ASN, CDN, Site))
	parent := KeyOf(v, MaskOf(ASN, CDN))
	if !parent.Subsumes(child) {
		t.Errorf("%v should subsume %v", parent, child)
	}
	if child.Subsumes(parent) {
		t.Errorf("%v should not subsume %v", child, parent)
	}
	if !parent.Subsumes(parent) {
		t.Error("Subsumes not reflexive")
	}
	other := parent
	other.Vals[ASN] = 11
	if other.Subsumes(child) {
		t.Errorf("%v should not subsume %v (value mismatch)", other, child)
	}
	if !Root.Subsumes(child) {
		t.Error("root should subsume every key")
	}
}

func TestKeyParents(t *testing.T) {
	v := Vector{10, 20, 30, 1, 2, 3, 4}
	k := KeyOf(v, MaskOf(ASN, CDN, ConnType))
	ps := k.Parents()
	if len(ps) != 3 {
		t.Fatalf("len(Parents()) = %d, want 3", len(ps))
	}
	for _, p := range ps {
		if p.Size() != 2 {
			t.Errorf("parent %v has size %d, want 2", p, p.Size())
		}
		if !p.Subsumes(k) {
			t.Errorf("parent %v does not subsume child %v", p, k)
		}
	}
	if got := Root.Parents(); got != nil {
		t.Errorf("Root.Parents() = %v, want nil", got)
	}
	if got := k.Parent(Site); got != k {
		t.Errorf("removing absent dim changed key: %v", got)
	}
}

func TestKeySubKeys(t *testing.T) {
	v := Vector{10, 20, 30, 1, 2, 3, 4}
	k := KeyOf(v, MaskOf(ASN, CDN, Site))
	subs := k.SubKeys()
	if len(subs) != 7 { // 2^3 - 1
		t.Fatalf("len(SubKeys()) = %d, want 7", len(subs))
	}
	for i, sk := range subs {
		if !sk.Subsumes(k) {
			t.Errorf("SubKeys()[%d] = %v does not subsume %v", i, sk, k)
		}
		if i > 0 && subs[i-1].Mask.Size() > sk.Mask.Size() {
			t.Errorf("SubKeys not ordered coarse-to-fine at %d", i)
		}
	}
	if subs[len(subs)-1] != k {
		t.Errorf("finest SubKey = %v, want the key itself", subs[len(subs)-1])
	}
}

func TestKeyProject(t *testing.T) {
	v := Vector{10, 20, 30, 1, 2, 3, 4}
	k := KeyOf(v, MaskOf(ASN, CDN, Site))
	p := k.project(MaskOf(CDN, ConnType)) // ConnType not in k: dropped
	if p.Mask != MaskOf(CDN) {
		t.Errorf("Project mask = %v, want %v", p.Mask, MaskOf(CDN))
	}
	if p.Vals[CDN] != 20 {
		t.Errorf("Project value = %d, want 20", p.Vals[CDN])
	}
}

func TestParseDim(t *testing.T) {
	for d := Dim(0); d < NumDims; d++ {
		got, err := parseDim(d.String())
		if err != nil || got != d {
			t.Errorf("parseDim(%q) = %v, %v; want %v", d.String(), got, err, d)
		}
	}
	if _, err := parseDim("Bogus"); err == nil {
		t.Error("parseDim(Bogus) succeeded, want error")
	}
}

// Property: projecting a vector onto a mask and testing Matches is always
// consistent, and parents always subsume children.
func TestKeyProperties(t *testing.T) {
	f := func(raw [NumDims]int32, maskBits uint8) bool {
		var v Vector
		for i := range raw {
			v[i] = raw[i] & 0xffff // keep ids small and non-negative
			if v[i] < 0 {
				v[i] = -v[i]
			}
		}
		m := Mask(maskBits) & AllDims
		if m == 0 {
			m = MaskOf(ASN)
		}
		k := KeyOf(v, m)
		if !k.Matches(v) {
			return false
		}
		for _, p := range k.Parents() {
			if !p.Subsumes(k) || !p.Matches(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(map[Dim][]string{
		ASN:        {"AS100", "AS200", "AS300"},
		CDN:        {"cdn-a", "cdn-b"},
		Site:       {"site-1", "site-2"},
		VoDOrLive:  {"VoD", "Live"},
		PlayerType: {"Flash", "HTML5"},
		Browser:    {"Chrome", "Firefox"},
		ConnType:   {"DSL", "MobileWireless"},
	})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return s
}

func TestSpaceLookup(t *testing.T) {
	s := testSpace(t)
	if got := s.Cardinality(ASN); got != 3 {
		t.Errorf("Cardinality(ASN) = %d, want 3", got)
	}
	id, ok := s.lookup(CDN, "cdn-b")
	if !ok || id != 1 {
		t.Errorf("Lookup(CDN, cdn-b) = %d, %v; want 1, true", id, ok)
	}
	if _, ok := s.lookup(CDN, "nope"); ok {
		t.Error("Lookup of unknown value succeeded")
	}
	if got := s.Name(ASN, 2); got != "AS300" {
		t.Errorf("Name(ASN, 2) = %q, want AS300", got)
	}
	if got := s.Name(ASN, 99); got != "ASN#99" {
		t.Errorf("Name out of range = %q, want fallback", got)
	}
}

func TestSpaceValid(t *testing.T) {
	s := testSpace(t)
	if !s.Valid(Vector{0, 1, 1, 0, 1, 0, 1}) {
		t.Error("Valid rejected an in-range vector")
	}
	if s.Valid(Vector{3, 0, 0, 0, 0, 0, 0}) {
		t.Error("Valid accepted out-of-range ASN")
	}
	if s.Valid(Vector{-1, 0, 0, 0, 0, 0, 0}) {
		t.Error("Valid accepted negative id")
	}
}

func TestSpaceFormatParseRoundTrip(t *testing.T) {
	s := testSpace(t)
	k := NewKey(map[Dim]int32{CDN: 1, ConnType: 1})
	text := s.FormatKey(k)
	if text != "CDN=cdn-b, ConnType=MobileWireless" {
		t.Errorf("FormatKey = %q", text)
	}
	back, err := s.ParseKey(text)
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", text, err)
	}
	if back != k {
		t.Errorf("round trip = %v, want %v", back, k)
	}
	root, err := s.ParseKey("(root)")
	if err != nil || root != Root {
		t.Errorf("ParseKey((root)) = %v, %v", root, err)
	}
	if _, err := s.ParseKey("CDN=unknown"); err == nil {
		t.Error("ParseKey accepted unknown value")
	}
	if _, err := s.ParseKey("CDN=0, CDN=1"); err == nil {
		t.Error("ParseKey accepted duplicate dimension")
	}
	// Numeric fallback.
	k2, err := s.ParseKey("ASN=2")
	if err != nil || k2.Vals[ASN] != 2 {
		t.Errorf("ParseKey(ASN=2) = %v, %v", k2, err)
	}
}

func TestNewSpaceErrors(t *testing.T) {
	_, err := NewSpace(map[Dim][]string{})
	if err == nil {
		t.Error("NewSpace with no values succeeded")
	}
	names := map[Dim][]string{}
	for d := Dim(0); d < NumDims; d++ {
		names[d] = []string{"x", "x"}
	}
	if _, err := NewSpace(names); err == nil {
		t.Error("NewSpace with duplicate names succeeded")
	}
}
