// Package attr defines the session attribute space used throughout the
// analysis: the seven client/session attribute dimensions from the paper
// (ASN, CDN, Site, VoD-or-Live, player type, browser, connection type),
// full attribute vectors carried by sessions, and cluster keys — partial
// assignments over a subset of dimensions — together with the subset
// algebra (parents, children, subsumption) that the hierarchical
// clustering and the critical-cluster phase-transition search rely on.
package attr

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Dim identifies one of the seven session attribute dimensions.
type Dim uint8

// The seven attribute dimensions, in the order the paper lists them (§2).
const (
	ASN Dim = iota
	CDN
	Site
	VoDOrLive
	PlayerType
	Browser
	ConnType

	// NumDims is the number of attribute dimensions.
	NumDims = 7
)

var dimNames = [NumDims]string{
	"ASN", "CDN", "Site", "VoDOrLive", "PlayerType", "Browser", "ConnType",
}

// String returns the canonical dimension name.
func (d Dim) String() string {
	if int(d) < len(dimNames) {
		return dimNames[d]
	}
	return fmt.Sprintf("Dim(%d)", uint8(d))
}

// parseDim converts a dimension name (case-insensitive) into a Dim.
func parseDim(s string) (Dim, error) {
	for i, n := range dimNames {
		if strings.EqualFold(s, n) {
			return Dim(i), nil
		}
	}
	return 0, fmt.Errorf("attr: unknown dimension %q", s)
}

// Mask is a bit set over the seven dimensions: bit i is set when Dim(i)
// participates in a cluster key. The zero Mask is the root of the cluster
// hierarchy (no attributes fixed; all sessions).
type Mask uint8

// AllDims is the mask with every dimension set (a leaf-level key).
const AllDims Mask = 1<<NumDims - 1

// MaskOf builds a Mask from a list of dimensions.
func MaskOf(dims ...Dim) Mask {
	var m Mask
	for _, d := range dims {
		m |= 1 << d
	}
	return m
}

// Has reports whether dimension d is in the mask.
func (m Mask) Has(d Dim) bool { return m&(1<<d) != 0 }

// with returns the mask with dimension d added.
func (m Mask) with(d Dim) Mask { return m | 1<<d }

// Without returns the mask with dimension d removed.
func (m Mask) Without(d Dim) Mask { return m &^ (1 << d) }

// Size returns the number of dimensions in the mask.
func (m Mask) Size() int { return bits.OnesCount8(uint8(m)) }

// subsetOf reports whether every dimension of m is also in n.
func (m Mask) subsetOf(n Mask) bool { return m&^n == 0 }

// Dims returns the dimensions present in the mask, in order.
func (m Mask) Dims() []Dim {
	ds := make([]Dim, 0, m.Size())
	for d := Dim(0); d < NumDims; d++ {
		if m.Has(d) {
			ds = append(ds, d)
		}
	}
	return ds
}

// String renders the mask as a comma-separated list of dimension names in
// the paper's bracketed wildcard style, e.g. "[*, CDN, *, *, *, *, ConnType]".
func (m Mask) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for d := Dim(0); d < NumDims; d++ {
		if d > 0 {
			b.WriteString(", ")
		}
		if m.Has(d) {
			b.WriteString(d.String())
		} else {
			b.WriteByte('*')
		}
	}
	b.WriteByte(']')
	return b.String()
}

// allMasks returns every non-empty mask (the 127 attribute combinations a
// session belongs to), ordered by size then numeric value, so coarser
// combinations come first. The result is freshly allocated.
func allMasks() []Mask {
	ms := make([]Mask, 0, int(AllDims))
	for m := Mask(1); m <= AllDims; m++ {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		si, sj := ms[i].Size(), ms[j].Size()
		if si != sj {
			return si < sj
		}
		return ms[i] < ms[j]
	})
	return ms
}

// MasksUpTo returns every non-empty mask with at most maxDims dimensions,
// in the same order as allMasks. maxDims values outside [1, NumDims] are
// clamped.
func MasksUpTo(maxDims int) []Mask {
	if maxDims < 1 {
		maxDims = 1
	}
	if maxDims > NumDims {
		maxDims = NumDims
	}
	all := allMasks()
	out := all[:0:0]
	for _, m := range all {
		if m.Size() <= maxDims {
			out = append(out, m)
		}
	}
	return out
}

// Vector is a full attribute assignment for a session: one value identifier
// per dimension. Value identifiers index into a Space catalog; they carry no
// meaning of their own.
type Vector [NumDims]int32

// Key identifies a cluster: a set of fixed dimensions (Mask) together with
// their values. Positions outside the mask are always zero, so Key values
// are canonical and directly comparable (usable as map keys).
//
// In the paper's notation, the key with Mask={ASN,CDN} and values
// {ASN:1, CDN:2} is the cluster "ASN=ASN1, CDN=CDN2".
type Key struct {
	Mask Mask
	Vals Vector
}

// Root is the key of the hierarchy root: no attributes fixed.
var Root = Key{}

// KeyOf projects the full vector v onto mask m, producing a canonical Key.
func KeyOf(v Vector, m Mask) Key {
	var k Key
	k.Mask = m
	for d := Dim(0); d < NumDims; d++ {
		if m.Has(d) {
			k.Vals[d] = v[d]
		}
	}
	return k
}

// NewKey builds a key from explicit dimension/value pairs.
func NewKey(pairs map[Dim]int32) Key {
	var k Key
	for d, v := range pairs {
		k.Mask = k.Mask.with(d)
		k.Vals[d] = v
	}
	return k
}

// Size returns the number of fixed dimensions.
func (k Key) Size() int { return k.Mask.Size() }

// Less orders keys by mask then values — the canonical ordering every
// deterministic report and attribution pass sorts by.
func (k Key) Less(other Key) bool {
	if k.Mask != other.Mask {
		return k.Mask < other.Mask
	}
	for d := Dim(0); d < NumDims; d++ {
		if k.Vals[d] != other.Vals[d] {
			return k.Vals[d] < other.Vals[d]
		}
	}
	return false
}

// Matches reports whether session attribute vector v agrees with the key on
// every fixed dimension.
func (k Key) Matches(v Vector) bool {
	for d := Dim(0); d < NumDims; d++ {
		if k.Mask.Has(d) && k.Vals[d] != v[d] {
			return false
		}
	}
	return true
}

// Subsumes reports whether k is an ancestor-or-self of other in the cluster
// DAG: k's fixed dimensions are a subset of other's and the values agree.
// The root subsumes everything.
func (k Key) Subsumes(other Key) bool {
	if !k.Mask.subsetOf(other.Mask) {
		return false
	}
	for d := Dim(0); d < NumDims; d++ {
		if k.Mask.Has(d) && k.Vals[d] != other.Vals[d] {
			return false
		}
	}
	return true
}

// Parent returns the key with dimension d removed. Removing a dimension not
// in the mask returns k unchanged.
func (k Key) Parent(d Dim) Key {
	if !k.Mask.Has(d) {
		return k
	}
	k.Mask = k.Mask.Without(d)
	k.Vals[d] = 0
	return k
}

// Parents returns the immediate parents of k in the cluster DAG: every key
// obtained by removing exactly one dimension. The root has no parents.
func (k Key) Parents() []Key {
	if k.Mask == 0 {
		return nil
	}
	ps := make([]Key, 0, k.Size())
	for d := Dim(0); d < NumDims; d++ {
		if k.Mask.Has(d) {
			ps = append(ps, k.Parent(d))
		}
	}
	return ps
}

// Child returns the key with dimension d fixed to value val.
func (k Key) Child(d Dim, val int32) Key {
	k.Mask = k.Mask.with(d)
	k.Vals[d] = val
	return k
}

// project returns the sub-key of k restricted to mask m. Dimensions of m
// that k does not fix are dropped, so the result's mask is k.Mask ∩ m.
func (k Key) project(m Mask) Key {
	var out Key
	out.Mask = k.Mask & m
	for d := Dim(0); d < NumDims; d++ {
		if out.Mask.Has(d) {
			out.Vals[d] = k.Vals[d]
		}
	}
	return out
}

// SubKeys returns every non-root ancestor-or-self key of k (all non-empty
// sub-masks of k.Mask with k's values), ordered coarse to fine. For a key of
// size s this is 2^s − 1 keys.
func (k Key) SubKeys() []Key {
	n := k.Size()
	out := make([]Key, 0, 1<<n-1)
	// Iterate sub-masks of k.Mask using the standard sub-mask walk.
	for sub := k.Mask; sub > 0; sub = (sub - 1) & k.Mask {
		out = append(out, k.project(sub))
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Mask.Size(), out[j].Mask.Size()
		if si != sj {
			return si < sj
		}
		return out[i].Mask < out[j].Mask
	})
	return out
}

// String renders the key in the paper's style using raw value identifiers,
// e.g. "[ASN=17, CDN=2, *, *, *, *, *]". Use Space.FormatKey for named
// values.
func (k Key) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for d := Dim(0); d < NumDims; d++ {
		if d > 0 {
			b.WriteString(", ")
		}
		if k.Mask.Has(d) {
			fmt.Fprintf(&b, "%s=%d", d, k.Vals[d])
		} else {
			b.WriteByte('*')
		}
	}
	b.WriteByte(']')
	return b.String()
}
