package attr

import (
	"fmt"
	"strconv"
	"strings"
)

// Space is the catalog of legal values for each dimension: it maps value
// identifiers to human-readable names and back. A Space is immutable after
// construction and safe for concurrent use.
type Space struct {
	names   [NumDims][]string
	indexes [NumDims]map[string]int32
}

// NewSpace builds a Space from per-dimension value name lists. Every
// dimension must have at least one value; names within a dimension must be
// unique.
func NewSpace(names map[Dim][]string) (*Space, error) {
	s := &Space{}
	for d := Dim(0); d < NumDims; d++ {
		vals := names[d]
		if len(vals) == 0 {
			return nil, fmt.Errorf("attr: dimension %s has no values", d)
		}
		s.names[d] = append([]string(nil), vals...)
		s.indexes[d] = make(map[string]int32, len(vals))
		for i, n := range vals {
			if _, dup := s.indexes[d][n]; dup {
				return nil, fmt.Errorf("attr: dimension %s has duplicate value %q", d, n)
			}
			s.indexes[d][n] = int32(i)
		}
	}
	return s, nil
}

// Cardinality returns the number of values of dimension d.
func (s *Space) Cardinality(d Dim) int { return len(s.names[d]) }

// Name returns the name of value id in dimension d, or a numeric fallback
// for out-of-range ids.
func (s *Space) Name(d Dim, id int32) string {
	if id >= 0 && int(id) < len(s.names[d]) {
		return s.names[d][id]
	}
	return fmt.Sprintf("%s#%d", d, id)
}

// lookup resolves a value name in dimension d to its identifier.
func (s *Space) lookup(d Dim, name string) (int32, bool) {
	id, ok := s.indexes[d][name]
	return id, ok
}

// Valid reports whether vector v is within the catalog on every dimension.
func (s *Space) Valid(v Vector) bool {
	for d := Dim(0); d < NumDims; d++ {
		if v[d] < 0 || int(v[d]) >= len(s.names[d]) {
			return false
		}
	}
	return true
}

// FormatKey renders a key with named values, in the compact style used in
// reports, e.g. "CDN=cdn-03, ConnType=MobileWireless". The root renders as
// "(root)".
func (s *Space) FormatKey(k Key) string {
	if k.Mask == 0 {
		return "(root)"
	}
	var b strings.Builder
	first := true
	for d := Dim(0); d < NumDims; d++ {
		if !k.Mask.Has(d) {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(d.String())
		b.WriteByte('=')
		b.WriteString(s.Name(d, k.Vals[d]))
	}
	return b.String()
}

// ParseKey parses the compact "Dim=value, Dim=value" syntax produced by
// FormatKey (and accepted on command lines). Values are resolved by name
// first and then, failing that, as raw integer identifiers. "(root)" and the
// empty string parse to the root key.
func (s *Space) ParseKey(text string) (Key, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "(root)" {
		return Root, nil
	}
	var k Key
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return Root, fmt.Errorf("attr: bad key component %q (want Dim=value)", part)
		}
		d, err := parseDim(strings.TrimSpace(part[:eq]))
		if err != nil {
			return Root, err
		}
		if k.Mask.Has(d) {
			return Root, fmt.Errorf("attr: dimension %s specified twice", d)
		}
		valText := strings.TrimSpace(part[eq+1:])
		id, ok := s.lookup(d, valText)
		if !ok {
			n, err := strconv.ParseInt(valText, 10, 32)
			if err != nil || n < 0 || int(n) >= s.Cardinality(d) {
				return Root, fmt.Errorf("attr: unknown %s value %q", d, valText)
			}
			id = int32(n)
		}
		k = k.Child(d, id)
	}
	return k, nil
}
