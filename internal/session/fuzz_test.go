package session

import (
	"bytes"
	"testing"
)

// FuzzDecodeBinary ensures arbitrary bytes never panic the decoder and that
// successfully decoded records re-encode identically.
func FuzzDecodeBinary(f *testing.F) {
	s := sample()
	f.Add(AppendBinary(nil, &s))
	f.Add(make([]byte, BinarySize()))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Session
		if _, err := DecodeBinary(data, &out); err != nil {
			return
		}
		// Compare at the byte level: NaN payloads round-trip exactly but
		// defeat struct equality.
		re := AppendBinary(nil, &out)
		var back Session
		if _, err := DecodeBinary(re, &back); err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		re2 := AppendBinary(nil, &back)
		if !bytes.Equal(re, re2) {
			t.Fatal("binary round trip not byte-stable")
		}
	})
}
