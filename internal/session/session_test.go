package session

import (
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/epoch"
	"repro/internal/metric"
)

func sample() Session {
	return Session{
		ID:    42,
		Epoch: 17,
		Attrs: attr.Vector{3, 1, 250, 0, 2, 1, 4},
		QoE: metric.QoE{
			JoinTimeMS:  2300.5,
			BufRatio:    0.031,
			BitrateKbps: 1850,
			DurationS:   640,
		},
		EventIDs: [metric.NumMetrics]int32{7, NoEvent, NoEvent, NoEvent},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := sample()
	buf := AppendBinary(nil, &s)
	if len(buf) != BinarySize() {
		t.Fatalf("encoded size %d, want %d", len(buf), BinarySize())
	}
	var got Session
	n, err := DecodeBinary(buf, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != BinarySize() {
		t.Errorf("consumed %d, want %d", n, BinarySize())
	}
	if got != s {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestBinaryRoundTripFailedJoin(t *testing.T) {
	s := Session{ID: 1, Epoch: 0, QoE: metric.QoE{JoinFailed: true}, EventIDs: NoEvents}
	buf := AppendBinary(nil, &s)
	var got Session
	if _, err := DecodeBinary(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("round trip mismatch: %+v vs %+v", got, s)
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	var s Session
	if _, err := DecodeBinary(make([]byte, 10), &s); err == nil {
		t.Error("short record accepted")
	}
	full := AppendBinary(nil, &s)
	full[40] = 0xff
	if _, err := DecodeBinary(full, &s); err == nil {
		t.Error("unknown flags accepted")
	}
}

func TestBinaryProperty(t *testing.T) {
	f := func(id uint64, ep int32, a [attr.NumDims]int32, failed bool, jt, br, bw, dur float64, ev int32) bool {
		s := Session{ID: id, Epoch: epoch.Index(ep), Attrs: a}
		for i := range s.EventIDs {
			s.EventIDs[i] = ev + int32(i)
		}
		s.QoE = metric.QoE{JoinFailed: failed, JoinTimeMS: jt, BufRatio: br, BitrateKbps: bw, DurationS: dur}
		buf := AppendBinary(nil, &s)
		var got Session
		if _, err := DecodeBinary(buf, &got); err != nil {
			return false
		}
		return got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	space, err := attr.NewSpace(map[attr.Dim][]string{
		attr.ASN:        {"a", "b", "c", "d"},
		attr.CDN:        {"x", "y"},
		attr.Site:       make300(),
		attr.VoDOrLive:  {"VoD", "Live"},
		attr.PlayerType: {"Flash", "HTML5", "Silverlight"},
		attr.Browser:    {"Chrome", "Firefox"},
		attr.ConnType:   {"DSL", "Cable", "Fiber", "Mobile", "FixedWireless"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	if err := s.Validate(space); err != nil {
		t.Errorf("Validate(valid) = %v", err)
	}
	bad := s
	bad.Epoch = -1
	if bad.Validate(nil) == nil {
		t.Error("negative epoch accepted")
	}
	bad = s
	bad.Attrs[attr.CDN] = 99
	if bad.Validate(space) == nil {
		t.Error("out-of-catalog attribute accepted")
	}
	bad = s
	bad.QoE.BufRatio = 2
	if bad.Validate(nil) == nil {
		t.Error("impossible QoE accepted")
	}
	bad = s
	bad.EventIDs[2] = -5
	if bad.Validate(nil) == nil {
		t.Error("bad event id accepted")
	}
}

func make300() []string {
	out := make([]string, 300)
	for i := range out {
		out[i] = "site-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+i/100))
	}
	return out
}

func TestProblemDelegates(t *testing.T) {
	th := metric.Default()
	s := sample()
	s.QoE.BufRatio = 0.2
	if !s.Problem(metric.BufRatio, th) {
		t.Error("Problem should delegate to QoE")
	}
	if s.Problem(metric.JoinFailure, th) {
		t.Error("played session flagged as join failure")
	}
}
