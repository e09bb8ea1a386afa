package session_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/attr"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/synth"
)

// jsonLine is the shape an outside tool sees: every field read back with
// encoding/json alone, and EventIDs as a pointer so that an absent
// event_ids key is told apart from an empty one.
type jsonLine struct {
	ID         uint64   `json:"id"`
	Epoch      int32    `json:"epoch"`
	ASN        int32    `json:"asn"`
	CDN        int32    `json:"cdn"`
	Site       int32    `json:"site"`
	VoDOrLive  int32    `json:"vod_or_live"`
	PlayerType int32    `json:"player_type"`
	Browser    int32    `json:"browser"`
	ConnType   int32    `json:"conn_type"`
	JoinFailed bool     `json:"join_failed"`
	JoinTimeMS float64  `json:"join_time_ms"`
	BufRatio   float64  `json:"buf_ratio"`
	Bitrate    float64  `json:"bitrate_kbps"`
	DurationS  float64  `json:"duration_s"`
	Events     *[]int32 `json:"event_ids"`
}

func TestJSONLStreamsEverySessionExactly(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 5
	cfg.SessionsPerEpoch = 400
	cfg.Trace = epoch.Range{Start: 7, End: 8}
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := g.EpochSessions(7)

	var buf bytes.Buffer
	if err := session.WriteJSONL(&buf, g.ForEach); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	n, withEvents := 0, 0
	for ; sc.Scan(); n++ {
		if n >= len(want) {
			t.Fatalf("more than %d lines written", len(want))
		}
		var got jsonLine
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		s := &want[n]
		if got.ID != s.ID || epoch.Index(got.Epoch) != s.Epoch {
			t.Errorf("line %d: id/epoch %d/%d, want %d/%d", n+1, got.ID, got.Epoch, s.ID, s.Epoch)
		}
		attrs := attr.Vector{got.ASN, got.CDN, got.Site, got.VoDOrLive, got.PlayerType, got.Browser, got.ConnType}
		for d := attr.Dim(0); d < attr.NumDims; d++ {
			if attrs[d] != s.Attrs[d] {
				t.Errorf("line %d: %v = %d, want %d", n+1, d, attrs[d], s.Attrs[d])
			}
		}
		if got.JoinFailed != s.QoE.JoinFailed {
			t.Errorf("line %d: join_failed %v, want %v", n+1, got.JoinFailed, s.QoE.JoinFailed)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"join_time_ms", got.JoinTimeMS, s.QoE.JoinTimeMS},
			{"buf_ratio", got.BufRatio, s.QoE.BufRatio},
			{"bitrate_kbps", got.Bitrate, s.QoE.BitrateKbps},
			{"duration_s", got.DurationS, s.QoE.DurationS},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Errorf("line %d: %s = %v, want %v bit for bit", n+1, f.name, f.got, f.want)
			}
		}
		switch {
		case s.EventIDs == session.NoEvents && got.Events != nil:
			t.Errorf("line %d: event_ids %v on a session without events", n+1, *got.Events)
		case s.EventIDs != session.NoEvents && got.Events == nil:
			t.Errorf("line %d: event_ids missing, want %v", n+1, s.EventIDs)
		case got.Events != nil:
			withEvents++
			if len(*got.Events) != len(s.EventIDs) || [metric.NumMetrics]int32(*got.Events) != s.EventIDs {
				t.Errorf("line %d: event_ids %v, want %v", n+1, *got.Events, s.EventIDs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("%d lines written, want %d", n, len(want))
	}
	if withEvents == 0 || withEvents == n {
		t.Fatalf("%d of %d sessions carry events; the epoch must hold both kinds", withEvents, n)
	}
}
