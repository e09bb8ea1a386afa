package session

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/attr"
)

// jsonSession is the JSON-lines interchange shape: flat, snake_case,
// self-describing field names rather than positional arrays, so downstream
// tools (jq, dataframe loaders) consume it directly.
type jsonSession struct {
	ID         uint64  `json:"id"`
	Epoch      int32   `json:"epoch"`
	ASN        int32   `json:"asn"`
	CDN        int32   `json:"cdn"`
	Site       int32   `json:"site"`
	VoDOrLive  int32   `json:"vod_or_live"`
	PlayerType int32   `json:"player_type"`
	Browser    int32   `json:"browser"`
	ConnType   int32   `json:"conn_type"`
	JoinFailed bool    `json:"join_failed"`
	JoinTimeMS float64 `json:"join_time_ms,omitempty"`
	BufRatio   float64 `json:"buf_ratio,omitempty"`
	Bitrate    float64 `json:"bitrate_kbps,omitempty"`
	DurationS  float64 `json:"duration_s,omitempty"`
	Events     []int32 `json:"event_ids,omitempty"`
}

func toJSON(s *Session) jsonSession {
	j := jsonSession{
		ID:         s.ID,
		Epoch:      int32(s.Epoch),
		ASN:        s.Attrs[attr.ASN],
		CDN:        s.Attrs[attr.CDN],
		Site:       s.Attrs[attr.Site],
		VoDOrLive:  s.Attrs[attr.VoDOrLive],
		PlayerType: s.Attrs[attr.PlayerType],
		Browser:    s.Attrs[attr.Browser],
		ConnType:   s.Attrs[attr.ConnType],
		JoinFailed: s.QoE.JoinFailed,
		JoinTimeMS: s.QoE.JoinTimeMS,
		BufRatio:   s.QoE.BufRatio,
		Bitrate:    s.QoE.BitrateKbps,
		DurationS:  s.QoE.DurationS,
	}
	if s.EventIDs != NoEvents {
		j.Events = s.EventIDs[:]
	}
	return j
}

// WriteJSONL streams sessions as JSON lines, one line per session in the
// order forEach yields them, so a trace of any length is never held in
// memory. forEach has the shape of synth.Generator.ForEach.
func WriteJSONL(w io.Writer, forEach func(func(*Session) error) error) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := forEach(func(s *Session) error {
		j := toJSON(s)
		return enc.Encode(&j)
	}); err != nil {
		return err
	}
	return bw.Flush()
}
