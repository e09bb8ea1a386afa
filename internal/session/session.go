// Package session defines the video session record — the basic unit of the
// dataset (paper §2) — and its encodings: a compact fixed-width binary
// record for traces and the heartbeat tier, and streamed JSON lines for
// export to outside tools.
package session

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/epoch"
	"repro/internal/metric"
)

// NoEvent marks a session not produced under any injected ground-truth
// problem event.
const NoEvent int32 = -1

// Session is one video viewing session: a user watching one video on one
// affiliate site for some duration, annotated with the seven client/session
// attributes and the measured quality outcome.
type Session struct {
	// ID is unique within a trace.
	ID uint64
	// Epoch is the one-hour epoch the session started in.
	Epoch epoch.Index
	// Attrs holds the seven attribute values (identifiers into the trace's
	// attr.Space).
	Attrs attr.Vector
	// QoE is the measured quality of the session.
	QoE metric.QoE

	// EventIDs tags, per metric, the injected ground-truth problem event
	// that degraded this session (NoEvent when none). The analysis
	// pipeline never reads it; it exists so experiments can validate
	// detections against ground truth — something the paper's authors
	// could not do.
	EventIDs [metric.NumMetrics]int32
}

// NoEvents is the EventIDs value of an untouched session.
var NoEvents = [metric.NumMetrics]int32{NoEvent, NoEvent, NoEvent, NoEvent}

// CausedBy reports whether the session's problem on metric m was caused by
// an injected event.
func (s *Session) CausedBy(m metric.Metric) bool { return s.EventIDs[m] != NoEvent }

// Problem reports whether the session is a problem session on metric m.
func (s *Session) Problem(m metric.Metric, t metric.Thresholds) bool {
	return s.QoE.Problem(m, t)
}

// Validate checks internal consistency against a space catalog (pass nil to
// skip attribute-range checks).
func (s *Session) Validate(space *attr.Space) error {
	if s.Epoch < 0 {
		return fmt.Errorf("session %d: negative epoch %d", s.ID, s.Epoch)
	}
	if space != nil && !space.Valid(s.Attrs) {
		return fmt.Errorf("session %d: attribute vector %v outside catalog", s.ID, s.Attrs)
	}
	if err := s.QoE.Validate(); err != nil {
		return fmt.Errorf("session %d: %w", s.ID, err)
	}
	for m, id := range s.EventIDs {
		if id < NoEvent {
			return fmt.Errorf("session %d: bad event id %d for metric %s", s.ID, id, metric.Metric(m))
		}
	}
	return nil
}
