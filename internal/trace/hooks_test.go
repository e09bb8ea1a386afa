package trace

import (
	"io"

	"repro/internal/session"
)

// Test hooks.

// TornTail reports whether the stream ended mid-record and the partial
// tail was skipped.
func (r *Reader) TornTail() bool { return r.torn }

// ReadAll drains the trace into memory. Intended for laptop-scale traces
// and tests; large traces should use Next or ForEach.
func (r *Reader) ReadAll() ([]session.Session, error) {
	var out []session.Session
	var s session.Session
	for {
		err := r.Next(&s)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}
