package heartbeat

import (
	"errors"
	"time"

	"repro/internal/metric"
	"repro/internal/session"
)

// Collector is the measurement back end: a Server whose connections feed
// one Assembler, which turns many concurrent heartbeat streams into
// completed sessions. The Server's Abort drops pending assembler state
// unflushed, exactly as a killed process would; the chaos soak uses it to
// model a collector node dying mid-epoch.
type Collector struct {
	*Server
	asm *Assembler
}

// Stats is a snapshot of collector counters.
type Stats struct {
	ConnStats
	PendingSession int
	// SessionsEmitted, Salvaged, and ReplaysDropped mirror the assembler's
	// accounting (see AssemblerStats).
	SessionsEmitted int64
	Salvaged        int64
	ReplaysDropped  int64
}

// Stats returns current counters.
func (c *Collector) Stats() Stats {
	as := c.asm.stats()
	return Stats{
		ConnStats:       c.Server.Stats(),
		PendingSession:  as.Pending,
		SessionsEmitted: as.Emitted,
		Salvaged:        as.Salvaged,
		ReplaysDropped:  as.ReplaysDropped,
	}
}

// NewCollector builds a collector delivering completed sessions to emit.
// emit may be called concurrently.
func NewCollector(emit func(session.Session)) *Collector {
	asm := NewAssembler(emit)
	handle := Handler(asm.Handle)
	return &Collector{
		Server: NewServer("heartbeat", func() Handler { return handle }),
		asm:    asm,
	}
}

// Assembler exposes the underlying assembler (for Flush policies).
func (c *Collector) Assembler() *Assembler { return c.asm }

// Close is CloseGrace with a ten-second drain.
func (c *Collector) Close() error { return c.CloseGrace(drainGrace) }

// CloseGrace drains the server (see Server.CloseGrace), then force-flushes
// the assembler so no pending session is lost.
func (c *Collector) CloseGrace(grace time.Duration) error {
	err := c.Server.CloseGrace(grace)
	if errors.Is(err, errClosed) {
		return err // closed or aborted before: nothing left to flush
	}
	c.asm.Flush(true)
	return err
}

// sessionMessages appends the heartbeat sequence reporting one completed
// session: Hello → Failed, or Hello → Joined → Progress×steps → End. Both
// the in-process Emitter and the reconnecting Sender emit exactly this
// sequence.
func sessionMessages(dst []Message, s *session.Session, progressEvery int) []Message {
	dst = append(dst, Message{Kind: KindHello, SessionID: s.ID, Epoch: s.Epoch, Attrs: s.Attrs})
	if s.QoE.JoinFailed {
		return append(dst, Message{Kind: KindFailed, SessionID: s.ID})
	}
	dst = append(dst, Message{Kind: KindJoined, SessionID: s.ID, JoinTimeMS: s.QoE.JoinTimeMS})
	steps := progressEvery
	if steps < 1 {
		steps = 1
	}
	q := s.QoE
	total := q.DurationS
	buffering := totalBuffering(q)
	for i := 1; i <= steps; i++ {
		frac := float64(i) / float64(steps)
		dst = append(dst, Message{
			Kind:            KindProgress,
			SessionID:       s.ID,
			PlayedS:         total * frac,
			BufferingS:      buffering * frac,
			WeightedKbpsSec: q.BitrateKbps * total * frac,
		})
	}
	// End carries the authoritative totals: if the connection died after the
	// last Progress frame was lost, the collector still reconstructs the
	// exact final QoE from End alone.
	return append(dst, Message{
		Kind:            KindEnd,
		SessionID:       s.ID,
		DurationS:       total,
		BufferingS:      buffering,
		WeightedKbpsSec: q.BitrateKbps * total,
	})
}

// Emitter is the client-side measurement module: it reports one session's
// lifecycle over a stream. A zero ProgressInterval sends a single progress
// report before End.
type Emitter struct {
	W *Writer
	// ProgressEvery splits playback into this many progress reports
	// (default 1).
	ProgressEvery int
	// Pace inserts a real-time delay between heartbeats (demos; zero for
	// tests and bulk replay).
	Pace time.Duration

	msgs []Message
}

// EmitSession reports a completed session as its heartbeat sequence.
func (e *Emitter) EmitSession(s *session.Session) error {
	e.msgs = sessionMessages(e.msgs[:0], s, e.ProgressEvery)
	for i := range e.msgs {
		if err := e.send(&e.msgs[i]); err != nil {
			return err
		}
	}
	return nil
}

func totalBuffering(q metric.QoE) float64 {
	// QoE stores buffering as a ratio of total session time; invert it.
	if q.BufRatio <= 0 || q.BufRatio >= 1 {
		return 0
	}
	return q.BufRatio * q.DurationS / (1 - q.BufRatio)
}

func (e *Emitter) send(m *Message) error {
	if e.Pace > 0 {
		time.Sleep(e.Pace)
	}
	return e.W.Write(m)
}
