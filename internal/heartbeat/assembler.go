package heartbeat

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metric"
	"repro/internal/session"
)

// recentCompletedCap bounds the completed-session dedup window. Reconnecting
// senders replay a session's Hello (and Joined) after a connection loss; if
// the session already completed on the collector side, the replay must not
// resurrect it as a phantom — the window absorbs replays arriving up to this
// many completions late.
const recentCompletedCap = 4096

// Assembler folds a heartbeat stream into completed sessions. It is safe
// for concurrent use by multiple connection handlers.
type Assembler struct {
	mu      sync.Mutex
	pending map[uint64]*pendingSession
	emit    func(session.Session)
	// IdleTimeout flushes sessions that stop reporting (Flush enforces
	// it); zero disables time-based flushing.
	IdleTimeout time.Duration
	now         func() time.Time

	// Completed-session dedup: a bounded FIFO window of session IDs that
	// have already been emitted. Replayed heartbeats for them are dropped
	// silently (counted), never assembled twice.
	recent  map[uint64]struct{}
	recentQ []uint64

	emitted       int64
	salvaged      int64
	replaysDroppd int64
}

// AssemblerStats snapshots the assembler's accounting counters.
type AssemblerStats struct {
	// Pending is the number of in-flight sessions.
	Pending int
	// Emitted counts every session delivered to emit (completed, flushed,
	// or salvaged).
	Emitted int64
	// Salvaged counts the subset of Emitted that never reported a player
	// status and were assembled as join failures (paper §2 footnote 1).
	Salvaged int64
	// ReplaysDropped counts heartbeats for already-completed sessions
	// (sender replays after reconnect) that were deduplicated.
	ReplaysDropped int64
}

type pendingSession struct {
	s        session.Session
	joined   bool
	progress Message
	lastSeen time.Time
}

// NewAssembler builds an assembler delivering completed sessions to emit.
func NewAssembler(emit func(session.Session)) *Assembler {
	return &Assembler{
		pending:     make(map[uint64]*pendingSession),
		emit:        emit,
		IdleTimeout: 2 * time.Minute,
		now:         time.Now,
		recent:      make(map[uint64]struct{}),
	}
}

// Handle processes one heartbeat.
func (a *Assembler) Handle(m *Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch m.Kind {
	case KindHello:
		if m.SessionID&ControlSessionBit != 0 {
			// Control-plane identity (a relay node announcing itself), not a
			// player session — never assemble, never salvage as a phantom
			// join failure. Connection-level handling happens in the serving
			// layer; the assembler just refuses to track it.
			return nil
		}
		if p, dup := a.pending[m.SessionID]; dup {
			// Re-Hello: a sender replaying its session after reconnect.
			// Identical identity refreshes the session; a conflicting one
			// is a real protocol violation (two players sharing an ID).
			if p.s.Epoch == m.Epoch && p.s.Attrs == m.Attrs {
				p.lastSeen = a.now()
				return nil
			}
			return fmt.Errorf("heartbeat: conflicting Hello for session %d", m.SessionID)
		}
		if _, done := a.recent[m.SessionID]; done {
			// The session already completed (possibly salvaged while its
			// sender was backing off); drop the replay, don't resurrect.
			a.replaysDroppd++
			return nil
		}
		a.pending[m.SessionID] = &pendingSession{
			s: session.Session{
				ID:       m.SessionID,
				Epoch:    m.Epoch,
				Attrs:    m.Attrs,
				EventIDs: session.NoEvents,
			},
			lastSeen: a.now(),
		}
	case KindJoined:
		p, err := a.get(m.SessionID)
		if err != nil {
			return err
		}
		if p == nil {
			return nil
		}
		p.joined = true
		p.s.QoE.JoinTimeMS = m.JoinTimeMS
		p.lastSeen = a.now()
	case KindProgress:
		p, err := a.get(m.SessionID)
		if err != nil {
			return err
		}
		if p == nil {
			return nil
		}
		if !p.joined {
			return fmt.Errorf("heartbeat: Progress before Joined for session %d", m.SessionID)
		}
		p.progress = *m
		p.lastSeen = a.now()
	case KindEnd:
		p, err := a.get(m.SessionID)
		if err != nil {
			return err
		}
		if p == nil {
			return nil
		}
		if !p.joined {
			return fmt.Errorf("heartbeat: End before Joined for session %d", m.SessionID)
		}
		delete(a.pending, m.SessionID)
		a.finishLocked(p, m.DurationS, m.BufferingS, m.WeightedKbpsSec)
	case KindFailed:
		p, err := a.get(m.SessionID)
		if err != nil {
			return err
		}
		if p == nil {
			return nil
		}
		delete(a.pending, m.SessionID)
		p.s.QoE = metric.QoE{JoinFailed: true}
		a.emitLocked(p.s)
	case KindSession:
		// A relay forwarding an already-assembled record: emit it verbatim.
		// Duplicates (sender replay after a lost ack) dedup exactly like
		// completed heartbeat sessions; a full record supersedes any partial
		// heartbeat state accumulated under the same ID.
		if _, done := a.recent[m.SessionID]; done {
			a.replaysDroppd++
			return nil
		}
		delete(a.pending, m.SessionID)
		a.emitLocked(m.Sess)
	case KindStatus, KindAck:
		// Connection-level frames; nothing to assemble.
	default:
		return fmt.Errorf("heartbeat: unknown kind %v", m.Kind)
	}
	return nil
}

// get resolves a non-Hello heartbeat's pending session. A nil, nil return
// means the heartbeat is a replay for an already-completed session and must
// be dropped silently.
func (a *Assembler) get(id uint64) (*pendingSession, error) {
	p, ok := a.pending[id]
	if !ok {
		if _, done := a.recent[id]; done {
			a.replaysDroppd++
			return nil, nil
		}
		return nil, fmt.Errorf("heartbeat: session %d has no Hello", id)
	}
	return p, nil
}

// emitLocked delivers one completed session and records its ID in the
// bounded dedup window.
func (a *Assembler) emitLocked(s session.Session) {
	a.emitted++
	if _, dup := a.recent[s.ID]; !dup {
		a.recent[s.ID] = struct{}{}
		a.recentQ = append(a.recentQ, s.ID)
		if len(a.recentQ) > recentCompletedCap {
			evict := a.recentQ[0]
			a.recentQ = a.recentQ[1:]
			delete(a.recent, evict)
		}
	}
	a.emit(s)
}

// finishLocked completes a joined session from the monotone max of its last
// progress report and the End frame's final totals. The counters are
// cumulative and nondecreasing, so max reconstructs the true final state
// even when the last Progress frame was lost with a dropped connection and
// only the replayed End made it through — without it, such a session would
// finish with stale buffering/bitrate totals and could flip problem bits
// nondeterministically.
func (a *Assembler) finishLocked(p *pendingSession, durationS, bufferingS, weightedKbpsSec float64) {
	q := &p.s.QoE
	played := p.progress.PlayedS
	if durationS > played {
		played = durationS
	}
	buffering := p.progress.BufferingS
	if bufferingS > buffering {
		buffering = bufferingS
	}
	weighted := p.progress.WeightedKbpsSec
	if weightedKbpsSec > weighted {
		weighted = weightedKbpsSec
	}
	total := played + buffering
	if total > 0 {
		q.BufRatio = buffering / total
	}
	if played > 0 {
		q.BitrateKbps = weighted / played
	}
	q.DurationS = played
	a.emitLocked(p.s)
}

// stats snapshots the assembler counters.
func (a *Assembler) stats() AssemblerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AssemblerStats{
		Pending:        len(a.pending),
		Emitted:        a.emitted,
		Salvaged:       a.salvaged,
		ReplaysDropped: a.replaysDroppd,
	}
}

// Flush force-completes stale sessions: joined sessions finish with their
// last progress report; sessions that never reported a player status
// assemble as join failures (paper §2 footnote 1) and count as salvaged.
// With force set, every pending session flushes regardless of idle time.
func (a *Assembler) Flush(force bool) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	cutoff := a.now().Add(-a.IdleTimeout)
	for id, p := range a.pending {
		if !force && a.IdleTimeout > 0 && p.lastSeen.After(cutoff) {
			continue
		}
		delete(a.pending, id)
		n++
		if p.joined {
			a.finishLocked(p, p.progress.PlayedS, 0, 0)
		} else {
			a.salvaged++
			p.s.QoE = metric.QoE{JoinFailed: true}
			a.emitLocked(p.s)
		}
	}
	return n
}
