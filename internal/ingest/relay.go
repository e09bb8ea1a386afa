package ingest

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/session"
	"repro/internal/trace"
)

// Status frame indices: the semantics of the four cumulative counters a
// node reports to the aggregator in heartbeat KindStatus frames. The
// aggregator folds per-epoch deltas of these into coverage records.
const (
	// StatusRelayShed counts sessions lost inside the relay: abandoned
	// sends, spool-overflow segment drops, and unreadable segments.
	StatusRelayShed = 0
	// StatusSpoolShed counts sessions shed by the node's in-memory spool.
	StatusSpoolShed = 1
	// StatusSalvaged counts sessions the node's assembler salvaged as join
	// failures (connection died after Hello, no player status).
	StatusSalvaged = 2
	// StatusRecovered counts sessions re-read from disk segments after a
	// node restart and re-sent.
	StatusRecovered = 3
)

// segPattern names on-disk spool segments; the zero-padded index keeps
// lexical order equal to creation order.
const segPattern = "seg-%06d.vqt"

// RelayConfig shapes a Relay.
type RelayConfig struct {
	// Dir is the spool directory; segments that survive a node kill are
	// recovered from it on restart.
	Dir string
	// NodeID identifies this node to the aggregator (must fit below
	// heartbeat.ControlSessionBit).
	NodeID uint64
	// Incarnation distinguishes restarts of the same node; the aggregator
	// marks open epochs degraded when it grows. It must fit in 32 bits.
	Incarnation uint64
	// RotateEvery seals the active segment after this many sessions
	// (default 256); sealed segments are what the send loop ships.
	RotateEvery int
	// MaxSegments bounds the sealed-segment backlog (default 64); overflow
	// drops the oldest segment and counts its sessions as shed — bounded
	// disk, explicit loss, exactly like the in-memory spool.
	MaxSegments int
	// Sender configures the relay's heartbeat.Sender to the aggregator.
	// AckMode is forced on: a segment file is deleted only after every one
	// of its sessions was acknowledged.
	Sender heartbeat.SenderConfig
	// StatusFn supplies the node's composite cumulative counters for
	// KindStatus frames (nil disables status reporting). Called from the
	// relay's send goroutine; must be safe for concurrent use.
	StatusFn func() [4]uint64
	// Logf receives diagnostics (nil silences).
	Logf func(format string, args ...any)
}

// RelayStats snapshots the relay's accounting.
type RelayStats struct {
	// Offered counts sessions handed to offer.
	Offered int64
	// Sent counts sessions delivered to (and acknowledged by) the
	// aggregator.
	Sent int64
	// Abandoned counts sessions whose send exhausted MaxAttempts.
	Abandoned int64
	// Shed counts sessions lost to segment overflow, unreadable segments,
	// write failures, or offers after close.
	Shed int64
	// Recovered counts sessions re-read from leftover segments at startup.
	Recovered int64
	// SegmentsSealed and SegmentsDropped count rotation and overflow
	// events.
	SegmentsSealed  int64
	SegmentsDropped int64
	// QueueSegments is the current sealed backlog; ActiveSessions the
	// record count of the unsealed active segment.
	QueueSegments  int
	ActiveSessions int
}

type segment struct {
	path  string
	count int
}

// Relay is the node-to-aggregator shipping lane: sessions are appended to
// disk-backed spool segments (flushed per record, fsynced at rotation) and
// a single send goroutine streams sealed segments to the aggregator over an
// ack-mode heartbeat.Sender, deleting a segment only after every session in
// it was acknowledged. A killed node leaves its segments on disk; the next
// incarnation recovers and re-sends them, and the aggregator's (epoch, ID)
// dedup absorbs anything delivered twice.
type Relay struct {
	cfg RelayConfig
	snd *heartbeat.Sender

	mu          sync.Mutex
	activeF     *os.File
	activeW     *trace.Writer
	activePath  string
	activeCount int
	nextSeg     int
	queue       []segment
	closed      bool
	killed      bool

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	offered, sent, abandoned, shed, recovered atomic.Int64
	sealedSegs, droppedSegs                   atomic.Int64
}

// newRelay opens (or reopens) a spool directory, recovers any leftover
// segments from a previous incarnation, and starts the send loop against
// dial. The relay announces its identity (a control Hello carrying NodeID
// and Incarnation) before any session, on every connection.
func newRelay(dial func() (net.Conn, error), cfg RelayConfig) (*Relay, error) {
	if cfg.NodeID&heartbeat.ControlSessionBit != 0 {
		return nil, fmt.Errorf("ingest: node ID %#x collides with the control bit", cfg.NodeID)
	}
	if cfg.Incarnation > math.MaxUint32 {
		return nil, fmt.Errorf("ingest: incarnation %d overflows the 32-bit announce field", cfg.Incarnation)
	}
	if cfg.RotateEvery <= 0 {
		cfg.RotateEvery = 256
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = 64
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: spool dir: %w", err)
	}
	r := &Relay{
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if err := r.recover(); err != nil {
		return nil, err
	}
	sc := cfg.Sender
	sc.AckMode = true
	r.snd = heartbeat.NewSender(dial, sc)
	r.snd.Logf = cfg.Logf
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// recover scans the spool directory for segments a previous incarnation
// left behind, counts their sessions (streaming, torn-tail tolerant), and
// queues them for re-sending.
func (r *Relay) recover() error {
	paths, err := filepath.Glob(filepath.Join(r.cfg.Dir, "seg-*.vqt"))
	if err != nil {
		return fmt.Errorf("ingest: scanning spool dir: %w", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(p), segPattern, &idx); err == nil && idx >= r.nextSeg {
			r.nextSeg = idx + 1
		}
		n, err := countSegmentSessions(p)
		if err != nil {
			// Header torn or unreadable: nothing recoverable inside. Remove
			// it so the backlog stays bounded; the loss shows up as relay
			// shed on the next status report.
			r.logf("ingest: dropping unreadable spool segment %s: %v", p, err)
			_ = os.Remove(p)
			continue
		}
		if n == 0 {
			_ = os.Remove(p)
			continue
		}
		r.recovered.Add(int64(n))
		r.queue = append(r.queue, segment{path: p, count: n})
	}
	return nil
}

// countSegmentSessions streams a segment to count its complete records; a
// torn tail truncates the count, it does not fail it.
func countSegmentSessions(path string) (int, error) {
	rd, err := trace.Open(path)
	if err != nil {
		return 0, err
	}
	rd.Logf = nil
	n := 0
	var s session.Session
	for {
		err := rd.Next(&s)
		if err == io.EOF {
			break
		}
		if err != nil {
			_ = rd.Close() // the decode error is the one worth surfacing
			return n, err
		}
		n++
	}
	return n, rd.Close()
}

func (r *Relay) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// offer appends one assembled session to the active spool segment. It never
// blocks on the network: disk write and flush, rotation when due, and the
// send loop ships sealed segments asynchronously. Failures shed the session
// with accounting, never wedge the caller.
func (r *Relay) offer(s session.Session) {
	r.offered.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.shed.Add(1)
		return
	}
	if r.activeW == nil && !r.openSegmentLocked() {
		r.shed.Add(1)
		return
	}
	if err := r.activeW.Write(&s); err != nil {
		r.logf("ingest: spool write: %v (session shed)", err)
		r.shed.Add(1)
		return
	}
	if err := r.activeW.Flush(); err != nil {
		// The record may be partially on disk; the torn-tail reader drops
		// it on recovery, so count it lost now.
		r.logf("ingest: spool flush: %v (session shed)", err)
		r.shed.Add(1)
		return
	}
	r.activeCount++
	if r.activeCount >= r.cfg.RotateEvery {
		r.sealLocked()
	}
}

// Rotate seals the active segment (if it has records) so its sessions ship
// now instead of waiting for RotateEvery; nodes call it at epoch
// boundaries.
func (r *Relay) Rotate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.sealLocked()
	}
}

func (r *Relay) openSegmentLocked() bool {
	path := filepath.Join(r.cfg.Dir, fmt.Sprintf(segPattern, r.nextSeg))
	f, err := os.Create(path)
	if err != nil {
		r.logf("ingest: creating spool segment: %v", err)
		return false
	}
	w, err := trace.NewWriter(f, trace.Header{Comment: "relay spool segment"}, false)
	if err != nil {
		r.logf("ingest: spool segment header: %v", err)
		_ = f.Close()
		_ = os.Remove(path)
		return false
	}
	r.nextSeg++
	r.activeF, r.activeW, r.activePath, r.activeCount = f, w, path, 0
	return true
}

// sealLocked closes the active segment onto the send queue: writer flush,
// fsync, file close. The relay owns fsync policy (trace.Writer only flushes
// here), so durability is paid once per segment, not per record. Overflow
// beyond MaxSegments drops the oldest sealed segment, counting its
// sessions shed.
func (r *Relay) sealLocked() {
	if r.activeW == nil || r.activeCount == 0 {
		return
	}
	if err := r.activeW.Close(); err != nil {
		r.logf("ingest: sealing segment: %v", err)
	}
	if err := r.activeF.Sync(); err != nil {
		r.logf("ingest: fsync segment: %v", err)
	}
	if err := r.activeF.Close(); err != nil {
		r.logf("ingest: closing segment: %v", err)
	}
	r.queue = append(r.queue, segment{path: r.activePath, count: r.activeCount})
	r.sealedSegs.Add(1)
	r.activeF, r.activeW, r.activePath, r.activeCount = nil, nil, "", 0
	for len(r.queue) > r.cfg.MaxSegments {
		old := r.queue[0]
		r.queue = r.queue[1:]
		r.shed.Add(int64(old.count))
		r.droppedSegs.Add(1)
		_ = os.Remove(old.path)
		r.logf("ingest: spool overflow: dropped segment %s (%d sessions)", old.path, old.count)
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// run is the send loop: announce identity, then ship sealed segments in
// order, status after each, until closed (drain) or killed (stop now).
func (r *Relay) run() {
	defer r.wg.Done()
	if !r.announce() {
		return
	}
	for {
		seg, ok := r.pop()
		if ok {
			if !r.sendSegment(seg) {
				return // sender closed mid-segment; file stays for recovery
			}
			r.sendStatus()
			continue
		}
		r.mu.Lock()
		closed, killed := r.closed, r.killed
		r.mu.Unlock()
		if killed {
			return
		}
		if closed {
			r.sendStatus()
			return
		}
		select {
		case <-r.wake:
		case <-r.done:
		}
	}
}

// announce sends the control Hello carrying this node's identity. The
// Sender's replay keeps it as the first frame of every future connection,
// so the aggregator always learns who is talking before any session
// arrives. Retries until delivered or the relay stops.
func (r *Relay) announce() bool {
	m := heartbeat.Message{
		Kind:      heartbeat.KindHello,
		SessionID: heartbeat.ControlSessionBit | r.cfg.NodeID,
	}
	m.Attrs[0] = int32(r.cfg.Incarnation) // newRelay bounds it to 32 bits; read back as uint32
	for {
		err := r.snd.Send(&m)
		if err == nil {
			return true
		}
		if errors.Is(err, heartbeat.ErrSenderClosed) {
			return false
		}
		// Abandoned this round (aggregator down past MaxAttempts): nothing
		// may ship before the announce, so wait and try again.
		select {
		case <-r.done:
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (r *Relay) pop() (segment, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.queue) == 0 {
		return segment{}, false
	}
	seg := r.queue[0]
	r.queue = r.queue[1:]
	return seg, true
}

// sendSegment streams one sealed segment to the aggregator, session by
// session, each acknowledged before the next. The file is removed only
// after the last session; a sender closed mid-segment (kill) leaves it on
// disk for the next incarnation, which re-sends the whole segment — the
// aggregator's dedup makes the overlap harmless. It returns false when the
// sender is closed.
func (r *Relay) sendSegment(seg segment) bool {
	rd, err := trace.Open(seg.path)
	if err != nil {
		r.logf("ingest: reading segment %s: %v (%d sessions shed)", seg.path, err, seg.count)
		r.shed.Add(int64(seg.count))
		_ = os.Remove(seg.path)
		return true
	}
	rd.Logf = nil
	var s session.Session
	for {
		err := rd.Next(&s)
		if err == io.EOF {
			break
		}
		if err != nil {
			r.logf("ingest: decoding segment %s: %v (rest shed)", seg.path, err)
			r.shed.Add(1) // at least the undecodable record is gone
			break
		}
		m := heartbeat.SessionMessage(&s)
		if err := r.snd.Send(&m); err != nil {
			if errors.Is(err, heartbeat.ErrSenderClosed) {
				_ = rd.Close() // keep the file: recovery re-sends it
				return false
			}
			r.abandoned.Add(1)
			continue
		}
		r.sent.Add(1)
	}
	if err := rd.Close(); err != nil {
		r.logf("ingest: closing segment %s: %v", seg.path, err)
	}
	_ = os.Remove(seg.path)
	return true
}

// sendStatus ships the node's cumulative counters; best-effort (the
// counters are cumulative, so a lost status is covered by the next one).
func (r *Relay) sendStatus() {
	if r.cfg.StatusFn == nil {
		return
	}
	m := heartbeat.Message{
		Kind:      heartbeat.KindStatus,
		SessionID: heartbeat.ControlSessionBit | r.cfg.NodeID,
		Status:    r.cfg.StatusFn(),
	}
	if err := r.snd.Send(&m); err != nil && !errors.Is(err, heartbeat.ErrSenderClosed) {
		r.logf("ingest: status send: %v", err)
	}
}

// close drains gracefully: the active segment seals, every queued segment
// ships, a final status goes out, and the sender closes.
func (r *Relay) close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("ingest: relay already closed")
	}
	r.closed = true
	r.sealLocked()
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
	return r.snd.Close()
}

// kill models the node process dying: the sender is torn down immediately
// (an in-flight send aborts), nothing drains, and sealed and active
// segments alike stay on disk for the next incarnation to recover.
func (r *Relay) kill() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.killed = true
	if r.activeF != nil {
		// No seal, no fsync: the file keeps whatever Flush already pushed,
		// exactly the on-disk state a killed process leaves behind.
		_ = r.activeF.Close()
		r.activeF, r.activeW, r.activePath, r.activeCount = nil, nil, "", 0
	}
	r.mu.Unlock()
	_ = r.snd.Close() // interrupts a blocked Send or backoff
	close(r.done)
	r.wg.Wait()
}

// senderStats exposes the underlying sender's delivery counters.
func (r *Relay) senderStats() heartbeat.SenderStats { return r.snd.Stats() }

// Stats snapshots the relay counters.
func (r *Relay) Stats() RelayStats {
	r.mu.Lock()
	queue, active := len(r.queue), r.activeCount
	r.mu.Unlock()
	return RelayStats{
		Offered:         r.offered.Load(),
		Sent:            r.sent.Load(),
		Abandoned:       r.abandoned.Load(),
		Shed:            r.shed.Load(),
		Recovered:       r.recovered.Load(),
		SegmentsSealed:  r.sealedSegs.Load(),
		SegmentsDropped: r.droppedSegs.Load(),
		QueueSegments:   queue,
		ActiveSessions:  active,
	}
}
