// Package faultnet is a deterministic fault-injection layer for stream
// transports: net.Conn and net.Listener wrappers that reproduce, from a
// single seed, the network pathologies the paper's measurement channel had
// to survive — stalls, connection resets, partial writes, in-flight byte
// corruption, and transient accept failures. The chaos soak test in
// internal/heartbeat drives hundreds of players through these
// wrappers and asserts the collector pipeline degrades by accounting, not
// by crashing.
//
// Determinism: every wrapper draws from a stats.RNG split derived from the
// configured seed and a per-connection counter, so a given (seed, schedule
// of operations) replays the same fault sequence. Injected resets drop the
// offending write entirely before failing (modeling a RST that arrives
// before the segment is accepted), so "write returned an error" reliably
// implies "the frame was not delivered" — the invariant the heartbeat
// Sender's replay logic leans on.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/stats"
)

// Config enables individual fault classes. All probabilities are per
// operation (per Read, per Write, per Accept); zero disables a class.
type Config struct {
	// Seed makes the whole fault schedule reproducible.
	Seed uint64

	// StallProb delays an operation by a uniform duration in
	// [StallMin, StallMax] before it proceeds.
	StallProb float64
	StallMin  time.Duration
	StallMax  time.Duration

	// ResetProb abruptly closes the connection instead of performing the
	// operation; the operation (and every later one) fails with a reset
	// error. Nothing is delivered.
	ResetProb float64

	// PartialWriteProb delivers a strict prefix of the buffer, then fails
	// with a reset error.
	PartialWriteProb float64

	// CorruptProb flips one random bit of the buffer in transit. The
	// operation itself succeeds — corruption is only discoverable by the
	// receiver (checksums), exactly like the real network.
	CorruptProb float64

	// AcceptFailProb makes Accept return a transient error instead of a
	// connection.
	AcceptFailProb float64
}

// ErrInjectedReset marks a connection torn down by the injector.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// errTransientAccept is what a failed Accept returns; it is temporary in
// the net.Error sense so accept loops retry rather than shut down.
type errTransientAccept struct{}

func (errTransientAccept) Error() string   { return "faultnet: injected accept failure" }
func (errTransientAccept) Timeout() bool   { return false }
func (errTransientAccept) Temporary() bool { return true }

// Conn wraps a net.Conn with fault injection on both directions.
type Conn struct {
	net.Conn
	cfg Config

	mu    sync.Mutex
	rng   *stats.RNG
	dead  bool
	stats ConnStats
}

// ConnStats counts the faults a connection has injected.
type ConnStats struct {
	Stalls        int
	Resets        int
	PartialWrites int
	Corruptions   int
}

// WrapConn wraps c with the given fault configuration and an independent
// RNG stream labelled by id (use a distinct id per connection).
func WrapConn(c net.Conn, cfg Config, id uint64) *Conn {
	return &Conn{Conn: c, cfg: cfg, rng: stats.NewRNG(cfg.Seed).Split(id)}
}

// Stats snapshots the injected-fault counters.
func (c *Conn) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// decide draws the fault plan for one operation under the lock, so
// concurrent Read/Write keep the RNG stream race-free.
type plan struct {
	stall   time.Duration
	reset   bool
	partial int // bytes to deliver before failing (-1: no partial fault)
	corrupt int // byte index to flip (-1: none)
}

func (c *Conn) decide(n int, isWrite bool) (plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return plan{}, ErrInjectedReset
	}
	p := plan{partial: -1, corrupt: -1}
	if c.cfg.StallProb > 0 && c.rng.Bool(c.cfg.StallProb) {
		span := c.cfg.StallMax - c.cfg.StallMin
		d := c.cfg.StallMin
		if span > 0 {
			d += time.Duration(c.rng.Float64() * float64(span))
		}
		p.stall = d
		c.stats.Stalls++
	}
	if c.cfg.ResetProb > 0 && c.rng.Bool(c.cfg.ResetProb) {
		p.reset = true
		c.dead = true
		c.stats.Resets++
		return p, nil
	}
	if isWrite && n > 1 && c.cfg.PartialWriteProb > 0 && c.rng.Bool(c.cfg.PartialWriteProb) {
		p.partial = 1 + c.rng.Intn(n-1) // strict prefix, never the full buffer
		c.dead = true
		c.stats.PartialWrites++
		return p, nil
	}
	if isWrite && n > 0 && c.cfg.CorruptProb > 0 && c.rng.Bool(c.cfg.CorruptProb) {
		p.corrupt = c.rng.Intn(n * 8) // bit index
		c.stats.Corruptions++
	}
	return p, nil
}

// Read applies stalls and resets to the receive path.
func (c *Conn) Read(b []byte) (int, error) {
	p, err := c.decide(len(b), false)
	if err != nil {
		return 0, err
	}
	if p.stall > 0 {
		time.Sleep(p.stall)
	}
	if p.reset {
		_ = c.Conn.Close() // the injected reset is the error that matters
		return 0, ErrInjectedReset
	}
	return c.Conn.Read(b)
}

// Write applies stalls, resets, partial writes, and corruption to the send
// path. Injected failures drop the buffer before the underlying write, so
// an error return means none of b's framing reached the peer intact.
func (c *Conn) Write(b []byte) (int, error) {
	p, err := c.decide(len(b), true)
	if err != nil {
		return 0, err
	}
	if p.stall > 0 {
		time.Sleep(p.stall)
	}
	if p.reset {
		_ = c.Conn.Close() // the injected reset is the error that matters
		return 0, ErrInjectedReset
	}
	if p.partial >= 0 {
		n, werr := c.Conn.Write(b[:p.partial])
		_ = c.Conn.Close() // tear down after the torn prefix, like a mid-segment RST
		if werr != nil {
			return n, werr
		}
		return n, ErrInjectedReset
	}
	if p.corrupt >= 0 {
		mangled := make([]byte, len(b))
		copy(mangled, b)
		mangled[p.corrupt/8] ^= 1 << (p.corrupt % 8)
		return c.Conn.Write(mangled)
	}
	return c.Conn.Write(b)
}

// Listener wraps a net.Listener: Accept can fail transiently, and accepted
// connections are fault-wrapped with independent RNG streams.
type Listener struct {
	net.Listener
	cfg Config

	mu       sync.Mutex
	rng      *stats.RNG
	nextID   uint64
	accepted int
	failed   int
}

// WrapListener wraps ln with the given fault configuration. Accepted
// connections inject server-side faults from per-connection streams.
func WrapListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg, rng: stats.NewRNG(cfg.Seed).Split(^uint64(0))}
}

// Accept returns the next fault-wrapped connection, or a transient
// (net.Error Temporary) injected failure.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	fail := l.cfg.AcceptFailProb > 0 && l.rng.Bool(l.cfg.AcceptFailProb)
	if fail {
		l.failed++
	}
	l.mu.Unlock()
	if fail {
		return nil, errTransientAccept{}
	}
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.nextID++
	id := l.nextID
	l.accepted++
	l.mu.Unlock()
	return WrapConn(conn, l.cfg, id), nil
}

// AcceptStats reports accepted connections and injected accept failures.
func (l *Listener) AcceptStats() (accepted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted, l.failed
}

// Dialer wraps dial so every connection it returns injects client-side
// faults from an independent stream (one per dialed connection).
func Dialer(dial func() (net.Conn, error), cfg Config) func() (net.Conn, error) {
	var mu sync.Mutex
	var next uint64
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		next++
		id := next
		mu.Unlock()
		return WrapConn(conn, cfg, id), nil
	}
}
