package heartbeat

import (
	"errors"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Handler handles the decoded frames of one connection, in arrival order.
// A non-nil error is a protocol error: the server counts and logs it and
// drops the frame, but keeps the connection unless the error wraps
// ErrDropConn.
type Handler func(m *Message) error

// ErrDropConn, wrapped in a Handler's error, makes the server hang up on
// the connection instead of skipping the offending frame.
var ErrDropConn = errors.New("connection dropped")

// errClosed reports a Serve or CloseGrace on a server already closed.
var errClosed = errors.New("heartbeat: server closed")

// drainGrace is Close's drain deadline.
const drainGrace = 10 * time.Second

// ackWriteTimeout bounds one acknowledgment write; a client that stops
// draining its ack stream loses the connection, never wedges the handler.
const ackWriteTimeout = 5 * time.Second

// ConnStats counts one server's connection lifecycle.
type ConnStats struct {
	ConnsAccepted  int64
	FramesHandled  int64
	ProtocolErrors int64
	// AcceptErrors counts transient Accept failures that were retried.
	AcceptErrors int64
	// HandlerPanics counts connection handlers torn down by a panic.
	HandlerPanics int64
	// ForceClosed counts live connections killed by Abort or because the
	// drain grace expired during Close.
	ForceClosed int64
}

// Server is the connection lifecycle of both heartbeat hops, player →
// collector and relay → aggregator. It accepts connections, decodes each
// one's frame stream, hands every frame to that connection's Handler,
// acknowledges, and drains at shutdown. What a frame means belongs to the
// Handler; every hop inherits the same rules:
//
//   - A transient Accept failure (EMFILE, a reset mid handshake) is counted
//     and retried after a backoff growing from 1 to 50 ms. A flaky accept
//     path degrades to slower admission, never to shutdown.
//   - A panic in a Handler tears down its connection, never the process.
//   - The idle read deadline is re-armed before every read. A stream that
//     supports deadlines but fails to arm one is dropped, because that is
//     the half-open case the deadline exists for; the ack write deadline
//     follows the same rule. A stream without deadlines (a pipe, a file)
//     is served unbounded.
//   - A frame is acknowledged only after its Handler returned nil, and only
//     if the connection's Hello asked for ack mode and the frame is an End,
//     Failed or Session. A Handler that rejects a kind therefore never has
//     it acked.
//   - Close waits 150 ms for dials already in the kernel accept queue, lets
//     live connections drain for the grace period, then force-closes the
//     stragglers and counts them.
type Server struct {
	// ReadIdleTimeout bounds the gap between frames on one connection; a
	// connection that stalls longer is dropped. Zero disables the deadline.
	ReadIdleTimeout time.Duration
	// Logf receives per-connection diagnostics (nil silences).
	Logf func(format string, args ...any)

	name    string
	newConn func() Handler

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	connsAccepted  atomic.Int64
	framesHandled  atomic.Int64
	protocolErrors atomic.Int64
	acceptErrors   atomic.Int64
	handlerPanics  atomic.Int64
	forceClosed    atomic.Int64
}

// NewServer builds a server that serves each connection with the Handler
// newConn returns for it; name prefixes its log lines. The idle read
// deadline defaults to two minutes.
func NewServer(name string, newConn func() Handler) *Server {
	return &Server{
		ReadIdleTimeout: 2 * time.Minute,
		name:            name,
		newConn:         newConn,
		conns:           make(map[net.Conn]bool),
	}
}

// Stats returns the connection counters.
func (s *Server) Stats() ConnStats {
	return ConnStats{
		ConnsAccepted:  s.connsAccepted.Load(),
		FramesHandled:  s.framesHandled.Load(),
		ProtocolErrors: s.protocolErrors.Load(),
		AcceptErrors:   s.acceptErrors.Load(),
		HandlerPanics:  s.handlerPanics.Load(),
		ForceClosed:    s.forceClosed.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(s.name+": "+format, args...)
	}
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral test
// port) and serves until Close.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections from an existing listener (a fault-injecting
// wrapper in the chaos tests, a TCP listener in Listen).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close() // the caller's error is the closed server, not the unwind
		return errClosed
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed or drain deadline reached. Connections
			// accepted before this point are still served to EOF.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return
			}
			if s.isClosed() {
				return
			}
			s.acceptErrors.Add(1)
			s.logf("accept: %v", err)
			if backoff < time.Millisecond {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.connsAccepted.Add(1)
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// readDeadliner is the slice of net.Conn the idle deadline needs.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// writeDeadliner bounds ack writes the same way.
type writeDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

// serveConn decodes one stream until EOF, a read error, an idle timeout or
// a Handler error wrapping ErrDropConn, and closes it. Tests drive it over
// net.Pipe or any io.ReadCloser; a stream that is also an io.Writer can
// carry acks.
func (s *Server) serveConn(conn io.ReadCloser) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			s.handlerPanics.Add(1)
			s.logf("handler panic (connection dropped): %v\n%s", r, debug.Stack())
		}
	}()
	handle := s.newConn()
	rd, _ := conn.(readDeadliner)
	wd, _ := conn.(writeDeadliner)
	r := NewReader(conn)
	var ackW *Writer // non-nil once a Hello asked for ack mode
	var m Message
	for {
		if rd != nil && s.ReadIdleTimeout > 0 {
			if err := rd.SetReadDeadline(time.Now().Add(s.ReadIdleTimeout)); err != nil {
				s.logf("arming read deadline: %v (connection dropped)", err)
				return
			}
		}
		if err := r.Read(&m); err != nil {
			if err != io.EOF {
				s.logf("connection: %v", err)
			}
			return
		}
		s.framesHandled.Add(1)
		if err := handle(&m); err != nil {
			s.protocolErrors.Add(1)
			s.logf("%v", err)
			if errors.Is(err, ErrDropConn) {
				return
			}
			// Otherwise drop the frame, not the connection: one
			// misbehaving player must not sever a shared reporter.
			continue
		}
		if m.Kind == KindHello && m.AckMode && ackW == nil {
			if w, ok := conn.(io.Writer); ok {
				ackW = NewWriter(w)
			}
		}
		if ackW == nil || !kindNeedsAck(m.Kind) {
			continue
		}
		// Acknowledge only after the Handler succeeded — including a
		// deduplicated replay, which is already in; either way the sender
		// may retire it.
		if wd != nil {
			if err := wd.SetWriteDeadline(time.Now().Add(ackWriteTimeout)); err != nil {
				s.logf("arming ack deadline: %v (connection dropped)", err)
				return
			}
		}
		if err := ackW.Write(&Message{Kind: KindAck, SessionID: m.SessionID}); err != nil {
			s.logf("ack write: %v (connection dropped)", err)
			return // the sender will reconnect and re-deliver
		}
	}
}

// Abort is the process-kill model: the listener and every live connection
// close immediately, with no drain grace. Idempotent; Close after Abort
// reports the server already closed.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		s.forceClosed.Add(1)
		_ = conn.Close() // abrupt teardown is the point
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close() // accept loop exits via net.ErrClosed
	}
	s.wg.Wait()
}

// Close is CloseGrace with a ten-second drain.
func (s *Server) Close() error { return s.CloseGrace(drainGrace) }

// CloseGrace stops accepting and gives live connections up to grace to
// drain (clients that have closed their side produce EOF naturally);
// stragglers are then force-closed and counted in ConnStats.ForceClosed, so
// operators can tell a clean drain from a timed-out one.
func (s *Server) CloseGrace(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()

	var closeErr error
	lnClosed := false
	closeListener := func() {
		if err := ln.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
		lnClosed = true
	}
	if ln != nil {
		// Connections may sit in the kernel accept queue (their dials
		// already succeeded); give the accept loop a moment to drain them
		// before tearing the listener down, so their heartbeats are not
		// silently discarded.
		if tl, ok := ln.(*net.TCPListener); ok {
			if err := tl.SetDeadline(time.Now().Add(150 * time.Millisecond)); err != nil {
				// Can't bound the drain; tear the listener down now rather
				// than risk hanging in accept.
				closeListener()
			}
		} else {
			closeListener()
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.mu.Lock()
		for conn := range s.conns {
			s.forceClosed.Add(1)
			_ = conn.Close() // best-effort teardown of stragglers
		}
		s.mu.Unlock()
		<-done
	}
	if ln != nil && !lnClosed {
		closeListener()
	}
	return closeErr
}
