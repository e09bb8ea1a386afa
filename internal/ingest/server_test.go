package ingest

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/session"
	"repro/internal/testutil"
)

// TestServerForceClosesAggregatorStraggler: a relay connection that
// announces itself and then goes quiet is force-closed when the drain
// grace expires, counted, and leaves no goroutine behind.
func TestServerForceClosesAggregatorStraggler(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	agg, err := NewAggregator(AggregatorConfig{Analysis: testAnalysis(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", agg.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := heartbeat.Message{Kind: heartbeat.KindHello, SessionID: heartbeat.ControlSessionBit | 1}
	if err := heartbeat.NewWriter(conn).Write(&hello); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "the announce", func() bool { return agg.Stats().FramesHandled == 1 })
	if err := agg.CloseGrace(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := agg.Stats(); st.ForceClosed != 1 {
		t.Fatalf("force-closed %d connections, want 1 (%+v)", st.ForceClosed, st)
	}
}

var errArm = errors.New("deadline refused")

// deadlineConn is a TCP connection whose read or write deadline cannot be
// armed.
type deadlineConn struct {
	net.Conn
	failRead, failWrite bool
}

func (c deadlineConn) SetReadDeadline(t time.Time) error {
	if c.failRead {
		return errArm
	}
	return c.Conn.SetReadDeadline(t)
}

func (c deadlineConn) SetWriteDeadline(t time.Time) error {
	if c.failWrite {
		return errArm
	}
	return c.Conn.SetWriteDeadline(t)
}

type deadlineListener struct {
	net.Listener
	failRead, failWrite bool
}

func (l deadlineListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return deadlineConn{c, l.failRead, l.failWrite}, nil
}

// hopServer is what both hops' servers offer the deadline-rule test.
type hopServer interface {
	Serve(net.Listener) error
	CloseGrace(time.Duration) error
}

// TestServerDeadlineRule pins one rule for both hops: a connection that
// supports deadlines but fails to arm its idle read deadline or its ack
// write deadline is dropped, never served unbounded or acked.
func TestServerDeadlineRule(t *testing.T) {
	s := mkSession(1, 0)
	hops := []struct {
		name   string
		start  func() (hopServer, error)
		frames []heartbeat.Message
	}{
		{
			name: "collector",
			start: func() (hopServer, error) {
				return heartbeat.NewCollector(func(session.Session) {}), nil
			},
			frames: []heartbeat.Message{
				{Kind: heartbeat.KindHello, SessionID: 1, AckMode: true},
				{Kind: heartbeat.KindFailed, SessionID: 1},
			},
		},
		{
			name: "aggregator",
			start: func() (hopServer, error) {
				return NewAggregator(AggregatorConfig{Analysis: testAnalysis(10)})
			},
			frames: []heartbeat.Message{
				{Kind: heartbeat.KindHello, SessionID: heartbeat.ControlSessionBit | 1, AckMode: true},
				heartbeat.SessionMessage(&s),
			},
		},
	}
	for _, hop := range hops {
		for _, failRead := range []bool{true, false} {
			name := hop.name + "/write"
			if failRead {
				name = hop.name + "/read"
			}
			t.Run(name, func(t *testing.T) {
				defer testutil.CheckGoroutineLeaks(t)()
				srv, err := hop.start()
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr := ln.Addr().String()
				if err := srv.Serve(deadlineListener{ln, failRead, !failRead}); err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := srv.CloseGrace(time.Second); err != nil {
						t.Error(err)
					}
				}()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				w := heartbeat.NewWriter(conn)
				for i := range hop.frames {
					if w.Write(&hop.frames[i]) != nil {
						return // already hung up on
					}
				}
				_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				var ack heartbeat.Message
				err = heartbeat.NewReader(conn).Read(&ack)
				var ne net.Error
				switch {
				case err == nil:
					t.Fatalf("got %v frame; want the connection dropped", ack.Kind)
				case errors.As(err, &ne) && ne.Timeout():
					t.Fatal("connection kept open; want it dropped")
				}
			})
		}
	}
}
