package heartbeat

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestServerIsolatesHandlerPanic: a Handler that panics on its first frame
// costs only its own connection; the next connection is still served.
func TestServerIsolatesHandlerPanic(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	var conns atomic.Int64
	served := make(chan uint64, 1)
	s := NewServer("test", func() Handler {
		n := conns.Add(1)
		return func(m *Message) error {
			if n == 1 {
				panic("poisoned frame")
			}
			served <- m.SessionID
			return nil
		}
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	send := func(id uint64) net.Conn {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := NewWriter(conn).Write(&Message{Kind: KindHello, SessionID: id}); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	poisoned := send(1)
	defer poisoned.Close()
	_ = poisoned.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := poisoned.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection whose handler panicked")
	}
	good := send(2)
	defer good.Close()
	select {
	case id := <-served:
		if id != 2 {
			t.Fatalf("served session %d, want 2", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second connection not served")
	}
	_ = good.Close() // let the drain finish without the force path
	if err := s.CloseGrace(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.HandlerPanics != 1 || st.ConnsAccepted != 2 {
		t.Fatalf("stats %+v, want 1 handler panic over 2 connections", st)
	}
}
