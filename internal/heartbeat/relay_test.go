package heartbeat

import (
	"bytes"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// relaySession builds a session with awkward float payloads so the Session
// frame's bit-exactness is actually exercised.
func relaySession(id uint64) session.Session {
	s := session.Session{ID: id, Epoch: 5, EventIDs: session.NoEvents}
	s.Attrs[0], s.Attrs[3] = 2, 7
	s.QoE = metric.QoE{
		JoinTimeMS:  1234.5000000000002,
		BufRatio:    math.Nextafter(0.02, 1),
		BitrateKbps: 1712.9999999999998,
		DurationS:   3599.00000000001,
	}
	return s
}

func TestSessionFrameRoundTripsBitExact(t *testing.T) {
	s := relaySession(41)
	m := SessionMessage(&s)
	frame, err := Append(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	var back Message
	if err := Decode(frame[4:len(frame)-4], &back); err != nil {
		t.Fatal(err)
	}
	want := session.AppendBinary(nil, &s)
	got := session.AppendBinary(nil, &back.Sess)
	if !bytes.Equal(want, got) {
		t.Fatalf("session record not bit-exact through the frame:\n want %x\n got  %x", want, got)
	}
}

func TestSessionFrameRejectsIDMismatch(t *testing.T) {
	s := relaySession(41)
	m := Message{Kind: KindSession, SessionID: 99, Sess: s}
	if _, err := Append(nil, &m); err == nil {
		t.Fatal("Append accepted a session frame whose IDs disagree")
	}
	// And on the wire: a frame whose embedded record disagrees with the
	// header must not decode into a session attributed to the wrong ID.
	good := SessionMessage(&s)
	frame, err := Append(nil, &good)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4 : len(frame)-4]
	payload[1] ^= 0x01 // corrupt the header ID only
	var back Message
	if err := Decode(payload, &back); err == nil {
		t.Fatal("Decode accepted a session frame whose IDs disagree")
	}
}

func TestAssemblerEmitsSessionFrames(t *testing.T) {
	var got []session.Session
	a := NewAssembler(func(s session.Session) { got = append(got, s) })

	s := relaySession(7)
	m := SessionMessage(&s)
	if err := a.Handle(&m); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != s {
		t.Fatalf("session frame not emitted verbatim: %+v", got)
	}
	// A replay (lost ack) must dedup, not double-count.
	if err := a.Handle(&m); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("replayed session frame emitted again (%d emits)", len(got))
	}
	if st := a.stats(); st.ReplaysDropped != 1 || st.Emitted != 1 {
		t.Fatalf("stats after replay: %+v", st)
	}
}

func TestSessionFrameSupersedesPendingHeartbeats(t *testing.T) {
	var got []session.Session
	a := NewAssembler(func(s session.Session) { got = append(got, s) })

	s := relaySession(8)
	if err := a.Handle(&Message{Kind: KindHello, SessionID: 8, Epoch: s.Epoch, Attrs: s.Attrs}); err != nil {
		t.Fatal(err)
	}
	m := SessionMessage(&s)
	if err := a.Handle(&m); err != nil {
		t.Fatal(err)
	}
	if a.Pending() != 0 {
		t.Fatalf("full record left partial state pending (%d)", a.Pending())
	}
	if n := a.Flush(true); n != 0 {
		t.Fatalf("flush salvaged %d sessions after the record superseded them", n)
	}
	if len(got) != 1 || got[0] != s {
		t.Fatalf("emitted %+v", got)
	}
}

func TestAssemblerIgnoresControlHello(t *testing.T) {
	var got []session.Session
	a := NewAssembler(func(s session.Session) { got = append(got, s) })
	if err := a.Handle(&Message{Kind: KindHello, SessionID: ControlSessionBit | 3}); err != nil {
		t.Fatal(err)
	}
	if a.Pending() != 0 {
		t.Fatal("control Hello created a pending session")
	}
	if n := a.Flush(true); n != 0 || len(got) != 0 {
		t.Fatalf("control Hello salvaged as a phantom session (flushed %d, emitted %d)", n, len(got))
	}
	// Status and Ack frames are connection-level; the assembler drops them.
	if err := a.Handle(&Message{Kind: KindStatus, SessionID: ControlSessionBit | 3, Status: [4]uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Handle(&Message{Kind: KindAck, SessionID: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestAckModeEndToEnd drives an ack-mode sender against a live collector:
// every acked kind must complete, the collector must have assembled the
// session before Send returns, and replay state must retire.
func TestAckModeEndToEnd(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	var mu sync.Mutex
	var got []session.Session
	c := NewCollector(func(s session.Session) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	c.Logf = nil
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := c.Addr().String()

	snd := NewSender(func() (net.Conn, error) { return net.Dial("tcp", addr) }, SenderConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		MaxAttempts: 50,
		Seed:        1,
		AckMode:     true,
		AckTimeout:  2 * time.Second,
	})
	snd.Logf = nil
	defer snd.Close()

	// Heartbeat path: End is acked, so the session is assembled by the time
	// Send returns — no drain, no sleep.
	hb := relaySession(1)
	if err := snd.EmitSession(&hb, 2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("session not assembled before acked Send returned (%d emitted)", n)
	}
	if len(snd.replay) != 0 {
		t.Fatalf("acked End left %d replay frames", len(snd.replay))
	}

	// Relay path: a Session frame through the same connection.
	rs := relaySession(2)
	m := SessionMessage(&rs)
	if err := snd.Send(&m); err != nil {
		t.Fatal(err)
	}
	// Failed path.
	if err := snd.Send(&Message{Kind: KindHello, SessionID: 3, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := snd.Send(&Message{Kind: KindFailed, SessionID: 3}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n = len(got)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("want 3 assembled sessions before returns, got %d", n)
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseGrace(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAckModeRetriesUnacked proves Send does not report success for an acked
// kind until an ack arrives: a server that swallows frames without acking
// forces abandonment, and one that acks only the retry lets Send succeed.
func TestAckModeRetriesUnacked(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ends := make(chan uint64, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := true
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn, ack bool) {
				defer wg.Done()
				defer conn.Close()
				r, w := NewReader(conn), NewWriter(conn)
				var m Message
				for {
					if err := r.Read(&m); err != nil {
						return
					}
					if m.Kind != KindEnd {
						continue
					}
					ends <- m.SessionID
					if ack {
						_ = w.Write(&Message{Kind: KindAck, SessionID: m.SessionID})
					}
				}
			}(conn, !first)
			first = false
		}
	}()

	snd := NewSender(func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }, SenderConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		MaxAttempts: 8,
		Seed:        1,
		AckMode:     true,
		AckTimeout:  50 * time.Millisecond,
	})
	snd.Logf = nil
	defer snd.Close()

	if err := snd.Send(&Message{Kind: KindHello, SessionID: 9, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := snd.Send(&Message{Kind: KindJoined, SessionID: 9, JoinTimeMS: 1}); err != nil {
		t.Fatal(err)
	}
	// First connection never acks: the write "succeeds" into the socket but
	// Send must not — it reconnects and the second connection's ack lands.
	if err := snd.Send(&Message{Kind: KindEnd, SessionID: 9, DurationS: 5}); err != nil {
		t.Fatal(err)
	}
	// The End was delivered at least twice: once unacknowledged, once acked.
	seen := 0
	for done := false; !done; {
		select {
		case id := <-ends:
			if id != 9 {
				t.Fatalf("unexpected End for session %d", id)
			}
			seen++
		default:
			done = true
		}
	}
	if seen < 2 {
		t.Fatalf("want ≥2 End deliveries (unacked + acked retry), saw %d", seen)
	}
	if st := snd.Stats(); st.Reconnects == 0 {
		t.Fatalf("expected an ack-timeout reconnect, stats %+v", st)
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}
	_ = ln.Close()
	wg.Wait()
}

// TestSenderJitterStreams pins satellite 1: an injected RNG wins over Seed,
// equal seeds reproduce the stream, and two zero-seed senders must NOT share
// one — the lockstep thundering herd the old global default produced.
func TestSenderJitterStreams(t *testing.T) {
	draw := func(s *Sender, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = s.rng.Float64()
		}
		return out
	}
	dial := func() (net.Conn, error) { return nil, net.ErrClosed }

	a := NewSender(dial, SenderConfig{Seed: 42})
	b := NewSender(dial, SenderConfig{Seed: 42})
	if da, db := draw(a, 8), draw(b, 8); !equalF64(da, db) {
		t.Fatal("equal seeds produced different jitter streams")
	}

	inj := stats.NewRNG(7).Split(0x1234)
	c := NewSender(dial, SenderConfig{Seed: 42, Rand: inj})
	if c.rng != inj {
		t.Fatal("injected Rand did not win over Seed")
	}

	z1 := NewSender(dial, SenderConfig{})
	z2 := NewSender(dial, SenderConfig{})
	if equalF64(draw(z1, 8), draw(z2, 8)) {
		t.Fatal("two zero-seed senders share one jitter stream (lockstep herd)")
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
