package heartbeat

import (
	"bytes"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/attr"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/testutil"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Kind: KindHello, SessionID: 7, Epoch: 12, Attrs: attr.Vector{1, 2, 3, 0, 1, 2, 3}},
		{Kind: KindJoined, SessionID: 7, JoinTimeMS: 1234.5},
		{Kind: KindProgress, SessionID: 7, PlayedS: 60, BufferingS: 2.5, WeightedKbpsSec: 90_000},
		{Kind: KindEnd, SessionID: 7, DurationS: 300},
		{Kind: KindFailed, SessionID: 8},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range msgs {
		if err := w.Write(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := range msgs {
		var got Message
		if err := r.Read(&got); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got != msgs[i] {
			t.Errorf("message %d mismatch:\n got %+v\nwant %+v", i, got, msgs[i])
		}
	}
	var extra Message
	if err := r.Read(&extra); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestMessageProperty(t *testing.T) {
	f := func(id uint64, ep int32, a [attr.NumDims]int32, jt, played, buffering, weighted, dur float64) bool {
		if math.IsNaN(jt) || math.IsNaN(played) || math.IsNaN(buffering) || math.IsNaN(weighted) || math.IsNaN(dur) {
			return true
		}
		msgs := []Message{
			{Kind: KindHello, SessionID: id, Epoch: epochIdx(ep), Attrs: a},
			{Kind: KindJoined, SessionID: id, JoinTimeMS: jt},
			{Kind: KindProgress, SessionID: id, PlayedS: played, BufferingS: buffering, WeightedKbpsSec: weighted},
			{Kind: KindEnd, SessionID: id, DurationS: dur},
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range msgs {
			if err := w.Write(&msgs[i]); err != nil {
				return false
			}
		}
		r := NewReader(&buf)
		for i := range msgs {
			var got Message
			if err := r.Read(&got); err != nil || got != msgs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	var m Message
	if err := Decode([]byte{1, 2}, &m); err == nil {
		t.Error("short payload accepted")
	}
	if err := Decode(make([]byte, 9), &m); err == nil {
		t.Error("kind 0 accepted")
	}
	payload := make([]byte, 9)
	payload[0] = byte(KindJoined) // missing f64
	if err := Decode(payload, &m); err == nil {
		t.Error("truncated Joined accepted")
	}
	if _, err := Append(nil, &Message{Kind: 99}); err == nil {
		t.Error("unknown kind encoded")
	}
	// Bad frame length.
	r := NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
	if err := r.Read(&m); err == nil {
		t.Error("huge frame accepted")
	}
	r = NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if err := r.Read(&m); err == nil {
		t.Error("zero frame accepted")
	}
}

func sampleSession(id uint64) session.Session {
	return session.Session{
		ID:    id,
		Epoch: 4,
		Attrs: attr.Vector{3, 1, 17, 0, 1, 2, 3},
		QoE: metric.QoE{
			JoinTimeMS:  2100,
			BufRatio:    0.08,
			BitrateKbps: 1500,
			DurationS:   400,
		},
		EventIDs: session.NoEvents,
	}
}

// collect runs an emitter against an assembler over an in-memory pipe.
func collect(t *testing.T, sessions []session.Session, progressEvery int) []session.Session {
	t.Helper()
	var mu sync.Mutex
	var got []session.Session
	c := NewCollector(func(s session.Session) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	c.Logf = t.Logf
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		c.serveConn(server)
		close(done)
	}()
	em := &Emitter{W: NewWriter(client), ProgressEvery: progressEvery}
	for i := range sessions {
		if err := em.EmitSession(&sessions[i]); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	<-done
	c.Assembler().Flush(true)
	return got
}

func TestEmitAssembleRoundTrip(t *testing.T) {
	want := sampleSession(1)
	got := collect(t, []session.Session{want}, 3)
	if len(got) != 1 {
		t.Fatalf("assembled %d sessions, want 1", len(got))
	}
	g := got[0]
	if g.ID != want.ID || g.Epoch != want.Epoch || g.Attrs != want.Attrs {
		t.Errorf("identity mismatch: %+v", g)
	}
	if math.Abs(g.QoE.JoinTimeMS-want.QoE.JoinTimeMS) > 1e-9 {
		t.Errorf("join time = %v", g.QoE.JoinTimeMS)
	}
	if math.Abs(g.QoE.BufRatio-want.QoE.BufRatio) > 1e-9 {
		t.Errorf("buf ratio = %v, want %v", g.QoE.BufRatio, want.QoE.BufRatio)
	}
	if math.Abs(g.QoE.BitrateKbps-want.QoE.BitrateKbps) > 1e-6 {
		t.Errorf("bitrate = %v", g.QoE.BitrateKbps)
	}
	if math.Abs(g.QoE.DurationS-want.QoE.DurationS) > 1e-9 {
		t.Errorf("duration = %v", g.QoE.DurationS)
	}
}

func TestFailedSessionRoundTrip(t *testing.T) {
	want := session.Session{ID: 9, Epoch: 1, QoE: metric.QoE{JoinFailed: true}, EventIDs: session.NoEvents}
	got := collect(t, []session.Session{want}, 1)
	if len(got) != 1 || !got[0].QoE.JoinFailed {
		t.Fatalf("failed session not assembled: %+v", got)
	}
}

func TestDroppedConnectionBecomesJoinFailure(t *testing.T) {
	var mu sync.Mutex
	var got []session.Session
	asm := NewAssembler(func(s session.Session) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	hello := Message{Kind: KindHello, SessionID: 5, Epoch: 2}
	if err := asm.Handle(&hello); err != nil {
		t.Fatal(err)
	}
	if asm.Pending() != 1 {
		t.Fatalf("pending = %d", asm.Pending())
	}
	if n := asm.Flush(true); n != 1 {
		t.Fatalf("flushed %d", n)
	}
	if len(got) != 1 || !got[0].QoE.JoinFailed {
		t.Fatalf("dropped session should assemble as join failure: %+v", got)
	}
}

func TestJoinedDropFlushesWithProgress(t *testing.T) {
	var got []session.Session
	asm := NewAssembler(func(s session.Session) { got = append(got, s) })
	msgs := []Message{
		{Kind: KindHello, SessionID: 5, Epoch: 2},
		{Kind: KindJoined, SessionID: 5, JoinTimeMS: 900},
		{Kind: KindProgress, SessionID: 5, PlayedS: 120, BufferingS: 6, WeightedKbpsSec: 120 * 800},
	}
	for i := range msgs {
		if err := asm.Handle(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	asm.Flush(true)
	if len(got) != 1 {
		t.Fatalf("got %d sessions", len(got))
	}
	q := got[0].QoE
	if q.JoinFailed {
		t.Fatal("joined session flushed as failure")
	}
	if math.Abs(q.BitrateKbps-800) > 1e-9 || math.Abs(q.BufRatio-6.0/126) > 1e-9 {
		t.Errorf("flushed QoE = %+v", q)
	}
}

func TestAssemblerProtocolErrors(t *testing.T) {
	asm := NewAssembler(func(session.Session) {})
	if err := asm.Handle(&Message{Kind: KindJoined, SessionID: 1}); err == nil {
		t.Error("Joined without Hello accepted")
	}
	hello := Message{Kind: KindHello, SessionID: 1}
	if err := asm.Handle(&hello); err != nil {
		t.Fatal(err)
	}
	// Re-Hello with identical identity is a sender replay: idempotent.
	if err := asm.Handle(&hello); err != nil {
		t.Errorf("idempotent re-Hello rejected: %v", err)
	}
	conflicting := Message{Kind: KindHello, SessionID: 1, Epoch: 9}
	if err := asm.Handle(&conflicting); err == nil {
		t.Error("conflicting Hello accepted")
	}
	if err := asm.Handle(&Message{Kind: KindProgress, SessionID: 1}); err == nil {
		t.Error("Progress before Joined accepted")
	}
	if err := asm.Handle(&Message{Kind: KindEnd, SessionID: 1}); err == nil {
		t.Error("End before Joined accepted")
	}
	if err := asm.Handle(&Message{Kind: 77, SessionID: 1}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestIdleTimeoutFlush(t *testing.T) {
	var got []session.Session
	asm := NewAssembler(func(s session.Session) { got = append(got, s) })
	asm.IdleTimeout = time.Minute
	base := time.Unix(1000, 0)
	asm.now = func() time.Time { return base }
	hello := Message{Kind: KindHello, SessionID: 1}
	asm.Handle(&hello)
	// Not yet stale.
	if n := asm.Flush(false); n != 0 {
		t.Fatalf("flushed %d fresh sessions", n)
	}
	asm.now = func() time.Time { return base.Add(2 * time.Minute) }
	if n := asm.Flush(false); n != 1 {
		t.Fatalf("stale flush = %d", n)
	}
	if len(got) != 1 {
		t.Fatal("session not emitted")
	}
}

func TestTCPCollectorEndToEnd(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	var mu sync.Mutex
	var got []session.Session
	c := NewCollector(func(s session.Session) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	c.Logf = t.Logf
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := c.Addr().String()

	const clients = 4
	const perClient = 25
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			em := &Emitter{W: NewWriter(conn), ProgressEvery: 2}
			for i := 0; i < perClient; i++ {
				s := sampleSession(uint64(cl*1000 + i))
				if i%5 == 0 {
					s.QoE = metric.QoE{JoinFailed: true}
				}
				if err := em.EmitSession(&s); err != nil {
					t.Errorf("emit: %v", err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	// Give handlers a moment to drain, then close (which flushes).
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == clients*perClient || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != clients*perClient {
		t.Fatalf("assembled %d sessions, want %d", len(got), clients*perClient)
	}
	failures := 0
	for _, s := range got {
		if s.QoE.JoinFailed {
			failures++
		}
	}
	if failures != clients*perClient/5 {
		t.Errorf("failures = %d, want %d", failures, clients*perClient/5)
	}
	if err := c.Close(); err == nil {
		t.Error("double Close accepted")
	}
}

// TestCollectorShutdownNoLeak verifies CloseGrace tears down the accept
// loop and every connection handler: an idle client that never completes
// its stream must be force-closed after the grace window, leaving the
// goroutine count at its pre-test baseline.
func TestCollectorShutdownNoLeak(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	c := NewCollector(func(session.Session) {})
	c.Logf = nil
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a Hello so the handler is mid-stream, then go idle.
	w := NewWriter(conn)
	if err := w.Write(&Message{Kind: KindHello, SessionID: 42}); err != nil {
		t.Fatal(err)
	}
	// Wait until the collector has actually accepted the connection so the
	// shutdown exercises the straggler path, not a race with accept.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().ConnsAccepted == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.CloseGrace(50 * time.Millisecond); err != nil {
		t.Fatalf("CloseGrace: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindHello.String() != "Hello" || Kind(99).String() == "" {
		t.Error("Kind names wrong")
	}
}

func epochIdx(v int32) epoch.Index { return epoch.Index(v) }

func TestCollectorStats(t *testing.T) {
	c := NewCollector(func(session.Session) {})
	c.Logf = nil
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		c.serveConn(server)
		close(done)
	}()
	w := NewWriter(client)
	msgs := []Message{
		{Kind: KindHello, SessionID: 1},
		{Kind: KindJoined, SessionID: 1, JoinTimeMS: 500},
		{Kind: KindJoined, SessionID: 99}, // protocol error: no Hello
	}
	for i := range msgs {
		if err := w.Write(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	<-done
	st := c.Stats()
	if st.FramesHandled != 3 {
		t.Errorf("frames = %d, want 3", st.FramesHandled)
	}
	if st.ProtocolErrors != 1 {
		t.Errorf("protocol errors = %d, want 1", st.ProtocolErrors)
	}
	if st.PendingSession != 1 {
		t.Errorf("pending = %d, want 1", st.PendingSession)
	}
}
