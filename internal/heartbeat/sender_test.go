package heartbeat

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/testutil"
)

// fastSender returns a sender with millisecond-scale backoff so failure
// paths resolve quickly in tests.
func fastSender(dial func() (net.Conn, error), attempts int) *Sender {
	return NewSender(dial, SenderConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		MaxAttempts: attempts,
		Seed:        1,
	})
}

func TestSenderSurvivesCollectorRestart(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	var mu sync.Mutex
	var got []session.Session
	emit := func(s session.Session) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	}

	c1 := NewCollector(emit)
	c1.Logf = nil
	if err := c1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := c1.Addr().String()

	snd := fastSender(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 200)
	snd.Logf = nil
	defer snd.Close()

	// Open a session on the first collector...
	if err := snd.Send(&Message{Kind: KindHello, SessionID: 1, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if err := snd.Send(&Message{Kind: KindJoined, SessionID: 1, JoinTimeMS: 700}); err != nil {
		t.Fatal(err)
	}
	// ...kill it (pending session and all)...
	if err := c1.CloseGrace(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got = got[:0] // discard the force-flushed carcass from the dead collector
	mu.Unlock()

	// ...and restart on the same address. The sender must reconnect,
	// replay Hello+Joined, and complete the session on the new instance.
	c2 := NewCollector(emit)
	c2.Logf = nil
	var lerr error
	for i := 0; i < 50; i++ { // the kernel may briefly hold the port
		if lerr = c2.Listen(addr); lerr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lerr != nil {
		t.Fatalf("relisten: %v", lerr)
	}
	// TCP delivers the death notice one round-trip late: the first write
	// after a peer close succeeds into the void and only a later one gets
	// the RST. The heartbeat cadence is what detects it — keep beating
	// Progress until the sender notices and replays onto the new
	// collector, exactly as a real player would.
	beatDeadline := time.Now().Add(5 * time.Second)
	for i := 1; snd.Stats().Reconnects == 0 && time.Now().Before(beatDeadline); i++ {
		_ = snd.Send(&Message{Kind: KindProgress, SessionID: 1, PlayedS: float64(i)}) // lost beats are the point
		time.Sleep(5 * time.Millisecond)
	}
	if snd.Stats().Reconnects == 0 {
		t.Fatal("sender never noticed the collector restart")
	}
	if err := snd.Send(&Message{Kind: KindEnd, SessionID: 1, DurationS: 60}); err != nil {
		t.Fatalf("End after restart: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("assembled %d sessions after restart, want 1", len(got))
	}
	s := got[0]
	if s.ID != 1 || s.Epoch != 3 || s.QoE.JoinFailed {
		t.Fatalf("restarted session assembled wrong: %+v", s)
	}
	st := snd.Stats()
	if st.Reconnects == 0 || st.Replays == 0 {
		t.Fatalf("sender never exercised the replay path: %+v", st)
	}
}

func TestSenderAbandonsAfterMaxAttempts(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	snd := fastSender(func() (net.Conn, error) {
		return nil, errors.New("synthetic dial failure")
	}, 3)
	snd.Logf = nil
	defer snd.Close()
	err := snd.Send(&Message{Kind: KindHello, SessionID: 1})
	if err == nil {
		t.Fatal("send succeeded with a dead dialer")
	}
	if st := snd.Stats(); st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned)
	}
}

func TestSenderCloseInterruptsBackoff(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	snd := NewSender(func() (net.Conn, error) {
		return nil, errors.New("down")
	}, SenderConfig{BaseBackoff: time.Hour, MaxBackoff: time.Hour, MaxAttempts: 5, Seed: 1})
	snd.Logf = nil
	errc := make(chan error, 1)
	go func() {
		errc <- snd.Send(&Message{Kind: KindHello, SessionID: 1})
	}()
	time.Sleep(20 * time.Millisecond) // let Send enter its hour-long backoff
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrSenderClosed) {
			t.Fatalf("interrupted Send returned %v, want ErrSenderClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not interrupt the backoff sleep")
	}
	if err := snd.Send(&Message{Kind: KindHello, SessionID: 2}); !errors.Is(err, ErrSenderClosed) {
		t.Fatalf("Send after Close = %v, want ErrSenderClosed", err)
	}
}

func TestSenderEmitSessionRoundTrip(t *testing.T) {
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
	snd := DialSender(c.Addr().String(), SenderConfig{Seed: 1})
	defer snd.Close()
	want := sampleSession(77)
	if err := snd.EmitSession(&want, 3); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].ID != want.ID || got[0].Attrs != want.Attrs {
		t.Fatalf("sender round trip got %+v", got)
	}
}

func TestAssemblerDedupsCompletedReplays(t *testing.T) {
	var got []session.Session
	asm := NewAssembler(func(s session.Session) { got = append(got, s) })
	seq := []Message{
		{Kind: KindHello, SessionID: 4, Epoch: 1},
		{Kind: KindJoined, SessionID: 4, JoinTimeMS: 300},
		{Kind: KindEnd, SessionID: 4, DurationS: 50},
	}
	for i := range seq {
		if err := asm.Handle(&seq[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A reconnecting sender replays the whole prefix; none of it may
	// resurrect or re-emit the completed session, and none of it is a
	// protocol error (the connection must survive).
	for i := range seq {
		if err := asm.Handle(&seq[i]); err != nil {
			t.Fatalf("replay %v rejected: %v", seq[i].Kind, err)
		}
	}
	if len(got) != 1 {
		t.Fatalf("emitted %d sessions, want 1 (replay deduplicated)", len(got))
	}
	st := asm.stats()
	if st.Emitted != 1 || st.ReplaysDropped == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCollectorIsolatesHandlerPanic(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	var mu sync.Mutex
	var got []session.Session
	c := NewCollector(func(s session.Session) {
		if s.ID == 13 {
			panic("poisoned session")
		}
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	c.Logf = nil
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := c.Addr().String()

	// Connection 1 trips the panic; the process (and the collector) live.
	poisoned := session.Session{ID: 13, Epoch: 1, QoE: sampleSession(0).QoE, EventIDs: session.NoEvents}
	snd1 := DialSender(addr, SenderConfig{Seed: 1, MaxAttempts: 1, BaseBackoff: time.Millisecond})
	snd1.Logf = nil
	_ = snd1.EmitSession(&poisoned, 1) // the killed conn may surface as a send error
	snd1.Close()

	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().HandlerPanics == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Stats().HandlerPanics; got != 1 {
		t.Fatalf("handler panics = %d, want 1", got)
	}

	// Connection 2 proceeds normally on the same collector.
	good := sampleSession(14)
	snd2 := DialSender(addr, SenderConfig{Seed: 2})
	if err := snd2.EmitSession(&good, 1); err != nil {
		t.Fatal(err)
	}
	snd2.Close()
	deadline = time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].ID != 14 {
		t.Fatalf("collector did not survive the panic: %+v", got)
	}
}

func TestCollectorIdleReadDeadline(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	c := NewCollector(func(session.Session) {})
	c.Logf = nil
	c.ReadIdleTimeout = 50 * time.Millisecond
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := NewWriter(conn)
	if err := w.Write(&Message{Kind: KindHello, SessionID: 8}); err != nil {
		t.Fatal(err)
	}
	// Go idle: the collector must drop the connection on its own (the
	// client never closes), then Close must not need the force path.
	deadline := time.Now().Add(2 * time.Second)
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(deadline)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("collector kept the idle connection open")
	}
	if err := c.CloseGrace(time.Second); err != nil {
		t.Fatal(err)
	}
	if fc := c.Stats().ForceClosed; fc != 0 {
		t.Fatalf("idle deadline should have closed the conn before the grace expired (force-closed %d)", fc)
	}
}
