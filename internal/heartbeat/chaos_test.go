package heartbeat

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/faultnet"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// chaosSeed pins the whole soak — the reported sessions, fault schedules,
// and backoff jitter — so a failure replays exactly.
const chaosSeed = 0xC0DE

// TestChaosSoak drives hundreds of players through a fault-injecting
// network into one collector and checks that the pipeline degrades by
// accounting, never by crashing: zero handler panics, zero leaked
// goroutines, and every session started is either delivered through the
// spool, shed with a counter, or salvaged as a join failure.
//
// Enabled fault classes: write stalls, connection resets, partial writes
// (all client-side), and transient accept failures (server-side). In-flight
// corruption is exercised separately in TestChaosCorruptionNeverForges —
// corruption is only detectable receiver-side, so it trades the exact
// conservation law asserted here for a no-phantoms guarantee.
func TestChaosSoak(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()

	players := 500
	if testing.Short() {
		players = 120
	}

	// Trace-writer stand-in: slow enough that the 500-session burst
	// overflows the bounded spool and exercises the shed path.
	var delivered []session.Session
	sp := NewSpool(16, func(s session.Session) {
		time.Sleep(5 * time.Millisecond)
		delivered = append(delivered, s)
	})

	c := NewCollector(sp.Emit)
	c.Logf = nil
	c.ReadIdleTimeout = 30 * time.Second

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.WrapListener(ln, faultnet.Config{Seed: chaosSeed, AcceptFailProb: 0.05})
	if err := c.Serve(fln); err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	// The sessions the players report: attributes and QoE from one synth
	// epoch of exactly `players` sessions (no diurnal swing).
	gcfg := synth.DefaultConfig()
	gcfg.Seed = chaosSeed
	gcfg.Trace = epoch.Range{Start: 0, End: 1}
	gcfg.SessionsPerEpoch = players
	gcfg.DiurnalAmplitude = 0
	g, err := synth.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	reported := g.EpochSessions(0)

	var (
		connMu      sync.Mutex
		conns       []*faultnet.Conn
		abandoned   atomic.Int64
		expSalvaged atomic.Int64
		wg          sync.WaitGroup
	)
	for i := 0; i < players; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()

			sess := session.Session{
				ID:       uint64(i + 1),
				Epoch:    epoch.Index(i % 4),
				Attrs:    reported[i].Attrs,
				QoE:      reported[i].QoE,
				EventIDs: session.NoEvents,
			}

			// Per-player fault stream: each dialed connection gets its own
			// RNG split, so the schedule is independent of goroutine
			// interleaving across players.
			cfg := faultnet.Config{
				Seed:             chaosSeed + uint64(i),
				StallProb:        0.02,
				StallMax:         2 * time.Millisecond,
				ResetProb:        0.03,
				PartialWriteProb: 0.02,
			}
			var nextConn uint64
			dial := func() (net.Conn, error) {
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				nextConn++
				fc := faultnet.WrapConn(raw, cfg, nextConn)
				connMu.Lock()
				conns = append(conns, fc)
				connMu.Unlock()
				return fc, nil
			}
			snd := NewSender(dial, SenderConfig{
				BaseBackoff: 500 * time.Microsecond,
				MaxBackoff:  5 * time.Millisecond,
				MaxAttempts: 25,
				Seed:        chaosSeed + uint64(i),
			})
			snd.Logf = nil
			defer snd.Close()

			msgs := sessionMessages(nil, &sess, 3)
			switch {
			case i%9 == 4:
				// Player process dies right after registering: Hello with no
				// player status ever. The collector must salvage it as a
				// join failure at drain time.
				msgs = msgs[:1]
				expSalvaged.Add(1)
			case i%17 == 11 && len(msgs) > 3:
				// Dies mid-stream after joining: flushed from its last
				// progress report, counted as delivered, not salvaged.
				msgs = msgs[:3]
			}
			for j := range msgs {
				if err := snd.Send(&msgs[j]); err != nil {
					abandoned.Add(1)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// Drain barrier: every dial that succeeded left a connection in the
	// kernel accept queue, but injected accept failures delay the accept
	// loop. Wait for it to catch up before closing, or queued-but-never-
	// accepted connections would be discarded and their frames lost outside
	// the accounted fault model.
	connMu.Lock()
	dialed := len(conns)
	connMu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if accepted, _ := fln.AcceptStats(); accepted >= dialed || time.Now().After(deadline) {
			break
		}
	}
	if err := c.CloseGrace(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sp.Close()

	if n := abandoned.Load(); n != 0 {
		t.Fatalf("%d sends abandoned; the soak config is tuned so retries always win", n)
	}
	cs := c.Stats()
	if cs.HandlerPanics != 0 {
		t.Fatalf("collector recorded %d handler panics", cs.HandlerPanics)
	}
	if cs.ProtocolErrors != 0 {
		t.Fatalf("collector recorded %d protocol errors; faults must stay below the protocol layer", cs.ProtocolErrors)
	}
	if cs.ForceClosed != 0 {
		t.Fatalf("drain force-closed %d connections despite all players exiting", cs.ForceClosed)
	}

	// The conservation law: every session started is accounted for exactly
	// once — delivered through the spool or shed with a counter (salvaged
	// sessions flow through the spool like any other emission).
	st := sp.Stats()
	if st.Delivered+st.Shed != int64(players) {
		t.Fatalf("delivered %d + shed %d != %d started (emitted %d, salvaged %d)",
			st.Delivered, st.Shed, players, cs.SessionsEmitted, cs.Salvaged)
	}
	if cs.SessionsEmitted != int64(players) {
		t.Fatalf("assembler emitted %d sessions, want %d", cs.SessionsEmitted, players)
	}
	if want := expSalvaged.Load(); cs.Salvaged != want {
		t.Fatalf("salvaged %d sessions, want exactly the %d that vanished after Hello", cs.Salvaged, want)
	}
	if st.Shed == 0 {
		t.Error("spool never shed despite a sink slower than the burst")
	}
	if int64(len(delivered)) != st.Delivered {
		t.Fatalf("sink saw %d sessions, spool counted %d", len(delivered), st.Delivered)
	}
	seen := make(map[uint64]bool, len(delivered))
	for _, s := range delivered {
		if s.ID == 0 || s.ID > uint64(players) {
			t.Fatalf("phantom session ID %d delivered", s.ID)
		}
		if seen[s.ID] {
			t.Fatalf("session %d delivered twice; dedup window failed under replay", s.ID)
		}
		seen[s.ID] = true
	}

	// Prove the fault classes actually fired.
	var fc faultnet.ConnStats
	connMu.Lock()
	for _, cn := range conns {
		s := cn.Stats()
		fc.Stalls += s.Stalls
		fc.Resets += s.Resets
		fc.PartialWrites += s.PartialWrites
		fc.Corruptions += s.Corruptions
	}
	connMu.Unlock()
	if fc.Stalls == 0 || fc.Resets == 0 || fc.PartialWrites == 0 {
		t.Fatalf("fault classes did not all fire: %+v", fc)
	}
	if _, failed := fln.AcceptStats(); failed == 0 || cs.AcceptErrors == 0 {
		t.Fatalf("accept failures did not fire (injected %d, collector saw %d)", failed, cs.AcceptErrors)
	}
	t.Logf("soak: %d players, delivered %d, shed %d, salvaged %d, reconnect faults %+v, accept errors %d",
		players, st.Delivered, st.Shed, cs.Salvaged, fc, cs.AcceptErrors)
}

// TestChaosCorruptionNeverForges soaks the collector with bit-flip
// corruption. Corruption is invisible to the sender (the write succeeds),
// so sessions can be lost when every post-corruption write lands before the
// connection teardown propagates — but the CRC framing guarantees a corrupt
// frame can only kill its connection, never misparse: no phantom sessions,
// no duplicates, no panics.
func TestChaosCorruptionNeverForges(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	const n = 60

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

	var (
		connMu sync.Mutex
		conns  []*faultnet.Conn
		wg     sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := faultnet.Config{Seed: chaosSeed + uint64(i), CorruptProb: 0.08}
			var nextConn uint64
			dial := func() (net.Conn, error) {
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				nextConn++
				fc := faultnet.WrapConn(raw, cfg, nextConn)
				connMu.Lock()
				conns = append(conns, fc)
				connMu.Unlock()
				return fc, nil
			}
			snd := NewSender(dial, SenderConfig{
				BaseBackoff: 500 * time.Microsecond,
				MaxBackoff:  5 * time.Millisecond,
				MaxAttempts: 40,
				Seed:        chaosSeed + uint64(i),
			})
			snd.Logf = nil
			defer snd.Close()
			sess := sampleSession(uint64(i + 1))
			_ = snd.EmitSession(&sess, 2) // losses are tolerated; forgeries are not
		}(i)
	}
	wg.Wait()
	if err := c.CloseGrace(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var corruptions int
	connMu.Lock()
	for _, cn := range conns {
		corruptions += cn.Stats().Corruptions
	}
	connMu.Unlock()
	if corruptions == 0 {
		t.Fatal("corruption never fired; the test proved nothing")
	}
	cs := c.Stats()
	if cs.HandlerPanics != 0 {
		t.Fatalf("corruption caused %d handler panics", cs.HandlerPanics)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no session survived mild corruption; retries should carry most through")
	}
	seen := make(map[uint64]bool, len(got))
	for _, s := range got {
		if s.ID == 0 || s.ID > n {
			t.Fatalf("corruption forged phantom session ID %d", s.ID)
		}
		if seen[s.ID] {
			t.Fatalf("session %d assembled twice under corruption", s.ID)
		}
		seen[s.ID] = true
	}
	if int64(len(got)) > int64(n) {
		t.Fatalf("emitted %d sessions from %d players", len(got), n)
	}
	t.Logf("corruption soak: %d/%d sessions survived %d injected bit flips (salvaged %d)",
		len(got), n, corruptions, cs.Salvaged)
}
