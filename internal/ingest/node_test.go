package ingest

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/faultnet"
	"repro/internal/heartbeat"
	"repro/internal/testutil"
)

// startNodeAt starts (or restarts) a node, retrying briefly — a restart
// rebinds the address its previous incarnation just released.
func startNodeAt(t *testing.T, id, inc uint64, addr, dir string, rotateEvery int, aggDial func() (net.Conn, error)) *Node {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := StartNode(NodeConfig{
			ID:            id,
			Incarnation:   inc,
			SpoolDir:      dir,
			Aggregator:    aggDial,
			ListenAddr:    addr,
			SpoolCapacity: 1024,
			RotateEvery:   rotateEvery,
			Sender:        fastSenderConfig(id*100 + inc),
		})
		if err == nil {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("starting node %d at %s: %v", id, addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// faultConns collects fault-injecting connections across players so the
// soak can prove fault classes actually fired.
type faultConns struct {
	mu    sync.Mutex
	conns []*faultnet.Conn
}

func (f *faultConns) add(c *faultnet.Conn) {
	f.mu.Lock()
	f.conns = append(f.conns, c)
	f.mu.Unlock()
}

func (f *faultConns) total() faultnet.ConnStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out faultnet.ConnStats
	for _, c := range f.conns {
		s := c.Stats()
		out.Stalls += s.Stalls
		out.Resets += s.Resets
		out.PartialWrites += s.PartialWrites
		out.Corruptions += s.Corruptions
	}
	return out
}

// spawnPlayers reports one session per ID through the ring, each player an
// ack-mode sender that re-resolves its owner on every (re)connect. The
// returned WaitGroup completes when every player has delivered (or given
// up, counted in abandoned).
func spawnPlayers(ring *Ring, e epoch.Index, ids []uint64, seed uint64, faults *faultConns, fcfgBase faultnet.Config, abandoned *sync.Map) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			sess := mkSession(id, e)
			fcfg := fcfgBase
			fcfg.Seed = seed + id
			var nextConn uint64
			dial := func() (net.Conn, error) {
				member, ok := ring.Owner(id)
				if !ok {
					return nil, fmt.Errorf("ring empty, session %d unroutable", id)
				}
				raw, err := net.Dial("tcp", member)
				if err != nil {
					return nil, err
				}
				if faults == nil {
					return raw, nil
				}
				nextConn++
				fc := faultnet.WrapConn(raw, fcfg, nextConn)
				faults.add(fc)
				return fc, nil
			}
			snd := heartbeat.NewSender(dial, heartbeat.SenderConfig{
				BaseBackoff: 500 * time.Microsecond,
				MaxBackoff:  10 * time.Millisecond,
				MaxAttempts: 400,
				Seed:        seed + id,
				AckMode:     true,
			})
			snd.Logf = nil
			defer snd.Close()
			if err := snd.EmitSession(&sess, 2); err != nil {
				abandoned.Store(id, err)
			}
		}(id)
	}
	return &wg
}

// rotateAndWait polls cond, nudging every node's relay to seal and ship its
// active segment between polls (sessions land in the active segment
// asynchronously after the player's ack, so a single rotation can race the
// spool drain).
func rotateAndWait(t *testing.T, nodes []*Node, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		for _, n := range nodes {
			n.Relay().Rotate()
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNodeKillRecoversSpooledSessions is the deterministic kill/recovery
// check: a node dies holding every one of its sessions in the disk spool
// (RotateEvery high enough that nothing shipped), and the next incarnation
// recovers and delivers exactly that set — no loss, no surplus — while the
// aggregator degrades the epoch the restart interrupted.
func TestNodeKillRecoversSpooledSessions(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	const n = 45

	agg, err := NewAggregator(AggregatorConfig{Analysis: testAnalysis(n), ExpectNodes: 3, Logf: nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	aggAddr := agg.Addr().String()
	aggDial := func() (net.Conn, error) { return net.Dial("tcp", aggAddr) }

	dirs := map[uint64]string{1: t.TempDir(), 2: t.TempDir(), 3: t.TempDir()}
	nodes := make(map[string]*Node) // member addr → node
	memberID := make(map[string]uint64)
	ring := NewRing(0)
	for id := uint64(1); id <= 3; id++ {
		// RotateEvery 1000: nothing ships on its own; this test controls
		// every shipment via Rotate so the kill point is exact.
		nd := startNodeAt(t, id, 1, "127.0.0.1:0", dirs[id], 1000, aggDial)
		m := nd.Addr().String()
		nodes[m] = nd
		memberID[m] = id
		ring.Add(m)
	}

	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	var abandoned sync.Map
	spawnPlayers(ring, 0, ids, 0x0DD5EED, nil, faultnet.Config{}, &abandoned).Wait()
	abandoned.Range(func(k, v any) bool {
		t.Fatalf("player %v abandoned: %v", k, v)
		return false
	})

	// Pick the victim: the owner of session 1 (guaranteed to hold at least
	// one session); count what it owns.
	victimMember, _ := ring.Owner(1)
	victimOwned := 0
	for _, id := range ids {
		if m, _ := ring.Owner(id); m == victimMember {
			victimOwned++
		}
	}
	victim := nodes[victimMember]
	victimID := memberID[victimMember]
	var others []*Node
	for m, nd := range nodes {
		if m != victimMember {
			others = append(others, nd)
		}
	}

	// Ship the survivors' sessions so epoch 0 is open at the aggregator
	// before the restart announcement lands.
	rotateAndWait(t, others, 10*time.Second, "survivor sessions", func() bool {
		return agg.EpochSessions(0) == n-victimOwned
	})

	// Kill: every victim session is acked to its player but still on the
	// node — in the in-memory spool (drained to disk by the kill's
	// page-cache model) or the active segment. None shipped.
	victim.Kill()
	if got := victim.Stats().Relay.Sent; got != 0 {
		t.Fatalf("victim shipped %d sessions before the kill; test premise broken", got)
	}

	restarted := startNodeAt(t, victimID, 2, victimMember, dirs[victimID], 1000, aggDial)
	if got := restarted.Stats().Relay.Recovered; got != int64(victimOwned) {
		t.Fatalf("incarnation 2 recovered %d sessions, want exactly the %d the victim owned", got, victimOwned)
	}
	nodes[victimMember] = restarted

	all := []*Node{restarted}
	all = append(all, others...)
	rotateAndWait(t, all, 10*time.Second, "full epoch after recovery", func() bool {
		return agg.EpochSessions(0) == n
	})

	for _, nd := range nodes {
		if err := nd.Close(2 * time.Second); err != nil {
			t.Fatalf("closing node: %v", err)
		}
	}
	if err := agg.CloseGrace(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := agg.SealAll(); err != nil {
		t.Fatal(err)
	}
	covs := agg.Coverages()
	if len(covs) != 1 {
		t.Fatalf("sealed %d epochs, want 1", len(covs))
	}
	cov := covs[0]
	if cov.Sessions != n {
		t.Fatalf("conservation broken: %d unique sessions sealed, want %d", cov.Sessions, n)
	}
	if cov.Restarts == 0 || !cov.Degraded {
		t.Fatalf("restart mid-epoch must degrade: %+v", cov)
	}
	if agg.Detector().GapEpochs != 1 {
		t.Fatalf("detector gaps %d, want 1 (frozen, not resolved)", agg.Detector().GapEpochs)
	}
	// Nothing was shed anywhere: the kill lost zero acknowledged sessions.
	for m, nd := range nodes {
		st := nd.Stats()
		if st.Relay.Shed != 0 || st.Relay.Abandoned != 0 || st.Spool.Shed != 0 {
			t.Fatalf("node %s shed sessions: %+v", m, st)
		}
	}
	if st := victim.Stats(); st.Relay.Shed != 0 || st.Spool.Shed != 0 {
		t.Fatalf("killed incarnation shed sessions: %+v", st)
	}
}
