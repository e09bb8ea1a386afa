package ingest

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/testutil"
)

// startTestAggregator brings up an aggregator on an ephemeral port and
// returns it with a dial function for relays.
func startTestAggregator(t *testing.T, expectNodes int) (*Aggregator, func() (net.Conn, error)) {
	t.Helper()
	agg, err := NewAggregator(AggregatorConfig{
		Analysis:    testAnalysis(64),
		ExpectNodes: expectNodes,
		Logf:        nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := agg.Addr().String()
	return agg, func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func TestRelayShipsSealedSegments(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	agg, dial := startTestAggregator(t, 1)

	r, err := newRelay(dial, RelayConfig{
		Dir:         t.TempDir(),
		NodeID:      7,
		RotateEvery: 4,
		Sender:      fastSenderConfig(1),
		StatusFn:    func() [4]uint64 { return [4]uint64{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for id := uint64(1); id <= n; id++ {
		r.offer(mkSession(id, 0))
	}
	// 10 sessions at RotateEvery 4: two sealed segments ship immediately,
	// two sessions sit in the active segment until Close seals it.
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "all sessions at aggregator", func() bool {
		return agg.EpochSessions(0) == n
	})
	rs := r.Stats()
	if rs.Sent != n || rs.Shed != 0 || rs.Abandoned != 0 || rs.Recovered != 0 {
		t.Fatalf("relay stats %+v, want %d sent and nothing lost", rs, n)
	}
	if rs.SegmentsSealed != 3 {
		t.Fatalf("sealed %d segments, want 3 (two rotations + close)", rs.SegmentsSealed)
	}
	if err := agg.CloseGrace(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	cov, res, err := agg.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Sessions != n || cov.NodesReporting != 1 || cov.Degraded || res == nil {
		t.Fatalf("coverage %+v, want %d healthy sessions from 1 node", cov, n)
	}
}

// TestRelayRecoversSegmentsAfterKill is the crash-recovery path: a relay
// killed with the aggregator unreachable leaves its segments on disk; the
// next incarnation recovers and delivers them.
func TestRelayRecoversSegmentsAfterKill(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	dir := t.TempDir()
	down := func() (net.Conn, error) { return nil, errors.New("aggregator down") }

	r1, err := newRelay(down, RelayConfig{
		Dir:         dir,
		NodeID:      7,
		RotateEvery: 4,
		Sender:      fastSenderConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for id := uint64(1); id <= n; id++ {
		r1.offer(mkSession(id, 0))
	}
	r1.kill() // two sealed segments + a 2-session active segment stay on disk
	if got := r1.Stats().Sent; got != 0 {
		t.Fatalf("sent %d sessions with the aggregator down", got)
	}

	agg, dial := startTestAggregator(t, 1)
	r2, err := newRelay(dial, RelayConfig{
		Dir:         dir,
		NodeID:      7,
		Incarnation: 1,
		RotateEvery: 4,
		Sender:      fastSenderConfig(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats().Recovered; got != n {
		t.Fatalf("recovered %d sessions, want %d (active segment's flushed records included)", got, n)
	}
	waitFor(t, 10*time.Second, "recovered sessions at aggregator", func() bool {
		return agg.EpochSessions(0) == n
	})
	if err := r2.close(); err != nil {
		t.Fatal(err)
	}
	if err := agg.CloseGrace(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	cov, _, err := agg.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Sessions != n {
		t.Fatalf("aggregator merged %d sessions, want %d", cov.Sessions, n)
	}
	// The restart was announced: incarnation 1 on a node first seen at 0
	// would mark open epochs, but this aggregator only ever saw incarnation
	// 1 — no restart recorded, epoch healthy except the coverage facts.
	if cov.Recovered != uint64(0) && cov.Recovered != uint64(n) {
		t.Fatalf("recovered counter %d, want 0 (no StatusFn) or %d", cov.Recovered, n)
	}
}

// TestRelayOverflowShedsOldest: the sealed-segment backlog is bounded;
// overflow drops the oldest segment with exact shed accounting.
func TestRelayOverflowShedsOldest(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	down := func() (net.Conn, error) { return nil, errors.New("aggregator down") }
	r, err := newRelay(down, RelayConfig{
		Dir:         t.TempDir(),
		NodeID:      7,
		RotateEvery: 2,
		MaxSegments: 2,
		Sender:      fastSenderConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 8; id++ {
		r.offer(mkSession(id, 0))
	}
	rs := r.Stats()
	if rs.SegmentsSealed != 4 || rs.SegmentsDropped != 2 || rs.Shed != 4 {
		t.Fatalf("stats %+v, want 4 sealed, 2 dropped, 4 shed", rs)
	}
	if rs.QueueSegments != 2 {
		t.Fatalf("queue holds %d segments, want 2", rs.QueueSegments)
	}
	r.kill()
	if rs := r.Stats(); rs.Offered != 8 {
		t.Fatalf("offered %d, want 8", rs.Offered)
	}
}

// TestRelayStatusReachesAggregator: StatusFn counters ride KindStatus
// frames and land in coverage records.
func TestRelayStatusReachesAggregator(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	agg, dial := startTestAggregator(t, 1)
	r, err := newRelay(dial, RelayConfig{
		Dir:         t.TempDir(),
		NodeID:      3,
		RotateEvery: 4,
		Sender:      fastSenderConfig(9),
		StatusFn: func() [4]uint64 {
			return [4]uint64{StatusSpoolShed: 2, StatusSalvaged: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 4; id++ {
		r.offer(mkSession(id, 0))
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "sessions at aggregator", func() bool {
		return agg.EpochSessions(0) == 4
	})
	if err := agg.CloseGrace(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	cov, res, err := agg.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	if cov.SpoolShed != 2 || cov.Salvaged != 1 {
		t.Fatalf("coverage %+v, want spool shed 2 and salvaged 1", cov)
	}
	if !cov.Degraded || res != nil {
		t.Fatalf("reported shedding must degrade the epoch: %+v", cov)
	}
}

// TestNewRelayRejectsOutOfRangeIdentity: the announce carries the node ID
// below the control bit and the incarnation in 32 bits; a value that does
// not fit would reach the aggregator as a different identity.
func TestNewRelayRejectsOutOfRangeIdentity(t *testing.T) {
	for _, cfg := range []RelayConfig{
		{NodeID: heartbeat.ControlSessionBit | 1},
		{NodeID: 1, Incarnation: 1 << 32},
	} {
		cfg.Dir = t.TempDir()
		r, err := newRelay(func() (net.Conn, error) { return nil, errors.New("no aggregator") }, cfg)
		if err == nil {
			r.kill()
			t.Errorf("newRelay accepted node %#x incarnation %d", cfg.NodeID, cfg.Incarnation)
		}
	}
}
