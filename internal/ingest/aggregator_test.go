package ingest

import (
	"encoding/json"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/heartbeat"
	"repro/internal/online"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// testAnalysis is a deterministic analysis config for aggregator tests:
// serial (Workers 1) so equivalence checks compare like against like.
func testAnalysis(sessionsPerEpoch int) core.Config {
	cfg := core.DefaultConfig(sessionsPerEpoch)
	cfg.Workers = 1
	return cfg
}

// TestAggregatorMatchesSingleCollectorPath is the distribution-transparency
// guarantee: sessions scattered across three nodes and ingested in a
// scrambled interleaving, or in the reverse of it, must analyse
// byte-identically to the same epoch built by one collector. The aggregator
// earns this by counting every session into one table per epoch, whatever
// node delivered it, and by fixing the session order by ID before the float
// passes run.
func TestAggregatorMatchesSingleCollectorPath(t *testing.T) {
	const n = 150
	cfg := testAnalysis(n)

	ring := NewRing(0)
	nodeIDs := map[string]uint64{"n1": 1, "n2": 2, "n3": 3}
	for m := range nodeIDs {
		ring.Add(m)
	}

	sessions := make([]session.Session, n)
	for i := range sessions {
		sessions[i] = mkSession(uint64(i+1), 0)
	}

	// Single-collector baseline: same sessions, canonical (ID-sorted)
	// order, same serial config.
	sorted := make([]session.Session, n)
	copy(sorted, sessions)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	lites := make([]cluster.Lite, n)
	for i := range sorted {
		lites[i] = cluster.Digest(&sorted[i], cfg.Thresholds)
	}
	want, err := core.AnalyzeEpoch(0, lites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	// Scramble arrival: stride through the list so node streams interleave
	// and no node's sessions arrive contiguously; then the same in reverse.
	scrambled := make([]int, n)
	reversed := make([]int, n)
	for i := range scrambled {
		scrambled[i] = (i * 67) % n
		reversed[n-1-i] = scrambled[i]
	}
	for _, arrival := range []struct {
		name  string
		order []int
	}{{"scrambled", scrambled}, {"reversed", reversed}} {
		name, order := arrival.name, arrival.order
		agg, err := NewAggregator(AggregatorConfig{Analysis: cfg, ExpectNodes: 3, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		perNode := make(map[uint64]int)
		for _, i := range order {
			owner, ok := ring.Owner(sessions[i].ID)
			if !ok {
				t.Fatal("ring empty")
			}
			id := nodeIDs[owner]
			perNode[id]++
			agg.Ingest(id, &sessions[i])
		}
		if len(perNode) != 3 {
			t.Fatalf("%s: ring routed to %d nodes, want 3 (%v)", name, len(perNode), perNode)
		}
		cov, res, err := agg.Seal(0)
		if err != nil {
			t.Fatal(err)
		}
		if cov.Degraded || cov.Starved {
			t.Fatalf("%s: healthy epoch stamped %+v", name, cov)
		}
		if cov.Sessions != n || cov.NodesReporting != 3 {
			t.Fatalf("%s: coverage %+v, want %d sessions over 3 nodes", name, cov, n)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: distributed result differs from single-collector result:\n got %+v\nwant %+v", name, res, want)
		}
		gotJSON, _ := json.Marshal(res)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s: serialized results differ:\n got %s\nwant %s", name, gotJSON, wantJSON)
		}
	}
}

// TestAggregatorDefaultConfigMatchesAnalyzeEpoch: an aggregator built from
// core.DefaultConfig, whose MaxDims is the zero "all dimensions" default,
// must seal exactly what core.AnalyzeEpoch computes at that config over the
// same sessions in ID order — multi-attribute critical clusters included.
func TestAggregatorDefaultConfigMatchesAnalyzeEpoch(t *testing.T) {
	const perEpoch = 3000
	gcfg := synth.DefaultConfig()
	gcfg.Trace = epoch.Range{Start: 0, End: 1}
	gcfg.SessionsPerEpoch = perEpoch
	gcfg.Events.Trace = gcfg.Trace
	g, err := synth.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	sessions := g.EpochSessions(0)
	cfg := core.DefaultConfig(perEpoch)

	agg, err := NewAggregator(AggregatorConfig{Analysis: cfg, ExpectNodes: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// Arrive in reverse, spread over three nodes.
	for i := len(sessions) - 1; i >= 0; i-- {
		agg.Ingest(1+sessions[i].ID%3, &sessions[i])
	}
	cov, got, err := agg.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Degraded || cov.Starved || got == nil {
		t.Fatalf("healthy epoch sealed as %+v", cov)
	}

	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
	lites := make([]cluster.Lite, len(sessions))
	for i := range sessions {
		lites[i] = cluster.Digest(&sessions[i], cfg.Thresholds)
	}
	want, err := core.AnalyzeEpoch(0, lites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("aggregator at DefaultConfig differs from AnalyzeEpoch at DefaultConfig")
	}
	multi := 0
	for m := range want.Metrics {
		for _, cs := range want.Metrics[m].Critical {
			if cs.Key.Size() >= 2 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("no critical key with two or more attributes; the epoch does not exercise MaxDims")
	}
}

// TestAggregatorIdempotentUnderReplay covers the delivery pathologies the
// relay tier can produce: duplicate sessions (lost-ack retries, recovered
// segments), and sessions arriving after their epoch sealed.
func TestAggregatorIdempotentUnderReplay(t *testing.T) {
	cfg := testAnalysis(10)
	agg, err := NewAggregator(AggregatorConfig{Analysis: cfg, ExpectNodes: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 10; id++ {
		s := mkSession(id, 0)
		agg.Ingest(1, &s)
	}
	// Re-deliver every session (a whole recovered segment replayed), some
	// from a different node ID — still the same session.
	for id := uint64(1); id <= 10; id++ {
		s := mkSession(id, 0)
		agg.Ingest(1, &s)
		if id%2 == 0 {
			agg.Ingest(2, &s)
		}
	}
	if got := agg.EpochSessions(0); got != 10 {
		t.Fatalf("epoch holds %d sessions after replay, want 10", got)
	}
	cov, res, err := agg.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Sessions != 10 || cov.Duplicates != 15 {
		t.Fatalf("coverage %+v, want 10 sessions and 15 duplicates", cov)
	}
	if res == nil {
		t.Fatal("healthy epoch produced no result")
	}

	// Late arrival for a sealed epoch: dropped and counted, never merged.
	late := mkSession(99, 0)
	agg.Ingest(1, &late)
	if got := agg.Stats().LateSessions; got != 1 {
		t.Fatalf("late sessions %d, want 1", got)
	}
	if got := agg.EpochSessions(0); got != 0 {
		t.Fatalf("sealed epoch reopened with %d sessions", got)
	}
	// Sealing backwards is rejected.
	if _, _, err := agg.Seal(0); err == nil {
		t.Fatal("re-sealing epoch 0 must fail")
	}
}

// TestAggregatorDegradationFreezesDetector exercises the coverage rules:
// a silent node, a node restart, and reported shedding each degrade the
// epoch, and degraded epochs freeze the detector (GapEpochs) instead of
// being analysed.
func TestAggregatorDegradationFreezesDetector(t *testing.T) {
	cfg := testAnalysis(20)
	var alerts []online.Alert
	agg, err := NewAggregator(AggregatorConfig{
		Analysis:    cfg,
		ExpectNodes: 2,
		Emit:        func(a online.Alert) { alerts = append(alerts, a) },
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg.registerNode(1, 0)
	agg.registerNode(2, 0)

	// Epoch 0: both nodes report — healthy.
	for id := uint64(1); id <= 20; id++ {
		s := mkSession(id, 0)
		node := uint64(1 + id%2)
		agg.Ingest(node, &s)
	}
	cov, res, err := agg.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Degraded || res == nil {
		t.Fatalf("epoch 0 should be healthy, got %+v", cov)
	}

	// Epoch 1: only node 1 reports — the silent node degrades coverage.
	for id := uint64(21); id <= 40; id++ {
		s := mkSession(id, 1)
		agg.Ingest(1, &s)
	}
	cov, res, err = agg.Seal(1)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Degraded || cov.NodesReporting != 1 || res != nil {
		t.Fatalf("epoch 1 with a silent node: %+v (res %v)", cov, res)
	}

	// Epoch 2: both report, but node 2 restarts mid-epoch.
	for id := uint64(41); id <= 60; id++ {
		s := mkSession(id, 2)
		node := uint64(1 + id%2)
		agg.Ingest(node, &s)
	}
	agg.registerNode(2, 1) // incarnation bump: the old process died
	cov, res, err = agg.Seal(2)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Degraded || cov.Restarts != 1 || res != nil {
		t.Fatalf("epoch 2 with a restart: %+v (res %v)", cov, res)
	}

	// Epoch 3: both report, but a node reported shed sessions.
	for id := uint64(61); id <= 80; id++ {
		s := mkSession(id, 3)
		node := uint64(1 + id%2)
		agg.Ingest(node, &s)
	}
	agg.updateStatus(1, [4]uint64{StatusRelayShed: 5})
	cov, res, err = agg.Seal(3)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Degraded || cov.RelayShed != 5 || res != nil {
		t.Fatalf("epoch 3 with shedding: %+v (res %v)", cov, res)
	}
	// The shed delta was charged to epoch 3; epoch 4 starts clean.
	for id := uint64(81); id <= 100; id++ {
		s := mkSession(id, 4)
		node := uint64(1 + id%2)
		agg.Ingest(node, &s)
	}
	cov, res, err = agg.Seal(4)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Degraded || cov.RelayShed != 0 || res == nil {
		t.Fatalf("epoch 4 should be healthy again: %+v", cov)
	}

	det := agg.Detector()
	if det.Epochs != 5 || det.GapEpochs != 3 {
		t.Fatalf("detector saw %d epochs with %d gaps, want 5 and 3", det.Epochs, det.GapEpochs)
	}
}

// TestAggregatorSealsHoles: epochs nothing reported into still get coverage
// records (empty, degraded) so the detector's epoch clock never skips.
func TestAggregatorSealsHoles(t *testing.T) {
	cfg := testAnalysis(10)
	agg, err := NewAggregator(AggregatorConfig{Analysis: cfg, ExpectNodes: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 10; id++ {
		s := mkSession(id, 0)
		agg.Ingest(1, &s)
	}
	for id := uint64(11); id <= 20; id++ {
		s := mkSession(id, 3)
		agg.Ingest(1, &s)
	}
	if err := agg.SealAll(); err != nil {
		t.Fatal(err)
	}
	covs := agg.Coverages()
	if len(covs) != 4 {
		t.Fatalf("sealed %d epochs, want 4 (0..3 with holes)", len(covs))
	}
	for i, cov := range covs {
		if cov.Epoch != epoch.Index(i) {
			t.Fatalf("coverage %d is for epoch %d", i, cov.Epoch)
		}
	}
	for _, hole := range []int{1, 2} {
		if covs[hole].Sessions != 0 || !covs[hole].Degraded {
			t.Fatalf("hole epoch %d not sealed empty+degraded: %+v", hole, covs[hole])
		}
	}
	if covs[0].Degraded || covs[3].Degraded {
		t.Fatalf("populated epochs wrongly degraded: %+v %+v", covs[0], covs[3])
	}
	if agg.Detector().GapEpochs != 2 {
		t.Fatalf("detector gaps %d, want 2", agg.Detector().GapEpochs)
	}
}

// TestAggregatorStarvedEpochFreezes: MinEpochSessions gates a technically
// healthy but starved epoch through the same freeze path.
func TestAggregatorStarvedEpochFreezes(t *testing.T) {
	cfg := testAnalysis(10)
	agg, err := NewAggregator(AggregatorConfig{
		Analysis:         cfg,
		ExpectNodes:      1,
		MinEpochSessions: 8,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		s := mkSession(id, 0)
		agg.Ingest(1, &s)
	}
	cov, res, err := agg.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Starved || res != nil {
		t.Fatalf("3 < 8 sessions must starve the epoch: %+v (res %v)", cov, res)
	}
	if agg.Detector().GapEpochs != 1 {
		t.Fatalf("detector gaps %d, want 1", agg.Detector().GapEpochs)
	}
}

// TestAggregatorRejectsNonHelloFirstFrame: the relay protocol requires a
// control Hello before anything else; a stray client speaking the player
// protocol is dropped with a protocol error, not half-ingested.
func TestAggregatorRejectsNonHelloFirstFrame(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	cfg := testAnalysis(10)
	agg, err := NewAggregator(AggregatorConfig{Analysis: cfg, Logf: nil})
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
	w := heartbeat.NewWriter(conn)
	s := mkSession(1, 0)
	m := heartbeat.SessionMessage(&s)
	if err := w.Write(&m); err != nil {
		t.Fatal(err)
	}
	// The aggregator must hang up on us.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("aggregator kept the connection after a protocol violation")
	}
	_ = conn.Close()
	if err := agg.CloseGrace(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := agg.Stats()
	if st.ProtocolErrors == 0 {
		t.Fatalf("no protocol error recorded: %+v", st)
	}
	if agg.EpochSessions(0) != 0 {
		t.Fatal("session ingested without a node announcement")
	}
}

// TestSealThroughFromColdStart: SealThrough on an aggregator that never
// sealed starts from its lowest open epoch.
func TestSealThroughFromColdStart(t *testing.T) {
	cfg := testAnalysis(10)
	agg, err := NewAggregator(AggregatorConfig{Analysis: cfg, ExpectNodes: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 10; id++ {
		s := mkSession(id, 2)
		agg.Ingest(1, &s)
	}
	if err := agg.SealThrough(4); err != nil {
		t.Fatal(err)
	}
	covs := agg.Coverages()
	if len(covs) != 3 { // 2, 3, 4
		t.Fatalf("sealed %d epochs, want 3: %+v", len(covs), covs)
	}
	if covs[0].Epoch != 2 || covs[0].Sessions != 10 || covs[0].Degraded {
		t.Fatalf("epoch 2 coverage wrong: %+v", covs[0])
	}
	for _, c := range covs[1:] {
		if c.Sessions != 0 || !c.Degraded {
			t.Fatalf("empty epoch %d not degraded: %+v", c.Epoch, c)
		}
	}
}
