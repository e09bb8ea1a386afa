package ingest

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/cktable"
	"repro/internal/epoch"
	"repro/internal/heartbeat"
	"repro/internal/online"
	"repro/internal/session"
)

// Coverage stamps one sealed epoch with how much of the fleet actually
// reported into it. The paper's clustering math is only as trustworthy as
// its denominator; a node dying mid-epoch silently shrinks every cluster it
// fed, so the aggregator records the loss explicitly and lets the online
// detector freeze — not resolve — its alert streaks across the hole.
type Coverage struct {
	Epoch epoch.Index
	// Sessions is the number of unique sessions merged into the epoch.
	Sessions int
	// NodesReporting / ExpectNodes measure fleet participation: how many
	// distinct nodes contributed at least one session vs. the configured
	// fleet size (0 = unknown, participation not judged).
	NodesReporting int
	ExpectNodes    int
	// Duplicates counts re-delivered sessions dropped idempotently (ack
	// retries, recovered-segment replays after a node restart).
	Duplicates int
	// Restarts counts node incarnation bumps observed while the epoch was
	// open — each one means some in-flight state died with a process.
	Restarts int
	// RelayShed / SpoolShed attribute fleet-reported losses (from KindStatus
	// deltas) to this epoch, coarsely: losses are charged to the epoch
	// sealed when the report arrives, since a dead session carries no epoch.
	RelayShed uint64
	SpoolShed uint64
	// Salvaged / Recovered are the fleet's cumulative repair counters at
	// seal time (salvage = half-reported sessions flushed as join failures,
	// recovered = sessions re-read from disk after a restart).
	Salvaged  uint64
	Recovered uint64
	// Degraded marks the epoch untrustworthy: a restart, a silent node,
	// reported shedding, or zero sessions. Degraded epochs freeze the
	// detector's streaks (GapEpochs) instead of resolving them.
	Degraded bool
	// Starved marks Sessions < MinEpochSessions (the detector would gate it
	// even if nothing visibly failed).
	Starved bool
}

// AggregatorConfig shapes the central aggregator.
type AggregatorConfig struct {
	// Analysis configures the per-epoch clustering run on sealed tables.
	Analysis core.Config
	// ExpectNodes is the fleet size for coverage judgments (0 = unknown).
	ExpectNodes int
	// MinEpochSessions marks an epoch with fewer sessions Starved: it is
	// frozen, not analysed (0 disables the gate).
	MinEpochSessions int
	// OnSeal observes every sealed epoch (nil ignores). Called in seal
	// order with the coverage record and the analysis result (nil when the
	// epoch was degraded or starved — frozen, not analysed).
	OnSeal func(Coverage, *core.EpochResult)
	// Emit receives detector alerts (nil drops them).
	Emit func(online.Alert)
	// Logf receives diagnostics (nil silences).
	Logf func(format string, args ...any)
}

// nodeState tracks one collector node across its incarnations.
type nodeState struct {
	incarnation uint64
	lastStatus  [4]uint64
	restarts    int
}

// idLite is one merged session: its ID, which fixes the canonical session
// order at seal, and its digest.
type idLite struct {
	id uint64
	l  cluster.Lite
}

// epochState is one open (unsealed) epoch. Its count table is the same
// whichever node delivered each session, so there is one per epoch.
type epochState struct {
	seen     map[uint64]struct{} // session IDs merged (dedup across re-delivery)
	ck       *cktable.Table
	root     cluster.Counts
	lites    []idLite
	nodes    map[uint64]struct{} // nodes that contributed a session
	dups     int
	restarts int
}

// Aggregator is the central merge point of the ingestion tier. Relay nodes
// stream assembled session records (KindSession) and loss counters
// (KindStatus) over acked heartbeat connections; the aggregator folds each
// session into its epoch's count table, deduplicating re-deliveries, and on
// Seal analyses that table and feeds the result — with its Coverage stamp —
// to an online detector that freezes alert streaks across degraded epochs.
//
// Late, duplicate, and reordered sessions are tolerated idempotently: a
// session re-sent after an ack was lost, or replayed from a recovered disk
// segment, merges exactly once; a session arriving for an already-sealed
// epoch is counted and dropped.
type Aggregator struct {
	cfg AggregatorConfig
	det *online.Detector

	mu       sync.Mutex
	nodes    map[uint64]*nodeState
	partials map[epoch.Index]*epochState
	// attributed snapshots how much of the fleet's cumulative shed counters
	// has already been charged to sealed epochs; the delta since goes to
	// the next seal.
	attributed    [4]uint64
	coverages     []Coverage
	sealedAny     bool
	sealedThrough epoch.Index
	// lastSessions sizes each new epoch's table like the last sealed one,
	// so a table the pool no longer holds is allocated once, not grown.
	lastSessions int

	srv          *heartbeat.Server
	lateSessions atomic.Int64
	dupSessions  atomic.Int64
}

// AggStats is a snapshot of aggregator counters.
type AggStats struct {
	heartbeat.ConnStats
	// LateSessions arrived for already-sealed epochs and were dropped.
	LateSessions int64
	// DupSessions were re-deliveries of already-merged sessions.
	DupSessions int64
}

// NewAggregator builds an aggregator; the detector is wired to cfg.Emit.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	// Resolve the all-dimensions default once, as cluster.NewTable does:
	// the epoch tables below go straight to cktable.Acquire, which reads 0
	// as one dimension.
	if cfg.Analysis.MaxDims <= 0 || cfg.Analysis.MaxDims > attr.NumDims {
		cfg.Analysis.MaxDims = attr.NumDims
	}
	emit := cfg.Emit
	if emit == nil {
		emit = func(online.Alert) {}
	}
	det, err := online.NewDetector(cfg.Analysis, emit)
	if err != nil {
		return nil, err
	}
	a := &Aggregator{
		cfg:      cfg,
		det:      det,
		nodes:    make(map[uint64]*nodeState),
		partials: make(map[epoch.Index]*epochState),
	}
	a.srv = heartbeat.NewServer("ingest: aggregator", a.newConn)
	a.srv.Logf = cfg.Logf
	return a, nil
}

// Detector exposes the online detector (tests read its counters).
func (a *Aggregator) Detector() *online.Detector { return a.det }

// Stats returns current counters.
func (a *Aggregator) Stats() AggStats {
	return AggStats{
		ConnStats:    a.srv.Stats(),
		LateSessions: a.lateSessions.Load(),
		DupSessions:  a.dupSessions.Load(),
	}
}

// registerNode records a node announcement. A higher incarnation than the
// last seen means the node restarted: every open epoch is marked restarted,
// because in-flight state (kernel buffers, pending assembler sessions) died
// with the old process and those epochs can no longer claim full coverage.
func (a *Aggregator) registerNode(nodeID, incarnation uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := a.nodes[nodeID]
	if ns == nil {
		ns = &nodeState{incarnation: incarnation}
		a.nodes[nodeID] = ns
		return
	}
	if incarnation > ns.incarnation {
		ns.incarnation = incarnation
		ns.restarts++
		for _, es := range a.partials {
			es.restarts++
		}
	}
}

// updateStatus records a node's cumulative loss counters (KindStatus).
func (a *Aggregator) updateStatus(nodeID uint64, st [4]uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := a.nodes[nodeID]
	if ns == nil {
		ns = &nodeState{}
		a.nodes[nodeID] = ns
	}
	// Counters are cumulative per node ID across incarnations (the relay
	// carries recovered/shed forward only within one process, but a restart
	// can only ever lower a reading — never double-charge — so take the max).
	for i := range st {
		if st[i] > ns.lastStatus[i] {
			ns.lastStatus[i] = st[i]
		}
	}
}

// Ingest merges one assembled session from a node into its epoch's state.
// Idempotent: duplicates (lost-ack retries, recovered-segment replays) and
// late arrivals (epoch already sealed) are counted and dropped, never
// double-merged.
func (a *Aggregator) Ingest(nodeID uint64, s *session.Session) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := s.Epoch
	if a.sealedAny && e <= a.sealedThrough {
		a.lateSessions.Add(1)
		return
	}
	es := a.partials[e]
	if es == nil {
		es = &epochState{
			seen:  make(map[uint64]struct{}),
			ck:    cktable.Acquire(a.lastSessions, a.cfg.Analysis.MaxDims),
			nodes: make(map[uint64]struct{}),
		}
		a.partials[e] = es
	}
	if _, dup := es.seen[s.ID]; dup {
		es.dups++
		a.dupSessions.Add(1)
		return
	}
	es.seen[s.ID] = struct{}{}
	es.nodes[nodeID] = struct{}{}
	l := cluster.Digest(s, a.cfg.Analysis.Thresholds)
	es.ck.AddSession(l.Attrs, l.Bits, l.Failed)
	es.root.Add(l.Bits, l.Failed)
	es.lites = append(es.lites, idLite{s.ID, l})
}

// EpochSessions reports how many unique sessions an open epoch has merged
// so far (0 once sealed or never seen). Tests poll it to time fault
// injection mid-epoch.
func (a *Aggregator) EpochSessions(e epoch.Index) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	es := a.partials[e]
	if es == nil {
		return 0
	}
	return len(es.seen)
}

// OpenEpochs returns the unsealed epochs with merged sessions, ascending.
func (a *Aggregator) OpenEpochs() []epoch.Index {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]epoch.Index, 0, len(a.partials))
	for e := range a.partials {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Coverages returns the coverage records of all sealed epochs, in seal
// order.
func (a *Aggregator) Coverages() []Coverage {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Coverage, len(a.coverages))
	copy(out, a.coverages)
	return out
}

// Seal closes one epoch: analyses its count table (sessions in ID order,
// so the result is independent of arrival interleaving), stamps a Coverage
// record, and feeds the detector. Epochs must seal in ascending order.
func (a *Aggregator) Seal(e epoch.Index) (Coverage, *core.EpochResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sealLocked(e)
}

// SealThrough seals every epoch up to and including e, in order, including
// holes (epochs nothing reported into — sealed as empty, degraded).
func (a *Aggregator) SealThrough(e epoch.Index) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	start := a.sealedThrough + 1
	if !a.sealedAny {
		start = a.lowestOpenLocked()
		if start > e || len(a.partials) == 0 {
			start = e // nothing earlier to cover; seal just e
		}
	}
	for cur := start; cur <= e; cur++ {
		if _, _, err := a.sealLocked(cur); err != nil {
			return err
		}
	}
	return nil
}

// SealAll seals every open epoch in ascending order (holes between them
// included).
func (a *Aggregator) SealAll() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.partials) == 0 {
		return nil
	}
	hi := epoch.Index(0)
	for e := range a.partials {
		if e > hi {
			hi = e
		}
	}
	start := a.sealedThrough + 1
	if !a.sealedAny {
		start = a.lowestOpenLocked()
	}
	for cur := start; cur <= hi; cur++ {
		if _, _, err := a.sealLocked(cur); err != nil {
			return err
		}
	}
	return nil
}

func (a *Aggregator) lowestOpenLocked() epoch.Index {
	first := true
	lo := epoch.Index(0)
	for e := range a.partials {
		if first || e < lo {
			lo, first = e, false
		}
	}
	return lo
}

func (a *Aggregator) sealLocked(e epoch.Index) (Coverage, *core.EpochResult, error) {
	if a.sealedAny && e <= a.sealedThrough {
		return Coverage{}, nil, fmt.Errorf("ingest: epoch %d already sealed (through %d)", e, a.sealedThrough)
	}
	es := a.partials[e]
	delete(a.partials, e)

	cov := Coverage{Epoch: e, ExpectNodes: a.cfg.ExpectNodes}
	// Charge status-counter growth since the last seal to this epoch. The
	// attribution is coarse — a shed session carries no epoch — but the
	// conservation ledger stays exact: every loss lands on exactly one seal.
	var fleet [4]uint64
	for _, ns := range a.nodes {
		for i := range fleet {
			fleet[i] += ns.lastStatus[i]
		}
	}
	cov.RelayShed = fleet[StatusRelayShed] - a.attributed[StatusRelayShed]
	cov.SpoolShed = fleet[StatusSpoolShed] - a.attributed[StatusSpoolShed]
	cov.Salvaged = fleet[StatusSalvaged]
	cov.Recovered = fleet[StatusRecovered]
	a.attributed[StatusRelayShed] = fleet[StatusRelayShed]
	a.attributed[StatusSpoolShed] = fleet[StatusSpoolShed]

	var res *core.EpochResult
	if es != nil {
		cov.Sessions = len(es.seen)
		cov.NodesReporting = len(es.nodes)
		cov.Duplicates = es.dups
		cov.Restarts = es.restarts
	}
	cov.Degraded = cov.Restarts > 0 ||
		(cov.ExpectNodes > 0 && cov.NodesReporting < cov.ExpectNodes) ||
		cov.RelayShed > 0 || cov.SpoolShed > 0 ||
		cov.Sessions == 0
	cov.Starved = a.cfg.MinEpochSessions > 0 && cov.Sessions < a.cfg.MinEpochSessions

	if es != nil && cov.Sessions > 0 && !cov.Degraded && !cov.Starved {
		// Canonical session order: by session ID. The per-metric view
		// passes sum float ratios across sessions; a fixed order makes the
		// result bit-identical to a single-collector build fed the same
		// order.
		sort.Slice(es.lites, func(i, j int) bool { return es.lites[i].id < es.lites[j].id })
		lites := make([]cluster.Lite, len(es.lites))
		for i := range es.lites {
			lites[i] = es.lites[i].l
		}
		tbl := cluster.AssembleTable(e, lites, a.cfg.Analysis.MaxDims, es.ck, es.root)
		r, err := core.AnalyzeEpochTable(tbl, a.cfg.Analysis)
		tbl.Release()
		if err != nil {
			return cov, nil, fmt.Errorf("ingest: seal epoch %d: %w", e, err)
		}
		res = r
	} else if es != nil {
		// Degraded or starved: the table is discarded unanalysed; the
		// detector freezes rather than acting on a biased sample.
		es.ck.Release()
	}

	if err := a.det.ObserveResult(e, res); err != nil {
		return cov, nil, fmt.Errorf("ingest: seal epoch %d: %w", e, err)
	}
	a.sealedAny = true
	a.sealedThrough = e
	a.lastSessions = cov.Sessions
	a.coverages = append(a.coverages, cov)
	if a.cfg.OnSeal != nil {
		a.cfg.OnSeal(cov, res)
	}
	return cov, res, nil
}

// newConn returns the Handler for one relay connection. Protocol: the
// first frame must be a control Hello (ControlSessionBit set) announcing
// the node ID and incarnation; KindSession frames then carry assembled
// sessions and KindStatus frames cumulative loss counters. The server acks
// a Session frame only after Ingest returned, so a relay retiring a segment
// knows its sessions are in.
func (a *Aggregator) newConn() heartbeat.Handler {
	var nodeID uint64
	hello := false
	return func(m *heartbeat.Message) error {
		switch {
		case m.Kind == heartbeat.KindHello && m.SessionID&heartbeat.ControlSessionBit != 0:
			// The announce, or a re-announce after a sender reconnect
			// replay, which refreshes the incarnation of the node first
			// announced on this connection.
			if !hello {
				nodeID, hello = m.SessionID&^heartbeat.ControlSessionBit, true
			}
			a.registerNode(nodeID, uint64(uint32(m.Attrs[0])))
		case !hello:
			return fmt.Errorf("first frame %v, want control hello: %w", m.Kind, heartbeat.ErrDropConn)
		case m.Kind == heartbeat.KindSession:
			a.Ingest(nodeID, &m.Sess)
		case m.Kind == heartbeat.KindStatus:
			a.updateStatus(nodeID, m.Status)
		case m.Kind != heartbeat.KindHello:
			return fmt.Errorf("unexpected %v frame", m.Kind)
		}
		return nil
	}
}

// Listen starts accepting relay connections on addr.
func (a *Aggregator) Listen(addr string) error { return a.srv.Listen(addr) }

// Addr returns the bound listen address (nil before Listen).
func (a *Aggregator) Addr() net.Addr { return a.srv.Addr() }

// CloseGrace shuts the accept plane down, giving live relay connections up
// to grace to drain (see heartbeat.Server.CloseGrace). It does not seal
// epochs — call SealAll (or SealThrough) after Close so every delivered
// session is merged first.
func (a *Aggregator) CloseGrace(grace time.Duration) error { return a.srv.CloseGrace(grace) }

// Close is CloseGrace with a ten-second drain.
func (a *Aggregator) Close() error { return a.srv.Close() }
