package ingest

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
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
	// MinEpochSessions feeds the detector's starvation gate.
	MinEpochSessions int
	// ReadIdleTimeout bounds the gap between frames on one relay
	// connection (default 2m; zero disables).
	ReadIdleTimeout time.Duration
	// OnSeal observes every sealed epoch (nil ignores). Called in seal
	// order with the coverage record and the analysis result (nil when the
	// epoch was degraded or starved — frozen, not analysed).
	OnSeal func(Coverage, *core.EpochResult)
	// Emit receives detector alerts (nil drops them).
	Emit func(online.Alert)
	// Logf receives diagnostics (default log.Printf; set to silence).
	Logf func(format string, args ...any)
}

// nodeState tracks one collector node across its incarnations.
type nodeState struct {
	incarnation uint64
	lastStatus  [4]uint64
	restarts    int
}

// nodePartial is one node's contribution to one open epoch: its partial
// count table plus the session digests backing it, kept per node so the
// merged table can be assembled in a canonical (sorted node ID) order.
type nodePartial struct {
	ck    *cktable.Table
	ids   []uint64
	lites []cluster.Lite
}

// epochState is one open (unsealed) epoch.
type epochState struct {
	seen     map[uint64]struct{} // session IDs merged (dedup across re-delivery)
	nodes    map[uint64]*nodePartial
	dups     int
	restarts int
}

// Aggregator is the central merge point of the ingestion tier. Relay nodes
// stream assembled session records (KindSession) and loss counters
// (KindStatus) over acked heartbeat connections; the aggregator folds each
// session into its epoch's per-node partial count table, deduplicating
// re-deliveries, and on Seal merges the partials, analyses the epoch, and
// feeds the result — with its Coverage stamp — to an online detector that
// freezes alert streaks across degraded epochs.
//
// Late, duplicate, and reordered partials are tolerated idempotently: a
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

	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	connsAccepted  atomic.Int64
	framesHandled  atomic.Int64
	protocolErrors atomic.Int64
	acceptErrors   atomic.Int64
	handlerPanics  atomic.Int64
	forceClosed    atomic.Int64
	lateSessions   atomic.Int64
	dupSessions    atomic.Int64
}

// AggStats is a snapshot of aggregator counters.
type AggStats struct {
	ConnsAccepted  int64
	FramesHandled  int64
	ProtocolErrors int64
	AcceptErrors   int64
	HandlerPanics  int64
	ForceClosed    int64
	// LateSessions arrived for already-sealed epochs and were dropped.
	LateSessions int64
	// DupSessions were re-deliveries of already-merged sessions.
	DupSessions int64
}

// NewAggregator builds an aggregator; the detector is wired to cfg.Emit.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	// Resolve the all-dimensions default once, as cluster.NewTable does:
	// the partial tables below go straight to cktable.Acquire, which reads
	// 0 as one dimension.
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
	det.MinEpochSessions = cfg.MinEpochSessions
	if cfg.ReadIdleTimeout == 0 {
		cfg.ReadIdleTimeout = 2 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return &Aggregator{
		cfg:      cfg,
		det:      det,
		nodes:    make(map[uint64]*nodeState),
		partials: make(map[epoch.Index]*epochState),
		conns:    make(map[net.Conn]bool),
	}, nil
}

// Detector exposes the online detector (tests read its counters).
func (a *Aggregator) Detector() *online.Detector { return a.det }

// Stats returns current counters.
func (a *Aggregator) Stats() AggStats {
	return AggStats{
		ConnsAccepted:  a.connsAccepted.Load(),
		FramesHandled:  a.framesHandled.Load(),
		ProtocolErrors: a.protocolErrors.Load(),
		AcceptErrors:   a.acceptErrors.Load(),
		HandlerPanics:  a.handlerPanics.Load(),
		ForceClosed:    a.forceClosed.Load(),
		LateSessions:   a.lateSessions.Load(),
		DupSessions:    a.dupSessions.Load(),
	}
}

// RegisterNode records a node announcement. A higher incarnation than the
// last seen means the node restarted: every open epoch is marked restarted,
// because in-flight state (kernel buffers, pending assembler sessions) died
// with the old process and those epochs can no longer claim full coverage.
func (a *Aggregator) RegisterNode(nodeID, incarnation uint64) {
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

// UpdateStatus records a node's cumulative loss counters (KindStatus).
func (a *Aggregator) UpdateStatus(nodeID uint64, st [4]uint64) {
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

// Ingest merges one assembled session from a node into its epoch's partial
// state. Idempotent: duplicates (lost-ack retries, recovered-segment
// replays) and late arrivals (epoch already sealed) are counted and
// dropped, never double-merged.
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
			nodes: make(map[uint64]*nodePartial),
		}
		a.partials[e] = es
	}
	if _, dup := es.seen[s.ID]; dup {
		es.dups++
		a.dupSessions.Add(1)
		return
	}
	es.seen[s.ID] = struct{}{}
	pn := es.nodes[nodeID]
	if pn == nil {
		pn = &nodePartial{ck: cktable.Acquire(64, a.cfg.Analysis.MaxDims)}
		es.nodes[nodeID] = pn
	}
	l := cluster.Digest(s, a.cfg.Analysis.Thresholds)
	pn.ck.AddSession(l.Attrs, l.Bits, l.Failed)
	pn.ids = append(pn.ids, s.ID)
	pn.lites = append(pn.lites, l)
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

// Seal closes one epoch: merges its per-node partial tables (sorted node
// order, so the merged table is independent of arrival interleaving),
// analyses the merged table, stamps a Coverage record, and feeds the
// detector. Epochs must seal in ascending order.
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
		// Merge per-node partials in sorted node-ID order so the merged
		// table — and the float attribution order below — is a pure
		// function of the session set, not of network interleaving.
		nodeIDs := make([]uint64, 0, len(es.nodes))
		total := 0
		for id, pn := range es.nodes {
			nodeIDs = append(nodeIDs, id)
			total += len(pn.lites)
		}
		sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })
		//vqlint:ignore-start poolrelease ownership of merged passes to the Table AssembleTable builds; tbl.Release frees it on every subsequent path
		merged := cktable.Acquire(total, a.cfg.Analysis.MaxDims)
		type idLite struct {
			id uint64
			l  cluster.Lite
		}
		all := make([]idLite, 0, total)
		for _, id := range nodeIDs {
			pn := es.nodes[id]
			merged.Merge(pn.ck)
			pn.ck.Release()
			for i := range pn.ids {
				all = append(all, idLite{pn.ids[i], pn.lites[i]})
			}
		}
		// Canonical session order: by session ID. The per-metric view
		// passes sum float ratios across sessions; a fixed order makes the
		// merged path bit-identical to a single-collector build fed the
		// same order.
		sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
		lites := make([]cluster.Lite, len(all))
		var root cluster.Counts
		for i := range all {
			lites[i] = all[i].l
			root.Add(all[i].l.Bits, all[i].l.Failed)
		}
		tbl := cluster.AssembleTable(e, lites, a.cfg.Analysis.MaxDims, merged, root)
		r, err := core.AnalyzeEpochTable(tbl, a.cfg.Analysis)
		tbl.Release()
		if err != nil {
			return cov, nil, fmt.Errorf("ingest: seal epoch %d: %w", e, err)
		}
		res = r
	} else if es != nil {
		// Degraded or starved: the partial tables are discarded unanalysed;
		// the detector freezes rather than acting on a biased sample.
		for _, pn := range es.nodes {
			pn.ck.Release()
		}
	}

	if err := a.det.ObserveResult(e, res, cov.Sessions, cov.Degraded); err != nil {
		return cov, nil, fmt.Errorf("ingest: seal epoch %d: %w", e, err)
	}
	a.sealedAny = true
	a.sealedThrough = e
	a.coverages = append(a.coverages, cov)
	if a.cfg.OnSeal != nil {
		a.cfg.OnSeal(cov, res)
	}
	return cov, res, nil
	//vqlint:ignore-end
}

// Listen starts accepting relay connections on addr.
func (a *Aggregator) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return a.Serve(ln)
}

// Serve accepts relay connections from an existing listener.
func (a *Aggregator) Serve(ln net.Listener) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		_ = ln.Close()
		return errors.New("ingest: aggregator closed")
	}
	a.ln = ln
	a.mu.Unlock()
	a.wg.Add(1)
	go a.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (nil before Serve).
func (a *Aggregator) Addr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

func (a *Aggregator) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

func (a *Aggregator) acceptLoop(ln net.Listener) {
	defer a.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return
			}
			if a.isClosed() {
				return
			}
			a.acceptErrors.Add(1)
			if a.cfg.Logf != nil {
				a.cfg.Logf("ingest: aggregator accept: %v", err)
			}
			if backoff < time.Millisecond {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		a.connsAccepted.Add(1)
		a.mu.Lock()
		a.conns[conn] = true
		a.mu.Unlock()
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.serveConn(conn)
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// serveConn decodes one relay stream. Protocol: the first frame must be a
// control Hello (ControlSessionBit set) announcing the node ID and
// incarnation; KindSession frames then carry assembled sessions and
// KindStatus frames cumulative loss counters. Acked frames are
// acknowledged only after the session is durably merged (or recognized as
// a duplicate), so a relay retiring a segment knows its sessions are in.
func (a *Aggregator) serveConn(conn net.Conn) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			a.handlerPanics.Add(1)
			if a.cfg.Logf != nil {
				a.cfg.Logf("ingest: aggregator handler panic (connection dropped): %v\n%s", r, debug.Stack())
			}
		}
	}()
	r := heartbeat.NewReader(conn)
	var (
		ackW   *heartbeat.Writer
		nodeID uint64
		hello  bool
		m      heartbeat.Message
	)
	for {
		if a.cfg.ReadIdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(a.cfg.ReadIdleTimeout)); err != nil {
				return
			}
		}
		if err := r.Read(&m); err != nil {
			if err != io.EOF && a.cfg.Logf != nil {
				a.cfg.Logf("ingest: aggregator connection: %v", err)
			}
			return
		}
		a.framesHandled.Add(1)
		if !hello {
			if m.Kind != heartbeat.KindHello || m.SessionID&heartbeat.ControlSessionBit == 0 {
				a.protocolErrors.Add(1)
				if a.cfg.Logf != nil {
					a.cfg.Logf("ingest: aggregator: first frame %v, want control hello (connection dropped)", m.Kind)
				}
				return
			}
			nodeID = m.SessionID &^ heartbeat.ControlSessionBit
			var inc uint64
			if len(m.Attrs) > 0 {
				inc = uint64(uint32(m.Attrs[0]))
			}
			a.RegisterNode(nodeID, inc)
			if m.AckMode {
				ackW = heartbeat.NewWriter(conn)
			}
			hello = true
			continue
		}
		switch m.Kind {
		case heartbeat.KindSession:
			a.Ingest(nodeID, &m.Sess)
		case heartbeat.KindStatus:
			a.UpdateStatus(nodeID, m.Status)
			continue // status frames are unacked fire-and-forget
		case heartbeat.KindHello:
			// A re-announce (sender reconnect replay); refresh the
			// incarnation. Hellos are never acked — the sender does not
			// await one, and an unsolicited ack would desync its ack stream.
			if m.SessionID&heartbeat.ControlSessionBit != 0 {
				var inc uint64
				if len(m.Attrs) > 0 {
					inc = uint64(uint32(m.Attrs[0]))
				}
				a.RegisterNode(nodeID, inc)
			}
			continue
		default:
			a.protocolErrors.Add(1)
			if a.cfg.Logf != nil {
				a.cfg.Logf("ingest: aggregator: unexpected %v frame", m.Kind)
			}
			continue
		}
		if ackW != nil {
			if err := conn.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
				return
			}
			if err := ackW.Write(&heartbeat.Message{Kind: heartbeat.KindAck, SessionID: m.SessionID}); err != nil {
				if a.cfg.Logf != nil {
					a.cfg.Logf("ingest: aggregator ack write: %v (connection dropped)", err)
				}
				return
			}
		}
	}
}

// Close shuts the accept plane down, giving live relay connections up to
// grace to drain. It does not seal epochs — call SealAll (or SealThrough)
// after Close so every delivered session is merged first.
func (a *Aggregator) CloseGrace(grace time.Duration) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return errors.New("ingest: aggregator already closed")
	}
	a.closed = true
	ln := a.ln
	a.mu.Unlock()

	var closeErr error
	if ln != nil {
		if tl, ok := ln.(*net.TCPListener); ok {
			if err := tl.SetDeadline(time.Now().Add(150 * time.Millisecond)); err != nil {
				closeErr = ln.Close()
				ln = nil
			}
		} else {
			closeErr = ln.Close()
			ln = nil
		}
	}
	done := make(chan struct{})
	go func() {
		a.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		a.mu.Lock()
		for conn := range a.conns {
			a.forceClosed.Add(1)
			_ = conn.Close()
		}
		a.mu.Unlock()
		<-done
	}
	if ln != nil {
		if err := ln.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	return closeErr
}

// Close is CloseGrace with a ten-second drain.
func (a *Aggregator) Close() error { return a.CloseGrace(10 * time.Second) }
