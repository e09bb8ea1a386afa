package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/heartbeat"
	"repro/internal/ingest"
	"repro/internal/online"
	"repro/internal/session"
	"repro/internal/synth"
)

// ringNodes is the fleet size. Members carry fixed logical names, which the
// benchmark's dialer maps to the ephemeral listen addresses: the ring hashes
// member names, so naming members by address would move the partition with
// every port the kernel hands out.
const ringNodes = 2

// progressReports is the number of Progress heartbeats per session.
const progressReports = 2

// drainTimeout bounds the wait for one epoch's sessions to reach the
// aggregator; sessions still missing then count as failed.
const drainTimeout = 20 * time.Second

// liveRing drives the heartbeat and ingest tiers under load: one ack-mode
// player connection per node, sessions pre-partitioned by ring owner, the
// nodes relaying over loopback to one aggregator. Closed loop, 2 clients.
type liveRing struct {
	env
	gen *synth.Generator
	cfg core.Config
	// first is the first epoch of the seed's window. epochs[e] holds the
	// sessions of epoch first+e; parts[e][n] indexes the ones node n owns.
	// epochs[0] is the warm-up pass.
	first  epoch.Index
	epochs [][]session.Session
	parts  [][ringNodes][]int

	agg     *ingest.Aggregator
	nodes   [ringNodes]*ingest.Node
	senders [ringNodes]*heartbeat.Sender
	// wireBytes counts player->node bytes, relayBytes node->aggregator.
	wireBytes, relayBytes atomic.Int64
	diagnostics           atomic.Int64

	alerts []online.Alert // filled by the aggregator's Emit during Seal
	next   int            // next epoch to drive
	// sealed keeps the untraced run's results for verification.
	sealed map[epoch.Index]*core.EpochResult
}

// ringAnalysis is the aggregator's analysis configuration. MaxDims is
// spelled out because the aggregator hands it to cktable.Acquire as is, and
// that reads the default 0 as one dimension: at the default the sealed
// results hold single-attribute clusters only and differ from every other
// route (found by this benchmark's correctness check; see README.md).
func ringAnalysis(sessionsPerEpoch int) core.Config {
	cfg := core.DefaultConfig(sessionsPerEpoch)
	cfg.MaxDims = attr.NumDims
	return cfg
}

// countConn counts the bytes its side writes.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func countingDial(addr string, n *atomic.Int64) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countConn{conn, n}, nil
	}
}

func (w *liveRing) setup() error {
	total := 1 + w.runs*w.sz.RingEpochs
	gen, err := newGenerator(w.seed, total, w.sz.RingSessions)
	if err != nil {
		return err
	}
	w.gen = gen
	w.first = gen.Config().Trace.Start
	w.cfg = ringAnalysis(w.sz.RingSessions)
	w.sealed = make(map[epoch.Index]*core.EpochResult)

	ring := ingest.NewRing(0)
	names := [ringNodes]string{"node-1", "node-2"}
	index := make(map[string]int, ringNodes)
	for i, name := range names {
		ring.Add(name)
		index[name] = i
	}
	w.epochs = make([][]session.Session, total)
	w.parts = make([][ringNodes][]int, total)
	for e := range w.epochs {
		w.epochs[e] = gen.EpochSessions(w.first + epoch.Index(e))
		for i := range w.epochs[e] {
			owner, ok := ring.Owner(w.epochs[e][i].ID)
			if !ok {
				return errors.New("live-ring: empty ring")
			}
			n := index[owner]
			w.parts[e][n] = append(w.parts[e][n], i)
		}
	}

	logf := func(string, ...any) { w.diagnostics.Add(1) }
	w.agg, err = ingest.NewAggregator(ingest.AggregatorConfig{
		Analysis:    w.cfg,
		ExpectNodes: ringNodes,
		Emit:        func(a online.Alert) { w.alerts = append(w.alerts, a) },
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	if err := w.agg.Listen("127.0.0.1:0"); err != nil {
		return fmt.Errorf("live-ring: aggregator listen: %w", err)
	}
	aggAddr := w.agg.Addr().String()
	// A spool directory of this set-up's own: a relay recovers whatever
	// segments it finds in the one it is given.
	spools, err := os.MkdirTemp(w.dir, "spool-")
	if err != nil {
		return err
	}
	for i := range w.nodes {
		w.nodes[i], err = ingest.StartNode(ingest.NodeConfig{
			ID:         uint64(i + 1),
			SpoolDir:   filepath.Join(spools, names[i]),
			Aggregator: countingDial(aggAddr, &w.relayBytes),
			// The in-memory spool sheds when full. A node receives about
			// half an epoch before the benchmark waits for the drain, so a
			// buffer of a whole epoch can never fill.
			SpoolCapacity: w.sz.RingSessions,
			Sender:        heartbeat.SenderConfig{Seed: w.seed*16 + uint64(i) + 1},
			Logf:          logf,
		})
		if err != nil {
			return fmt.Errorf("live-ring: starting %s: %w", names[i], err)
		}
		w.senders[i] = heartbeat.NewSender(
			countingDial(w.nodes[i].Addr().String(), &w.wireBytes),
			heartbeat.SenderConfig{AckMode: true, Seed: w.seed*16 + uint64(i) + 9},
		)
	}

	// Warm-up pass: epoch 0 through the whole pipeline.
	_, _, _, err = w.driveEpoch(nil, -1, 0)
	w.next = 1
	w.alerts = w.alerts[:0]
	return err
}

// driveEpoch sends one epoch through the players, waits for the relays to
// drain it into the aggregator, and seals it. It returns the coverage
// record, the analysis result and the unit latency: from the last player
// acknowledgment until Seal has emitted the epoch's alerts.
func (w *liveRing) driveEpoch(tr *tracer, parent, e int) (ingest.Coverage, *core.EpochResult, resultUnit, error) {
	start := time.Now()
	id := w.first + epoch.Index(e)
	unit := int64(id)
	sp := tr.begin("bench.epoch", parent, unit)
	defer tr.end(sp)

	var (
		wg        sync.WaitGroup
		delivered atomic.Int64
	)
	sessions := w.epochs[e]
	for n := range w.senders {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			emit := tr.begin("heartbeat.sender_emit", sp, unit)
			defer tr.end(emit)
			for _, i := range w.parts[e][n] {
				// An abandoned send is a failed session; the ledger
				// counts it because it is never delivered.
				if err := w.senders[n].EmitSession(&sessions[i], progressReports); err == nil {
					delivered.Add(1)
				}
			}
		}(n)
	}
	wg.Wait()
	lastAck := time.Now()

	// Sessions reach a relay's active segment shortly after the player's
	// ack (through the in-memory spool), so one Rotate can come too early:
	// rotate whenever a relay holds unsealed sessions.
	drain := tr.begin("ingest.relay_drain", sp, unit)
	deadline := time.Now().Add(drainTimeout)
	for w.agg.EpochSessions(id) < int(delivered.Load()) && time.Now().Before(deadline) {
		for _, n := range w.nodes {
			if n.Relay().Stats().ActiveSessions > 0 {
				n.Relay().Rotate()
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	tr.end(drain)

	seal := tr.begin("ingest.agg_seal", sp, unit)
	cov, res, err := w.agg.Seal(id)
	tr.end(seal)
	if err != nil {
		return cov, nil, resultUnit{}, fmt.Errorf("live-ring: %w", err)
	}
	return cov, res, resultUnit{len(sessions), ms(time.Since(start)), ms(time.Since(lastAck))}, nil
}

// perSession names the counters reported per session offered.
var perSession = map[string]bool{
	"heartbeat.frames_per_session":        true,
	"heartbeat.wire_bytes_per_session":    true,
	"ingest.relay_wire_bytes_per_session": true,
}

// counters reads the fleet's cumulative accounting, keyed by the per-layer
// metric each counter feeds; run reports the growth across its section.
func (w *liveRing) counters() values {
	c := values{
		"heartbeat.wire_bytes_per_session":    float64(w.wireBytes.Load()),
		"ingest.relay_wire_bytes_per_session": float64(w.relayBytes.Load()),
	}
	for i, n := range w.nodes {
		st := n.Stats()
		c["heartbeat.frames_per_session"] += float64(st.Collector.FramesHandled)
		c["heartbeat.spool_shed"] += float64(st.Spool.Shed)
		c["heartbeat.salvaged"] += float64(st.Collector.Salvaged)
		c["heartbeat.replays_dropped"] += float64(st.Collector.ReplaysDropped)
		c["heartbeat.sender_reconnects"] += float64(st.Sender.Reconnects + w.senders[i].Stats().Reconnects)
		c["ingest.relay_segments_sealed"] += float64(st.Relay.SegmentsSealed)
		c["ingest.relay_shed"] += float64(st.Relay.Shed + st.Relay.Abandoned)
	}
	as := w.agg.Stats()
	c["ingest.agg_dup_sessions"] = float64(as.DupSessions)
	c["ingest.agg_late_sessions"] = float64(as.LateSessions)
	return c
}

func (w *liveRing) run(tr *tracer) (*outcome, error) {
	out := &outcome{layer: values{}}
	dig := newDigester()
	before := w.counters()
	onNode1, degraded := 0, 0

	root := tr.begin("bench.run", -1, 0)
	start := time.Now()
	for e := w.next; e < w.next+w.sz.RingEpochs; e++ {
		cov, res, u, err := w.driveEpoch(tr, root, e)
		if err != nil {
			return nil, err
		}
		out.units = append(out.units, u)
		out.offered += len(w.epochs[e])
		onNode1 += len(w.parts[e][0])
		if res != nil {
			out.analysed += cov.Sessions
			dig.epochResult(res)
			if tr == nil {
				w.sealed[res.Epoch] = res
			}
		}
		if cov.Degraded || cov.Starved {
			degraded++
		}
	}
	out.wall = time.Since(start)
	tr.end(root)
	w.next += w.sz.RingEpochs

	for _, a := range w.alerts {
		dig.alert(a)
	}
	out.layer["online.alerts"] = float64(len(w.alerts))
	w.alerts = w.alerts[:0]
	out.digest = dig.sum()

	n := float64(out.offered)
	for name, after := range w.counters() {
		out.layer[name] = after - before[name]
		if perSession[name] {
			out.layer[name] = per(out.layer[name], n)
		}
	}
	out.layer["ingest.degraded_epochs"] = float64(degraded)
	out.layer["ingest.node1_session_share"] = per(float64(onNode1), n)
	out.layer["online.gap_epochs"] = float64(w.agg.Detector().GapEpochs)
	return out, nil
}

// heartbeatFrames returns the heartbeat sequence that reports the sessions,
// as it comes off the wire format.
func heartbeatFrames(sessions []session.Session) ([]heartbeat.Message, error) {
	var buf bytes.Buffer
	em := heartbeat.Emitter{W: heartbeat.NewWriter(&buf), ProgressEvery: progressReports}
	for i := range sessions {
		if err := em.EmitSession(&sessions[i]); err != nil {
			return nil, err
		}
	}
	rd := heartbeat.NewReader(&buf)
	var msgs []heartbeat.Message
	for {
		var m heartbeat.Message
		err := rd.Read(&m)
		if err == io.EOF {
			return msgs, nil
		}
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, m)
	}
}

// assembleReference reports sessions through the heartbeat protocol and an
// assembler in this goroutine: the records a collector would assemble from
// them (QoE is re-derived from heartbeat arithmetic), without the network.
func assembleReference(sessions []session.Session) ([]session.Session, error) {
	msgs, err := heartbeatFrames(sessions)
	if err != nil {
		return nil, err
	}
	out := make([]session.Session, 0, len(sessions))
	asm := heartbeat.NewAssembler(func(s session.Session) { out = append(out, s) })
	for i := range msgs {
		if err := asm.Handle(&msgs[i]); err != nil {
			return nil, err
		}
	}
	if len(out) != len(sessions) {
		return nil, fmt.Errorf("reference assembler emitted %d of %d sessions", len(out), len(sessions))
	}
	return out, nil
}

// verify compares every 8th sealed epoch with a serial analysis of the same
// sessions sorted by ID, the order the aggregator canonicalises to.
func (w *liveRing) verify() error {
	if d := w.diagnostics.Load(); d > 0 {
		return fmt.Errorf("live-ring: the fleet logged %d diagnostics on a fault-free run", d)
	}
	checked := 0
	for e := 1; e <= w.sz.RingEpochs; e += 8 {
		id := w.first + epoch.Index(e)
		got := w.sealed[id]
		if got == nil {
			return fmt.Errorf("live-ring: epoch %d was not analysed", e)
		}
		ref, err := assembleReference(w.epochs[e])
		if err != nil {
			return fmt.Errorf("live-ring: epoch %d: %w", e, err)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].ID < ref[j].ID })
		want, err := serialEpoch(id, ref, w.cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("live-ring: epoch %d differs from the serial analysis of the same sessions", e)
		}
		checked++
	}
	if checked == 0 {
		return errors.New("live-ring: no epoch was checked")
	}
	return nil
}

func (w *liveRing) probeEpoch() (*synth.Generator, []session.Session) {
	return w.gen, w.epochs[0]
}

func (w *liveRing) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, s := range w.senders {
		if s != nil {
			keep(s.Close())
		}
	}
	for _, n := range w.nodes {
		if n != nil {
			keep(n.Close(5 * time.Second))
		}
	}
	if w.agg != nil {
		keep(w.agg.Close())
	}
	return first
}
