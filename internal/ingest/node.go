package ingest

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/session"
)

// NodeConfig shapes one edge collector node.
type NodeConfig struct {
	// ID is the node's identity on the aggregator (stable across
	// restarts); Incarnation must grow by one per restart and fit in 32
	// bits.
	ID          uint64
	Incarnation uint64
	// SpoolDir holds the node's relay segments; reuse it across restarts so
	// recovery finds what the previous incarnation left.
	SpoolDir string
	// Aggregator dials the central aggregator.
	Aggregator func() (net.Conn, error)
	// Listener accepts player connections; nil listens on ListenAddr
	// (default "127.0.0.1:0").
	Listener   net.Listener
	ListenAddr string
	// SpoolCapacity bounds the in-memory assembler→relay buffer (default
	// 1024).
	SpoolCapacity int
	// RotateEvery / MaxSegments tune the relay spool (see RelayConfig).
	RotateEvery int
	MaxSegments int
	// Sender configures the relay's aggregator link.
	Sender heartbeat.SenderConfig
	// Logf receives diagnostics (nil silences).
	Logf func(format string, args ...any)
}

// NodeStats is the composite accounting of one node.
type NodeStats struct {
	Collector heartbeat.Stats
	Spool     heartbeat.SpoolStats
	Relay     RelayStats
	Sender    heartbeat.SenderStats
}

// Node is one edge collector: an accept plane assembling player heartbeat
// streams into sessions, a bounded in-memory spool decoupling assembly from
// disk, and a Relay shipping assembled sessions to the aggregator. The
// pipeline per session is collector → spool → relay segment → acked send.
type Node struct {
	cfg NodeConfig

	// mu fences the pipeline fields against the relay's send goroutine,
	// which may call status (via StatusFn) while StartNode is still wiring
	// the spool and collector up.
	mu    sync.Mutex
	col   *heartbeat.Collector
	sp    *heartbeat.Spool
	relay *Relay
}

// StartNode builds and starts a node: relay first (recovering any segments
// a previous incarnation left in SpoolDir), then the spool feeding it, then
// the collector accepting players.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	n := &Node{cfg: cfg}
	relay, err := newRelay(cfg.Aggregator, RelayConfig{
		Dir:         cfg.SpoolDir,
		NodeID:      cfg.ID,
		Incarnation: cfg.Incarnation,
		RotateEvery: cfg.RotateEvery,
		MaxSegments: cfg.MaxSegments,
		Sender:      cfg.Sender,
		StatusFn:    n.status,
		Logf:        cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	sp := heartbeat.NewSpool(cfg.SpoolCapacity, func(s session.Session) { relay.offer(s) })
	col := heartbeat.NewCollector(func(s session.Session) { sp.Emit(s) })
	col.Logf = cfg.Logf
	n.mu.Lock()
	n.relay, n.sp, n.col = relay, sp, col
	n.mu.Unlock()

	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			sp.Close()
			relay.kill()
			return nil, fmt.Errorf("ingest: node listen: %w", err)
		}
	}
	if err := col.Serve(ln); err != nil {
		sp.Close()
		relay.kill()
		return nil, err
	}
	return n, nil
}

// status composes the node's cumulative loss counters for the relay's
// KindStatus frames. Runs on the relay's send goroutine — possibly before
// StartNode has finished wiring the node — so it snapshots the pipeline
// fields under the mutex and tolerates the not-yet-wired window.
func (n *Node) status() [4]uint64 {
	n.mu.Lock()
	relay, sp, col := n.relay, n.sp, n.col
	n.mu.Unlock()
	var st [4]uint64
	if relay != nil {
		rs := relay.Stats()
		st[StatusRelayShed] = uint64(rs.Shed + rs.Abandoned)
		st[StatusRecovered] = uint64(rs.Recovered)
	}
	if sp != nil {
		st[StatusSpoolShed] = uint64(sp.Stats().Shed)
	}
	if col != nil {
		st[StatusSalvaged] = uint64(col.Stats().Salvaged)
	}
	return st
}

// Addr returns the player-facing listen address.
func (n *Node) Addr() net.Addr { return n.col.Addr() }

// Relay exposes the aggregator link.
func (n *Node) Relay() *Relay { return n.relay }

// Stats snapshots the composite accounting.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Collector: n.col.Stats(),
		Spool:     n.sp.Stats(),
		Relay:     n.relay.Stats(),
		Sender:    n.relay.senderStats(),
	}
}

// Close shuts the node down gracefully: the collector drains (its
// assembler force-flushes, salvaging half-reported sessions as join
// failures), the spool drains into the relay, and the relay seals and
// ships everything before a final status report.
func (n *Node) Close(grace time.Duration) error {
	err := n.col.CloseGrace(grace)
	n.sp.Close()
	if rerr := n.relay.close(); err == nil {
		err = rerr
	}
	return err
}
