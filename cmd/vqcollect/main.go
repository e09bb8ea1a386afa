// Command vqcollect runs the heartbeat collector — the measurement back end
// of the reproduction — accepting TCP heartbeat streams from video players
// and appending assembled sessions to a trace file.
//
// The pipeline is built to degrade by accounting rather than crash: sessions
// flow through a bounded spool (a stalled disk sheds load instead of
// backpressuring the accept plane), the trace is written with periodic fsync
// and atomic rotation (a crash loses at most a bounded tail, never the
// file), and shutdown drains connections against a deadline — a drain that
// times out force-closes stragglers and exits non-zero.
//
// With -aggregator set, vqcollect runs as one edge node of the distributed
// ingestion tier instead of writing a local trace: assembled sessions flow
// through a disk-backed relay spool and ship to a central vqaggregate over
// an acknowledged heartbeat link. The spool directory persists across
// restarts — a new incarnation recovers and re-sends whatever its
// predecessor left sealed on disk:
//
//	vqcollect -addr 127.0.0.1:9823 -node-id 1 -incarnation 2 \
//	    -aggregator 127.0.0.1:9833 -spool-dir /var/spool/vq-node1
//
// With -demo N it also reports the first N sessions of the synthetic trace
// (package synth, at their own epochs and IDs) as heartbeats to its own
// listener, so the whole measurement pipeline can be exercised on one
// machine:
//
//	vqcollect -addr 127.0.0.1:9823 -out collected.vqt -demo 500
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/ingest"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("vqcollect: ")
	var (
		addr  = flag.String("addr", "127.0.0.1:9823", "TCP heartbeat listen address")
		out   = flag.String("out", "collected.vqt", "trace file to append assembled sessions to")
		demo  = flag.Int("demo", 0, "also report the first this many synthetic sessions as heartbeats to the collector")
		seed  = flag.Uint64("seed", 1, "synthetic trace seed: the demo sessions and the trace header's attribute names")
		flush = flag.Duration("flush", 30*time.Second, "idle-session flush and trace sync interval")
		grace = flag.Duration("grace", 10*time.Second, "connection drain deadline at shutdown")
		spool = flag.Int("spool", 1024, "bounded session buffer between assembler and trace writer")

		// Distributed-tier node mode (active when -aggregator is set).
		aggAddr     = flag.String("aggregator", "", "relay assembled sessions to this vqaggregate address instead of writing a trace")
		nodeID      = flag.Uint64("node-id", 1, "node identity on the aggregator (stable across restarts)")
		incarnation = flag.Uint64("incarnation", 0, "restart counter below 2^32; bump by one each time this node restarts")
		spoolDir    = flag.String("spool-dir", "relay-spool", "directory for relay spool segments (reuse across restarts for recovery)")
		rotate      = flag.Int("rotate", 256, "seal and ship a relay segment after this many sessions")
		maxSegments = flag.Int("max-segments", 64, "sealed-segment backlog bound; overflow sheds the oldest segment")
	)
	flag.Parse()

	gcfg := synth.DefaultConfig()
	gcfg.Seed = *seed
	g, err := synth.New(gcfg)
	if err != nil {
		log.Fatal(err)
	}

	if *aggAddr != "" {
		return runNode(nodeCfg{
			addr:        *addr,
			aggregator:  *aggAddr,
			nodeID:      *nodeID,
			incarnation: *incarnation,
			spoolDir:    *spoolDir,
			spoolCap:    *spool,
			rotate:      *rotate,
			maxSegments: *maxSegments,
			grace:       *grace,
			demo:        *demo,
			gen:         g,
		})
	}

	hdr := traceHeader(g, *seed)
	// Atomic rotation: sessions stream into *out+".partial" and only a clean
	// Close publishes *out, so downstream readers never open a half-written
	// container. Periodic fsync bounds what a crash can lose.
	tw, err := trace.CreateAtomic(*out, hdr)
	if err != nil {
		log.Fatal(err)
	}
	tw.SyncEvery = 64

	// The spool decouples the accept plane from the disk: its single
	// delivery goroutine is the only session writer, and the mutex only
	// serializes it against the periodic sync below.
	var wmu sync.Mutex
	sp := heartbeat.NewSpool(*spool, func(s session.Session) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := tw.Write(&s); err != nil {
			log.Printf("writing session: %v", err)
		}
	})

	collector := heartbeat.NewCollector(sp.Emit)
	collector.Logf = log.Printf
	if err := collector.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collecting heartbeats on %s → %s\n", collector.Addr(), *out)

	stopFlush := make(chan struct{})
	go func() {
		ticker := time.NewTicker(*flush)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if n := collector.Assembler().Flush(false); n > 0 {
					log.Printf("flushed %d idle sessions", n)
				}
				wmu.Lock()
				if err := tw.Sync(); err != nil {
					log.Printf("syncing trace: %v", err)
				}
				wmu.Unlock()
			case <-stopFlush:
				return
			}
		}
	}()

	if *demo > 0 {
		if err := runDemo(collector.Addr().String(), g, *demo); err != nil {
			log.Printf("demo: %v", err)
		}
		// Demo mode: drain and exit.
		time.Sleep(200 * time.Millisecond)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\nshutting down")
	}

	exit := 0
	close(stopFlush)
	// Drain heartbeat connections, force-flush pending sessions into the
	// spool, then drain the spool into the trace. Order matters: the spool
	// must outlive the collector's final flush.
	if err := collector.CloseGrace(*grace); err != nil {
		log.Printf("closing collector: %v", err)
		exit = 1
	}
	sp.Close()
	wmu.Lock()
	defer wmu.Unlock()
	if err := tw.Close(); err != nil {
		log.Printf("closing trace: %v", err)
		exit = 1
	}

	st := sp.Stats()
	cs := collector.Stats()
	fmt.Printf("wrote %d assembled sessions to %s\n", st.Delivered, *out)
	if st.Shed > 0 || cs.Salvaged > 0 || cs.ReplaysDropped > 0 || cs.HandlerPanics > 0 {
		fmt.Printf("loss accounting: %d shed at the spool, %d salvaged as join failures, %d replays deduplicated, %d handler panics\n",
			st.Shed, cs.Salvaged, cs.ReplaysDropped, cs.HandlerPanics)
	}
	if cs.ForceClosed > 0 {
		log.Printf("drain timed out: %d connections force-closed after %v", cs.ForceClosed, *grace)
		exit = 1
	}
	return exit
}

// nodeCfg carries the distributed-tier flags into runNode.
type nodeCfg struct {
	addr        string
	aggregator  string
	nodeID      uint64
	incarnation uint64
	spoolDir    string
	spoolCap    int
	rotate      int
	maxSegments int
	grace       time.Duration
	demo        int
	gen         *synth.Generator
}

// runNode runs vqcollect as one edge node of the distributed ingestion
// tier: players connect to the local collector, assembled sessions spool to
// disk, and a relay ships them to the central aggregator over an
// acknowledged link. The SIGTERM drain summary accounts for every
// downstream hop separately, so an operator can see exactly where sessions
// were lost (and a zero-loss drain exits zero).
func runNode(cfg nodeCfg) int {
	if err := os.MkdirAll(cfg.spoolDir, 0o755); err != nil {
		log.Fatal(err)
	}
	nd, err := ingest.StartNode(ingest.NodeConfig{
		ID:            cfg.nodeID,
		Incarnation:   cfg.incarnation,
		SpoolDir:      cfg.spoolDir,
		Aggregator:    func() (net.Conn, error) { return net.Dial("tcp", cfg.aggregator) },
		ListenAddr:    cfg.addr,
		SpoolCapacity: cfg.spoolCap,
		RotateEvery:   cfg.rotate,
		MaxSegments:   cfg.maxSegments,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %d (incarnation %d): collecting heartbeats on %s → %s (spool %s)\n",
		cfg.nodeID, cfg.incarnation, nd.Addr(), cfg.aggregator, cfg.spoolDir)
	if recovered := nd.Stats().Relay.Recovered; recovered > 0 {
		fmt.Printf("recovered %d sessions left on disk by a previous incarnation\n", recovered)
	}

	if cfg.demo > 0 {
		if err := runDemo(nd.Addr().String(), cfg.gen, cfg.demo); err != nil {
			log.Printf("demo: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\nshutting down")
	}

	exit := 0
	if err := nd.Close(cfg.grace); err != nil {
		log.Printf("closing node: %v", err)
		exit = 1
	}
	st := nd.Stats()
	fmt.Printf("drained node %d: %d sessions assembled, %d delivered to %s\n",
		cfg.nodeID, st.Collector.SessionsEmitted, st.Relay.Sent, cfg.aggregator)
	// Per-downstream-hop loss accounting: each hop's shed counter is
	// independent, and their sum is exactly the sessions this node lost.
	hops := []struct {
		name   string
		shed   int64
		detail string
	}{
		{"assembler→spool", st.Spool.Shed,
			fmt.Sprintf("%d buffered, %d delivered downstream", st.Spool.Accepted, st.Spool.Delivered)},
		{"spool→disk", st.Relay.Shed,
			fmt.Sprintf("%d offered, %d segments sealed, %d dropped to backlog bound, %d recovered",
				st.Relay.Offered, st.Relay.SegmentsSealed, st.Relay.SegmentsDropped, st.Relay.Recovered)},
		{"disk→aggregator", st.Relay.Abandoned,
			fmt.Sprintf("%d sent acked, %d reconnects, %d replays", st.Relay.Sent, st.Sender.Reconnects, st.Sender.Replays)},
	}
	var totalShed int64
	for _, h := range hops {
		fmt.Printf("  hop %-17s shed %d  (%s)\n", h.name, h.shed, h.detail)
		totalShed += h.shed
	}
	if totalShed > 0 {
		log.Printf("node shed %d sessions across the tier", totalShed)
		exit = 1
	}
	if st.Collector.Salvaged > 0 || st.Collector.ReplaysDropped > 0 || st.Collector.HandlerPanics > 0 {
		fmt.Printf("assembler accounting: %d salvaged as join failures, %d replays deduplicated, %d handler panics\n",
			st.Collector.Salvaged, st.Collector.ReplaysDropped, st.Collector.HandlerPanics)
	}
	if st.Collector.ForceClosed > 0 {
		log.Printf("drain timed out: %d connections force-closed after %v", st.Collector.ForceClosed, cfg.grace)
		exit = 1
	}
	return exit
}

// traceHeader is the header of a collected trace: the attribute names come
// from the generator's world, and the span is unknown (Epochs 0) because it
// is written before any session arrives.
func traceHeader(g *synth.Generator, seed uint64) trace.Header {
	hdr := trace.HeaderFor(g.World().Space(), 0, seed)
	hdr.Comment = "sessions assembled by vqcollect"
	return hdr
}

// errDemoDone stops the generator once the demo has sent its sessions.
var errDemoDone = errors.New("demo: all sessions sent")

// runDemo reports the generator's first n sessions, in epoch order with
// their own IDs, as heartbeats over TCP through the reconnecting Sender
// (the fault-tolerant client the chaos tests exercise).
func runDemo(addr string, g *synth.Generator, n int) error {
	snd := heartbeat.DialSender(addr, heartbeat.SenderConfig{Seed: g.Config().Seed})
	snd.Logf = log.Printf
	defer snd.Close()
	sent := 0
	err := g.ForEach(func(s *session.Session) error {
		if sent == n {
			return errDemoDone
		}
		sent++
		return snd.EmitSession(s, 2)
	})
	if errors.Is(err, errDemoDone) {
		return nil
	}
	return err
}
