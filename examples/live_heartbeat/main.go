// Live heartbeat pipeline: the full measurement stack on one machine —
// synth sessions are reported as heartbeats over real TCP to a collector
// (package heartbeat), and the assembled sessions are clustered exactly
// like a trace from disk. One CDN is deliberately overloaded, injected as
// a ground-truth event, so the analysis has something to find.
//
//	go run ./examples/live_heartbeat
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/events"
	"repro/internal/heartbeat"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/synth"
)

const (
	numSessions = 4000
	brokenCDN   = int32(3) // this CDN runs far past capacity tonight
)

func main() {
	log.SetFlags(0)

	// One hour of sessions. The overloaded CDN raises the chance of a
	// buffering problem and of a join failure for each session it serves,
	// on top of the normal background.
	gcfg := synth.DefaultConfig()
	gcfg.Trace = epoch.Range{Start: 0, End: 1}
	gcfg.SessionsPerEpoch = numSessions
	overloaded := attr.NewKey(map[attr.Dim]int32{attr.CDN: brokenCDN})
	for _, m := range []metric.Metric{metric.BufRatio, metric.JoinFailure} {
		gcfg.Events.Extra = append(gcfg.Events.Extra, events.Event{
			Metric:    m,
			Anchor:    overloaded,
			Severity:  0.4,
			Intervals: []epoch.Range{gcfg.Trace},
			Tag:       "overloaded-cdn",
		})
	}
	g, err := synth.New(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	w := g.World()
	reported := g.EpochSessions(0)

	// Collector side.
	var mu sync.Mutex
	var collected []session.Session
	collector := heartbeat.NewCollector(func(s session.Session) {
		mu.Lock()
		collected = append(collected, s)
		mu.Unlock()
	})
	collector.Logf = log.Printf
	if err := collector.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	addr := collector.Addr().String()
	fmt.Printf("collector listening on %s; reporting %d sessions (CDN %s overloaded)\n",
		addr, len(reported), w.CDNs[brokenCDN].Name)

	// Client side: a handful of concurrent reporters, as real player fleets
	// multiplex through shared beacon connections.
	const reporters = 4
	var wg sync.WaitGroup
	for rep := 0; rep < reporters; rep++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				log.Printf("dial: %v", err)
				return
			}
			defer conn.Close()
			em := &heartbeat.Emitter{W: heartbeat.NewWriter(conn), ProgressEvery: 2}
			for i := rep; i < len(reported); i += reporters {
				if err := em.EmitSession(&reported[i]); err != nil {
					log.Printf("emit: %v", err)
					return
				}
			}
		}(rep)
	}
	wg.Wait()
	if err := collector.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %d sessions from the wire\n\n", len(collected))

	// Analyse the collected epoch exactly like a stored trace.
	cfg := core.DefaultConfig(len(collected))
	lites := make([]cluster.Lite, len(collected))
	for i := range collected {
		lites[i] = cluster.Digest(&collected[i], cfg.Thresholds)
	}
	res, err := core.AnalyzeEpoch(0, lites, cfg)
	if err != nil {
		log.Fatal(err)
	}

	space := w.Space()
	for _, m := range []metric.Metric{metric.BufRatio, metric.JoinFailure} {
		ms := &res.Metrics[m]
		fmt.Printf("%s: global ratio %.3f, %d problem clusters, %d critical clusters\n",
			m, ms.GlobalRatio, ms.NumProblemClusters, len(ms.Critical))
		for _, cs := range ms.Critical {
			if cs.Key.Mask.Has(attr.CDN) && cs.Key.Vals[attr.CDN] == brokenCDN {
				fmt.Printf("  → the overloaded CDN surfaced: %s (ratio %.2f over %d sessions)\n",
					space.FormatKey(cs.Key), cs.Ratio, cs.Sessions)
			}
		}
	}
}
