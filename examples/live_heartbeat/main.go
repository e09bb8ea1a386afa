// Live heartbeat pipeline: the full measurement stack on one machine —
// simulated adaptive-bitrate players (package player) experience CDN
// deliveries (package cdn), report heartbeats over real TCP to a collector
// (package heartbeat), and the assembled sessions are clustered exactly
// like a trace from disk. One CDN is deliberately overloaded so the
// analysis has something to find.
//
//	go run ./examples/live_heartbeat
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"repro/internal/attr"
	"repro/internal/cdn"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/metric"
	"repro/internal/player"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/world"
)

const (
	numSessions = 4000
	brokenCDN   = int32(3) // this CDN runs far past capacity tonight
)

func main() {
	log.SetFlags(0)
	w, err := world.New(world.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	delivery, err := cdn.New(w, cdn.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

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
	fmt.Printf("collector listening on %s; driving %d simulated players (CDN %s overloaded)\n",
		addr, numSessions, w.CDNs[brokenCDN].Name)

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
			rng := stats.NewRNG(42).Split(uint64(rep))
			abrs := []player.ABR{player.RateBased{}, player.BufferBased{}}
			for i := rep; i < numSessions; i += reporters {
				attrs := w.SampleAttrs(rng)
				site := &w.Sites[attrs[attr.Site]]
				load := 0.7
				if attrs[attr.CDN] == brokenCDN {
					load = 1.8 // overloaded
				}
				d := delivery.Deliver(rng, attrs[attr.CDN], attrs[attr.ASN], load, site.LowPriority)
				netModel := player.NewMarkovNetwork(rng.Split(uint64(i)), d.ThroughputKbps, 20)
				res, err := player.Play(rng, site.BitrateLadder, abrs[i%len(abrs)], netModel,
					player.DefaultConfig(), 120+float64(rng.Intn(300)), d.FailProb, d.RTTms/1000)
				if err != nil {
					log.Printf("play: %v", err)
					return
				}
				s := session.Session{
					ID: uint64(i + 1), Epoch: 0, Attrs: attrs,
					QoE: res.QoE, EventIDs: session.NoEvents,
				}
				if err := em.EmitSession(&s); err != nil {
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
