// Command vqaggregate runs the central aggregator of the distributed
// ingestion tier: vqcollect edge nodes (run with -aggregator) relay
// assembled sessions and loss counters to it over acknowledged heartbeat
// links; it counts every session into its epoch's count table, stamps every
// sealed epoch with a Coverage record (nodes reporting, duplicates,
// restarts, shed), and feeds the result to the online critical-cluster
// detector — degraded or starved epochs freeze alert streaks instead of
// resolving them on a biased sample.
//
// Epochs seal on a cadence: every -seal-every interval, all open epochs
// older than the newest -seal-lag epochs are sealed (newer ones are assumed
// to still be filling). SIGTERM drains connections, seals everything still
// open, and prints the coverage ledger:
//
//	vqaggregate -addr 127.0.0.1:9833 -expect-nodes 3 -sessions-per-epoch 4000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/online"
	"repro/internal/world"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("vqaggregate: ")
	var (
		addr        = flag.String("addr", "127.0.0.1:9833", "TCP listen address for relay connections")
		expectNodes = flag.Int("expect-nodes", 0, "collector fleet size for coverage judgments (0 = unknown)")
		perEpoch    = flag.Int("sessions-per-epoch", 4000, "expected sessions per epoch (sizes the analysis)")
		minEpoch    = flag.Int("min-epoch-sessions", 0, "starvation gate: epochs below this freeze the detector")
		sealEvery   = flag.Duration("seal-every", 30*time.Second, "seal cadence for open epochs")
		sealLag     = flag.Int("seal-lag", 1, "keep this many newest open epochs unsealed (still filling)")
		grace       = flag.Duration("grace", 10*time.Second, "connection drain deadline at shutdown")
		workers     = flag.Int("workers", 0, "analysis shards per sealed epoch (0 = GOMAXPROCS)")
	)
	flag.Parse()

	// The default world's attribute space names cluster keys in alerts; the
	// analysis itself is space-agnostic.
	w, err := world.New(world.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	space := w.Space()

	cfg := core.DefaultConfig(*perEpoch)
	cfg.Workers = *workers
	agg, err := ingest.NewAggregator(ingest.AggregatorConfig{
		Analysis:         cfg,
		ExpectNodes:      *expectNodes,
		MinEpochSessions: *minEpoch,
		Logf:             log.Printf,
		OnSeal:           func(cov ingest.Coverage, res *core.EpochResult) { printSeal(cov, res) },
		Emit: func(a online.Alert) {
			if a.Kind == online.AlertResolved {
				fmt.Printf("alert epoch %3d  %-10s %-12s %s (lasted %dh)\n",
					a.Epoch, a.Kind, a.Metric, space.FormatKey(a.Key), a.StreakHours)
				return
			}
			tag := ""
			if a.Actionable() {
				tag = "  [ACT]"
			}
			fmt.Printf("alert epoch %3d  %-10s %-12s %s (ratio %.2f over %d sessions, streak %dh)%s\n",
				a.Epoch, a.Kind, a.Metric, space.FormatKey(a.Key), a.Ratio, a.Sessions, a.StreakHours, tag)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := agg.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregating relayed sessions on %s (expect %d nodes)\n", agg.Addr(), *expectNodes)

	stopSeal := make(chan struct{})
	sealDone := make(chan struct{})
	go func() {
		defer close(sealDone)
		ticker := time.NewTicker(*sealEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				sealSettled(agg, *sealLag)
			case <-stopSeal:
				return
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")

	exit := 0
	close(stopSeal)
	<-sealDone
	// Drain relay connections first so in-flight sessions land, then seal
	// whatever is still open — the final epochs get their coverage stamp
	// even when the fleet went away mid-epoch.
	if err := agg.CloseGrace(*grace); err != nil {
		log.Printf("closing: %v", err)
		exit = 1
	}
	if err := agg.SealAll(); err != nil {
		log.Printf("final seal: %v", err)
		exit = 1
	}

	covs := agg.Coverages()
	sessions, degraded := 0, 0
	for _, cov := range covs {
		sessions += cov.Sessions
		if cov.Degraded || cov.Starved {
			degraded++
		}
	}
	st := agg.Stats()
	det := agg.Detector()
	fmt.Printf("sealed %d epochs (%d degraded or starved), %d sessions merged, %d alerts (%d gap epochs frozen)\n",
		len(covs), degraded, sessions, det.Alerts, det.GapEpochs)
	if st.DupSessions > 0 || st.LateSessions > 0 || st.ProtocolErrors > 0 || st.HandlerPanics > 0 {
		fmt.Printf("ingest accounting: %d duplicates dropped, %d late sessions dropped, %d protocol errors, %d handler panics\n",
			st.DupSessions, st.LateSessions, st.ProtocolErrors, st.HandlerPanics)
	}
	if st.ForceClosed > 0 {
		log.Printf("drain timed out: %d relay connections force-closed after %v", st.ForceClosed, *grace)
		exit = 1
	}
	return exit
}

// sealSettled seals every open epoch except the lag newest — those are
// assumed to still be receiving sessions from the fleet.
func sealSettled(agg *ingest.Aggregator, lag int) {
	open := agg.OpenEpochs()
	if len(open) <= lag {
		return
	}
	cutoff := open[len(open)-1-lag]
	if err := agg.SealThrough(cutoff); err != nil {
		log.Printf("sealing through epoch %d: %v", cutoff, err)
	}
}

// printSeal logs one sealed epoch's coverage stamp and, when the epoch was
// healthy enough to analyse, its per-metric problem counts.
func printSeal(cov ingest.Coverage, res *core.EpochResult) {
	status := "healthy"
	switch {
	case cov.Starved:
		status = "STARVED (frozen)"
	case cov.Degraded:
		status = "DEGRADED (frozen)"
	}
	fmt.Printf("epoch %3d sealed: %d sessions from %d/%d nodes, %d dups, %d restarts, shed %d relay + %d spool — %s\n",
		cov.Epoch, cov.Sessions, cov.NodesReporting, cov.ExpectNodes,
		cov.Duplicates, cov.Restarts, cov.RelayShed, cov.SpoolShed, status)
	if res == nil {
		return
	}
	for _, ms := range res.Metrics {
		if ms.NumProblemClusters > 0 || len(ms.Critical) > 0 {
			fmt.Printf("  %-12s %d/%d problem sessions (ratio %.3f), %d problem clusters, %d critical\n",
				ms.Metric, ms.GlobalProblems, ms.GlobalSessions, ms.GlobalRatio,
				ms.NumProblemClusters, len(ms.Critical))
		}
	}
}
