// Command vqmonitor streams a trace (from a file or generated live) through
// the online critical-cluster detector and prints an alert log — the
// operational form of the paper's reactive strategy (§5.3): NEW when a
// problem event is first detected, CONTINUING (actionable) once it persists
// past the one-hour reaction threshold, RESOLVED when it clears.
//
// Usage:
//
//	vqmonitor -trace trace.vqt.gz                 # monitor a stored trace
//	vqmonitor -epochs 48 -sessions 3000 -seed 2   # monitor a live synthetic stream
//	vqmonitor ... -actionable                     # only persistence alerts
//	vqmonitor -window 60m -tick 1m ...            # sub-epoch streaming detection
//	vqmonitor -latency-report                     # canned detection-latency scenarios (JSON)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/online"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/window"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vqmonitor: ")
	var (
		path       = flag.String("trace", "", "trace file to monitor (otherwise a synthetic stream is generated)")
		epochs     = flag.Int("epochs", 48, "synthetic stream length in epochs")
		sessions   = flag.Int("sessions", 3000, "synthetic sessions per epoch")
		seed       = flag.Uint64("seed", 1, "synthetic universe seed")
		actionable = flag.Bool("actionable", false, "print only actionable alerts (persisted ≥ 2 hours)")
		metricName = flag.String("metric", "", "restrict alerts to one metric")
		workers    = flag.Int("workers", 0, "analysis shards per epoch (0 = GOMAXPROCS)")
		windowSpan = flag.Duration("window", 0, "sliding-window span for sub-epoch streaming detection (must equal the 1h epoch; 0 = epoch-boundary batch mode)")
		tickSpan   = flag.Duration("tick", time.Minute, "sub-bucket width for -window; the window clock advances on session order, never wall time")
		latReport  = flag.Bool("latency-report", false, "run the canned detection-latency scenarios and print JSON")
	)
	flag.Parse()

	if *latReport {
		if err := runLatencyReport(os.Stdout, 2500); err != nil {
			log.Fatal(err)
		}
		return
	}

	var wcfg window.Config
	streaming := *windowSpan > 0
	if streaming {
		var err error
		if wcfg, err = windowGeometry(*windowSpan, *tickSpan); err != nil {
			log.Fatal(err)
		}
	}

	var space *attr.Space
	emit := func(a online.Alert) {
		if *actionable && !a.Actionable() {
			return
		}
		if *metricName != "" && a.Metric.String() != *metricName {
			return
		}
		name := a.Key.String()
		if space != nil {
			name = space.FormatKey(a.Key)
		}
		switch a.Kind {
		case online.AlertResolved:
			fmt.Printf("hour %3d  %-10s %-12s %s (lasted %dh)\n",
				a.Epoch, a.Kind, a.Metric, name, a.StreakHours)
		default:
			tag := ""
			if a.Actionable() {
				tag = "  [ACT]"
			}
			fmt.Printf("hour %3d  %-10s %-12s %s (ratio %.2f over %d sessions, streak %dh)%s\n",
				a.Epoch, a.Kind, a.Metric, name, a.Ratio, a.Sessions, a.StreakHours, tag)
		}
	}

	perEpoch := *sessions
	var feed func(d *online.Detector) error
	if *path != "" {
		r, err := trace.Open(*path)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		hdr := r.Header()
		if space, err = hdr.Space(); err != nil {
			log.Fatal(err)
		}
		perEpoch = 4000
		if streaming {
			// The codec streams sessions in epoch order; buffer one epoch at
			// a time and replay it bucket-sorted by derived sub-epoch tick.
			feed = func(d *online.Detector) error {
				var buf []session.Session
				cur := epoch.Index(-1)
				flush := func() error {
					if len(buf) == 0 {
						return nil
					}
					err := feedEpochTicks(d, cur, buf, wcfg)
					buf = buf[:0]
					return err
				}
				if err := r.ForEach(func(s *session.Session) error {
					if s.Epoch != cur {
						if err := flush(); err != nil {
							return err
						}
						cur = s.Epoch
					}
					buf = append(buf, *s)
					return nil
				}); err != nil {
					return err
				}
				return flush()
			}
		} else {
			feed = func(d *online.Detector) error {
				return r.ForEach(func(s *session.Session) error { return d.Add(s) })
			}
		}
	} else {
		cfg := synth.DefaultConfig()
		cfg.Seed = *seed
		cfg.Trace = epoch.Range{Start: 0, End: epoch.Index(*epochs)}
		cfg.SessionsPerEpoch = *sessions
		cfg.Events.Trace = cfg.Trace
		g, err := synth.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		space = g.World().Space()
		if streaming {
			feed = func(d *online.Detector) error {
				for e := cfg.Trace.Start; e < cfg.Trace.End; e++ {
					if err := feedEpochTicks(d, e, g.EpochSessions(e), wcfg); err != nil {
						return err
					}
				}
				return nil
			}
		} else {
			feed = func(d *online.Detector) error { return g.ForEach(d.Add) }
		}
	}

	cfg := core.DefaultConfig(perEpoch)
	cfg.Workers = *workers
	d, err := online.NewDetector(cfg, emit)
	if err != nil {
		log.Fatal(err)
	}
	if streaming {
		tickEmit := func(a online.TickAlert) {
			if *actionable {
				return // persistence is an epoch-level judgement
			}
			if *metricName != "" && a.Metric.String() != *metricName {
				return
			}
			name := a.Key.String()
			if space != nil {
				name = space.FormatKey(a.Key)
			}
			switch a.Kind {
			case online.AlertResolved:
				fmt.Printf("tick %5d  %-10s %-12s %s (lasted %d ticks)\n",
					a.Tick, a.Kind, a.Metric, name, a.StreakTicks)
			default:
				fmt.Printf("tick %5d  %-10s %-12s %s (ratio %.2f over %d sessions, streak %d ticks)\n",
					a.Tick, a.Kind, a.Metric, name, a.Ratio, a.Sessions, a.StreakTicks)
			}
		}
		if err := d.Streaming(online.StreamConfig{Window: wcfg, TickEmit: tickEmit}); err != nil {
			log.Fatal(err)
		}
	}
	if err := feed(d); err != nil {
		log.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "vqmonitor: %d epochs, %d alerts\n", d.Epochs, d.Alerts)
	if streaming {
		fmt.Fprintf(os.Stderr, "vqmonitor: %d ticks, %d tick alerts\n", d.Ticks, d.TickAlerts)
	}
}
