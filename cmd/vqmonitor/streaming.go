package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/events"
	"repro/internal/metric"
	"repro/internal/online"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/window"
)

// windowGeometry converts the -window/-tick durations into a sub-bucket
// geometry. The tick must divide both the window span and the one-hour
// epoch; the streaming detector additionally requires the window to equal
// one epoch (the byte-identity contract), which Streaming itself enforces.
func windowGeometry(span, tick time.Duration) (window.Config, error) {
	if tick <= 0 {
		return window.Config{}, fmt.Errorf("-tick %v must be positive", tick)
	}
	if span%tick != 0 {
		return window.Config{}, fmt.Errorf("-tick %v does not divide -window %v", tick, span)
	}
	if epoch.Duration%tick != 0 {
		return window.Config{}, fmt.Errorf("-tick %v does not divide the %v epoch", tick, epoch.Duration)
	}
	return window.Config{
		Ticks:         int(span / tick),
		TicksPerEpoch: int(epoch.Duration / tick),
	}, nil
}

// feedEpochTicks delivers one epoch of sessions to a streaming detector in
// tick order: each session's sub-epoch tick is derived deterministically
// from its ID (window.SubTick — the heartbeat-timestamp stand-in), and the
// epoch is consumed bucket by bucket so the detector's window clock
// advances exactly as a live per-minute heartbeat stream would drive it.
func feedEpochTicks(d *online.Detector, e epoch.Index, batch []session.Session, wcfg window.Config) error {
	buckets := make([][]int, wcfg.TicksPerEpoch)
	for i := range batch {
		tk := window.SubTick(batch[i].ID, wcfg.TicksPerEpoch)
		buckets[tk] = append(buckets[tk], i)
	}
	start := wcfg.StartTick(e)
	for tk, idxs := range buckets {
		for _, i := range idxs {
			if err := d.AddAt(start+window.Tick(tk), &batch[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// latencyScenario is one canned ground-truth run of the -latency-report
// mode: a synthetic trace with a single injected event, measured under the
// default one-minute-tick streaming geometry.
type latencyScenario struct {
	name     string
	metric   metric.Metric
	anchor   attr.Key
	severity float64
	interval epoch.Range
	seed     uint64
}

// latencyRow is the JSON record one scenario produces.
type latencyRow struct {
	Scenario        string  `json:"scenario"`
	Metric          string  `json:"metric"`
	Severity        float64 `json:"severity"`
	StartEpoch      int64   `json:"event_start_epoch"`
	TicksPerEpoch   int     `json:"ticks_per_epoch"`
	DetectedTick    bool    `json:"detected_tick"`
	TickLatency     int     `json:"tick_latency_ticks"`
	DetectedEpoch   bool    `json:"detected_epoch"`
	EpochLatency    int     `json:"epoch_latency_ticks"`
	TicksSaved      int     `json:"ticks_saved"`
	SessionsPerHour int     `json:"sessions_per_hour"`
}

// latencyScenarios are the two internal/events ground-truth cases: a
// strong single-ASN buffering outage and a milder CDN join-time
// degradation.
func latencyScenarios() []latencyScenario {
	return []latencyScenario{
		{
			name:     "asn-bufratio-outage",
			metric:   metric.BufRatio,
			anchor:   attr.NewKey(map[attr.Dim]int32{attr.ASN: 0}),
			severity: 0.7,
			interval: epoch.Range{Start: 3, End: 6},
			seed:     1,
		},
		{
			name:     "cdn-jointime-degradation",
			metric:   metric.JoinTime,
			anchor:   attr.NewKey(map[attr.Dim]int32{attr.CDN: 1}),
			severity: 0.55,
			interval: epoch.Range{Start: 4, End: 7},
			seed:     7,
		},
	}
}

// runLatencyReport measures, for each canned scenario, how many one-minute
// ticks of session data the streaming detector needs past the event start
// versus the batch detector's epoch-boundary floor, and writes the rows as
// JSON.
func runLatencyReport(w io.Writer, perEpoch int) error {
	wcfg := window.DefaultConfig()
	rows := make([]latencyRow, 0, 2)
	for _, sc := range latencyScenarios() {
		cfg := synth.DefaultConfig()
		cfg.Seed = sc.seed
		cfg.Trace = epoch.Range{Start: 0, End: 8}
		cfg.SessionsPerEpoch = perEpoch
		cfg.Events.Trace = cfg.Trace
		cfg.Events.DisableChronic = true
		cfg.Events.DisableEpisodic = true
		cfg.Events.Extra = []events.Event{{
			Metric: sc.metric, Anchor: sc.anchor, Severity: sc.severity,
			Intervals: []epoch.Range{sc.interval}, Tag: sc.name,
		}}
		g, err := synth.New(cfg)
		if err != nil {
			return err
		}
		ev := &g.Schedule().Events[0]

		var ticks []online.TickAlert
		var epochs []online.Alert
		d, err := online.NewDetector(core.DefaultConfig(perEpoch), func(a online.Alert) { epochs = append(epochs, a) })
		if err != nil {
			return err
		}
		if err := d.Streaming(online.StreamConfig{
			Window:   wcfg,
			TickEmit: func(a online.TickAlert) { ticks = append(ticks, a) },
		}); err != nil {
			return err
		}
		for e := cfg.Trace.Start; e < cfg.Trace.End; e++ {
			if err := feedEpochTicks(d, e, g.EpochSessions(e), wcfg); err != nil {
				return err
			}
		}
		if err := d.Flush(); err != nil {
			return err
		}

		for _, el := range online.MeasureLatency(g.Schedule(), ticks, epochs, wcfg) {
			if el.EventID != ev.ID {
				continue
			}
			rows = append(rows, latencyRow{
				Scenario:        sc.name,
				Metric:          sc.metric.String(),
				Severity:        sc.severity,
				StartEpoch:      int64(el.StartEpoch),
				TicksPerEpoch:   wcfg.TicksPerEpoch,
				DetectedTick:    el.DetectedTick,
				TickLatency:     el.TickLatency,
				DetectedEpoch:   el.DetectedEpoch,
				EpochLatency:    el.EpochLatencyTicks,
				TicksSaved:      el.EpochLatencyTicks - el.TickLatency,
				SessionsPerHour: perEpoch,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
