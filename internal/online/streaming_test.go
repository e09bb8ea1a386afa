package online

import (
	"reflect"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/events"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/window"
)

// smallOutageGenerator is outageGenerator at a volume the per-tick
// re-analysis can afford under -race: 6 epochs, one buffering outage over
// [2, 5).
func smallOutageGenerator(t *testing.T, perEpoch int) (*synth.Generator, *events.Event) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Trace = epoch.Range{Start: 0, End: 6}
	cfg.SessionsPerEpoch = perEpoch
	cfg.Events.Trace = cfg.Trace
	cfg.Events.DisableChronic = true
	cfg.Events.DisableEpisodic = true
	cfg.Events.Extra = []events.Event{{
		Metric:   metric.BufRatio,
		Anchor:   attr.NewKey(map[attr.Dim]int32{attr.ASN: 0}),
		Severity: 0.7, Intervals: []epoch.Range{{Start: 2, End: 5}},
		Tag: "streaming-outage",
	}}
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, &g.Schedule().Events[0]
}

// tickOrder returns the epoch's sessions bucket-sorted by their derived
// sub-epoch tick — the order both the streaming and the batch differential
// runs consume them in (the float attribution passes are session-order
// sensitive, so the byte-identity contract is over a fixed order).
func tickOrder(batch []session.Session, ticksPerEpoch int) [][]int {
	buckets := make([][]int, ticksPerEpoch)
	for i := range batch {
		tk := window.SubTick(batch[i].ID, ticksPerEpoch)
		buckets[tk] = append(buckets[tk], i)
	}
	return buckets
}

// feedBoth drives a streaming detector (AddAt) and an optional batch
// detector (Add) over the same sessions in the same tick order.
func feedBoth(t *testing.T, g *synth.Generator, wcfg window.Config, sd, bd *Detector) {
	t.Helper()
	trace := g.Config().Trace
	for e := trace.Start; e < trace.End; e++ {
		batch := g.EpochSessions(e)
		start := wcfg.StartTick(e)
		for tk, idxs := range tickOrder(batch, wcfg.TicksPerEpoch) {
			for _, i := range idxs {
				if err := sd.AddAt(start+window.Tick(tk), &batch[i]); err != nil {
					t.Fatal(err)
				}
				if bd != nil {
					if err := bd.Add(&batch[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	if bd != nil {
		if err := bd.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamingBoundaryResultsByteIdentical is the core differential: at
// every full-epoch boundary the analysis of the incrementally maintained
// window — tables, problem keys, critical clusters, attribution — is
// byte-identical to core.AnalyzeEpoch batch output over the same sessions
// in the same order, at every worker count 1..8.
func TestStreamingBoundaryResultsByteIdentical(t *testing.T) {
	const perEpoch = 700
	g, _ := smallOutageGenerator(t, perEpoch)
	wcfg := window.Config{Ticks: 5, TicksPerEpoch: 5}
	trace := g.Config().Trace

	for workers := 1; workers <= 8; workers++ {
		cfg := detectorConfig(perEpoch)
		cfg.Workers = workers

		eng, err := window.New(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Start(wcfg.StartTick(trace.Start)); err != nil {
			t.Fatal(err)
		}
		boundaries := 0
		for e := trace.Start; e < trace.End; e++ {
			batch := g.EpochSessions(e)
			for tk, idxs := range tickOrder(batch, wcfg.TicksPerEpoch) {
				if err := eng.AdvanceTo(wcfg.StartTick(e)+window.Tick(tk), nil); err != nil {
					t.Fatal(err)
				}
				for _, i := range idxs {
					if err := eng.Observe(cluster.Digest(&batch[i], cfg.Thresholds)); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Seal the epoch's last tick: the window now holds exactly
			// epoch e.
			if _, err := eng.Advance(); err != nil {
				t.Fatal(err)
			}
			snap, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			streaming, err := core.AnalyzeEpochTable(snap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batchRes, err := core.AnalyzeEpoch(e, append(snap.Sessions[:0:0], snap.Sessions...), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streaming, batchRes) {
				t.Fatalf("workers %d epoch %d: streaming boundary result diverges from batch", workers, e)
			}
			boundaries++
		}
		if boundaries != trace.Len() {
			t.Fatalf("workers %d: %d boundaries, want %d", workers, boundaries, trace.Len())
		}
		eng.Close()
	}
}

// TestStreamingAlertsIdenticalToBatch: the streaming detector's epoch-level
// alert stream (and counters) is byte-identical to a batch detector fed the
// same sessions in the same order — streaks, kinds, snapshots, ordering.
func TestStreamingAlertsIdenticalToBatch(t *testing.T) {
	const perEpoch = 900
	g, _ := smallOutageGenerator(t, perEpoch)
	wcfg := window.Config{Ticks: 4, TicksPerEpoch: 4}

	var sAlerts, bAlerts []Alert
	var tickAlerts []TickAlert
	sd, err := NewDetector(detectorConfig(perEpoch), func(a Alert) { sAlerts = append(sAlerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Streaming(StreamConfig{Window: wcfg, TickEmit: func(a TickAlert) { tickAlerts = append(tickAlerts, a) }}); err != nil {
		t.Fatal(err)
	}
	bd, err := NewDetector(detectorConfig(perEpoch), func(a Alert) { bAlerts = append(bAlerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	feedBoth(t, g, wcfg, sd, bd)

	if len(bAlerts) == 0 {
		t.Fatal("batch reference produced no alerts")
	}
	if !reflect.DeepEqual(sAlerts, bAlerts) {
		t.Fatalf("streaming epoch alerts diverge from batch:\nstreaming %+v\nbatch     %+v", sAlerts, bAlerts)
	}
	if sd.Epochs != bd.Epochs || sd.Alerts != bd.Alerts {
		t.Fatalf("counters diverge: streaming %d/%d, batch %d/%d", sd.Epochs, sd.Alerts, bd.Epochs, bd.Alerts)
	}
	if len(tickAlerts) == 0 {
		t.Fatal("streaming run emitted no tick alerts")
	}
	if sd.Ticks != g.Config().Trace.Len()*wcfg.TicksPerEpoch {
		t.Fatalf("sealed ticks = %d, want %d", sd.Ticks, g.Config().Trace.Len()*wcfg.TicksPerEpoch)
	}
}

// TestStreamingDetectionLatency: on an injected outage the tick-level
// detection fires before the batch epoch boundary would — the latency win
// the sliding window exists for — and MeasureLatency charges both paths
// correctly.
func TestStreamingDetectionLatency(t *testing.T) {
	const perEpoch = 900
	g, ev := smallOutageGenerator(t, perEpoch)
	wcfg := window.Config{Ticks: 6, TicksPerEpoch: 6}

	var tickAlerts []TickAlert
	var epochAlerts []Alert
	sd, err := NewDetector(detectorConfig(perEpoch), func(a Alert) { epochAlerts = append(epochAlerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Streaming(StreamConfig{Window: wcfg, TickEmit: func(a TickAlert) { tickAlerts = append(tickAlerts, a) }}); err != nil {
		t.Fatal(err)
	}
	feedBoth(t, g, wcfg, sd, nil)

	lats := MeasureLatency(g.Schedule(), tickAlerts, epochAlerts, wcfg)
	var el *EventLatency
	for i := range lats {
		if lats[i].EventID == ev.ID {
			el = &lats[i]
		}
	}
	if el == nil {
		t.Fatal("outage event missing from latency report")
	}
	if !el.DetectedTick || !el.DetectedEpoch {
		t.Fatalf("outage undetected: %+v", *el)
	}
	if el.TickLatency > el.EpochLatencyTicks {
		t.Fatalf("tick detection (%d ticks) not earlier than batch (%d ticks)", el.TickLatency, el.EpochLatencyTicks)
	}
	if el.StartEpoch != 2 || el.StartTick != wcfg.StartTick(2) {
		t.Fatalf("latency start mis-anchored: %+v", *el)
	}
}

// TestStreamingGuards: mode mixing and geometry violations fail fast.
func TestStreamingGuards(t *testing.T) {
	d, err := NewDetector(detectorConfig(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Streaming(StreamConfig{Window: window.Config{Ticks: 30, TicksPerEpoch: 60}}); err == nil {
		t.Fatal("Ticks != TicksPerEpoch accepted")
	}
	if err := d.AddAt(0, &session.Session{}); err == nil {
		t.Fatal("AddAt without Streaming accepted")
	}
	if err := d.Streaming(StreamConfig{Window: window.Config{Ticks: 4, TicksPerEpoch: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Streaming(StreamConfig{Window: window.Config{Ticks: 4, TicksPerEpoch: 4}}); err == nil {
		t.Fatal("second Streaming accepted")
	}
	if err := d.Add(&session.Session{}); err == nil {
		t.Fatal("Add in streaming mode accepted")
	}
	if err := d.ObserveResult(0, nil); err == nil {
		t.Fatal("ObserveResult in streaming mode accepted")
	}
	// Tick/epoch coherence and ordering.
	if err := d.AddAt(9, &session.Session{Epoch: 1}); err == nil {
		t.Fatal("tick 9 with epoch 1 accepted (tick 9 is epoch 2)")
	}
	if err := d.AddAt(9, &session.Session{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddAt(8, &session.Session{Epoch: 2}); err == nil {
		t.Fatal("tick regression accepted")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingGapEpochGate: a starved epoch freezes epoch-level streaks in
// streaming mode exactly as in batch mode.
func TestStreamingGapEpochGate(t *testing.T) {
	const perEpoch = 900
	g, _ := smallOutageGenerator(t, perEpoch)
	wcfg := window.Config{Ticks: 4, TicksPerEpoch: 4}
	gapEpoch := epoch.Index(3) // inside the outage [2, 5)

	run := func(streaming bool) ([]Alert, int, int) {
		var alerts []Alert
		d, err := NewDetector(detectorConfig(perEpoch), func(a Alert) { alerts = append(alerts, a) })
		if err != nil {
			t.Fatal(err)
		}
		d.MinEpochSessions = 50
		if streaming {
			if err := d.Streaming(StreamConfig{Window: wcfg}); err != nil {
				t.Fatal(err)
			}
		}
		trace := g.Config().Trace
		for e := trace.Start; e < trace.End; e++ {
			if e == gapEpoch {
				// Starve the epoch: no sessions. The streaming path's window
				// still slides through its ticks when the next epoch's
				// sessions arrive (AddAt seals the gap ticks as empty).
				continue
			}
			batch := g.EpochSessions(e)
			for tk, idxs := range tickOrder(batch, wcfg.TicksPerEpoch) {
				gtick := wcfg.StartTick(e) + window.Tick(tk)
				for _, i := range idxs {
					if streaming {
						if err := d.AddAt(gtick, &batch[i]); err != nil {
							t.Fatal(err)
						}
					} else if err := d.Add(&batch[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		return alerts, d.Epochs, d.GapEpochs
	}

	sAlerts, sEpochs, sGaps := run(true)
	bAlerts, _, _ := run(false)
	if sGaps != 1 {
		t.Fatalf("streaming GapEpochs = %d, want 1", sGaps)
	}
	if sEpochs != g.Config().Trace.Len() {
		t.Fatalf("streaming Epochs = %d, want %d", sEpochs, g.Config().Trace.Len())
	}
	// Batch mode never saw the gap epoch close as empty (its next session
	// closes it), so compare only that no spurious resolve/re-new pair
	// appears around the gap in the streaming stream.
	for _, a := range sAlerts {
		if a.Kind == AlertResolved && a.Epoch == gapEpoch {
			t.Fatalf("spurious resolve off the starved epoch: %+v", a)
		}
	}
	if len(sAlerts) == 0 || len(bAlerts) == 0 {
		t.Fatal("gap-gate runs produced no alerts")
	}
}
