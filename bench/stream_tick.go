package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/online"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/window"
)

// composedTickKey carries the traced run's per-tick cost of the composed
// calls out of run; it is not a reported metric.
const composedTickKey = "_composed_tick_ms_p50"

// streamTick is minute-level detection: an in-process streaming detector
// fed in tick order. The tick clock is session order, never wall time.
// Closed loop, 1 client.
type streamTick struct {
	env
	gen *synth.Generator
	cfg core.Config
	// ticks[t] holds the sessions of tick first+t in feeding order, first
	// being the first tick of the seed's window. The first epoch's ticks
	// fill the window during set-up; the timed section feeds the rest.
	first window.Tick
	ticks [][]session.Session

	det        *online.Detector
	alerts     []online.Alert
	tickAlerts []online.TickAlert
}

func (w *streamTick) setup() error {
	total := ticksPerEpoch + w.sz.TickTicks
	epochs := (total + ticksPerEpoch - 1) / ticksPerEpoch
	gen, err := newGenerator(w.seed, epochs, w.sz.TickSessions)
	if err != nil {
		return err
	}
	w.gen = gen
	start := gen.Config().Trace.Start
	w.first = window.DefaultConfig().StartTick(start)
	w.cfg = core.DefaultConfig(w.sz.TickSessions)
	w.ticks = make([][]session.Session, epochs*ticksPerEpoch)
	for e := 0; e < epochs; e++ {
		for _, s := range gen.EpochSessions(start + epoch.Index(e)) {
			t := e*ticksPerEpoch + window.SubTick(s.ID, ticksPerEpoch)
			w.ticks[t] = append(w.ticks[t], s)
		}
	}
	w.ticks = w.ticks[:total]

	w.det, err = online.NewDetector(w.cfg, func(a online.Alert) { w.alerts = append(w.alerts, a) })
	if err != nil {
		return err
	}
	err = w.det.Streaming(online.StreamConfig{
		Window:   window.DefaultConfig(),
		TickEmit: func(a online.TickAlert) { w.tickAlerts = append(w.tickAlerts, a) },
	})
	if err != nil {
		return err
	}
	// One untimed epoch fills the window.
	for t := 0; t < ticksPerEpoch; t++ {
		for i := range w.ticks[t] {
			if err := w.det.AddAt(w.first+window.Tick(t), &w.ticks[t][i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *streamTick) run(tr *tracer) (*outcome, error) {
	if tr != nil {
		return w.runComposed(tr)
	}
	out := &outcome{layer: values{}}
	start := time.Now()
	for t := ticksPerEpoch; t < len(w.ticks); t++ {
		batch := w.ticks[t]
		if len(batch) == 0 {
			return nil, fmt.Errorf("stream-tick: tick %d has no sessions", t)
		}
		// The first session of a tick seals the tick before it: that call
		// evaluates the window and emits the sealed tick's alerts.
		sealing := time.Now()
		if err := w.det.AddAt(w.first+window.Tick(t), &batch[0]); err != nil {
			return nil, err
		}
		sealed := ms(time.Since(sealing))
		for i := 1; i < len(batch); i++ {
			if err := w.det.AddAt(w.first+window.Tick(t), &batch[i]); err != nil {
				return nil, err
			}
		}
		out.units = append(out.units, resultUnit{len(batch), ms(time.Since(sealing)), sealed})
		out.offered += len(batch)
	}
	sealing := time.Now()
	if err := w.det.Flush(); err != nil {
		return nil, err
	}
	sealed := ms(time.Since(sealing))
	out.units = append(out.units, resultUnit{0, sealed, sealed})
	out.wall = time.Since(start)
	out.analysed = out.offered

	dig := newDigester()
	for _, a := range w.alerts {
		dig.alert(a)
	}
	for _, a := range w.tickAlerts {
		dig.tickAlert(a)
	}
	out.digest = dig.sum()
	out.layer["online.alerts"] = float64(w.det.Alerts)
	out.layer["online.tick_alerts"] = float64(w.det.TickAlerts)
	out.layer["online.gap_epochs"] = float64(w.det.GapEpochs)
	return out, nil
}

// runComposed drives the same ticks through the public calls Detector.AddAt
// makes, with a span around each: digest, observe, advance, snapshot and
// the table analysis. What AddAt adds on top (streaks and alerts) is not a
// public call; the traced run's tick is the untraced one minus that.
func (w *streamTick) runComposed(tr *tracer) (*outcome, error) {
	out := &outcome{layer: values{}}
	eng, err := window.New(window.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.Start(w.first); err != nil {
		return nil, err
	}
	th := w.cfg.Thresholds
	for t := 0; t < ticksPerEpoch; t++ {
		if t > 0 {
			if _, err := eng.Advance(); err != nil {
				return nil, err
			}
		}
		for i := range w.ticks[t] {
			if err := eng.Observe(cluster.Digest(&w.ticks[t][i], th)); err != nil {
				return nil, err
			}
		}
	}

	dig := newDigester()
	var composed []float64
	evaluate := func(parent int) error {
		start := time.Now()
		sp := tr.begin("window.advance", parent, int64(eng.Tick()))
		sealed, err := eng.Advance()
		tr.end(sp)
		if err != nil {
			return err
		}
		unit := int64(sealed)
		sp = tr.begin("window.snapshot", parent, unit)
		snap, err := eng.Snapshot()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("core.analyze_table", parent, unit)
		res, err := core.AnalyzeEpochTable(snap, w.cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		composed = append(composed, ms(time.Since(start)))
		dig.epochResult(res)
		return nil
	}

	lites := make([]cluster.Lite, 0, 2*w.sz.TickSessions/ticksPerEpoch)
	root := tr.begin("bench.run", -1, 0)
	start := time.Now()
	for t := ticksPerEpoch; t < len(w.ticks); t++ {
		unit := int64(w.first) + int64(t)
		tick := tr.begin("bench.tick", root, unit)
		if err := evaluate(tick); err != nil {
			return nil, err
		}
		sp := tr.begin("cluster.digest", tick, unit)
		lites = lites[:0]
		for i := range w.ticks[t] {
			lites = append(lites, cluster.Digest(&w.ticks[t][i], th))
		}
		tr.end(sp)
		sp = tr.begin("window.observe", tick, unit)
		for _, l := range lites {
			if err := eng.Observe(l); err != nil {
				return nil, err
			}
		}
		tr.end(sp)
		tr.end(tick)
		out.offered += len(lites)
	}
	tick := tr.begin("bench.tick", root, int64(w.first)+int64(len(w.ticks)))
	if err := evaluate(tick); err != nil {
		return nil, err
	}
	tr.end(tick)
	out.wall = time.Since(start)
	tr.end(root)
	out.analysed = out.offered
	out.digest = dig.sum()
	out.layer[composedTickKey] = median(composed)
	return out, nil
}

// verify replays the same sessions in the same order through the batch
// detector: the epoch-level alert stream of every complete epoch must be
// the same.
func (w *streamTick) verify() error {
	var want []online.Alert
	det, err := online.NewDetector(w.cfg, func(a online.Alert) { want = append(want, a) })
	if err != nil {
		return err
	}
	for t := range w.ticks {
		for i := range w.ticks[t] {
			if err := det.Add(&w.ticks[t][i]); err != nil {
				return err
			}
		}
	}
	if err := det.Flush(); err != nil {
		return err
	}
	// The batch detector also evaluates the trailing partial epoch at
	// Flush; the streaming one applies epoch results only at boundaries.
	complete := w.gen.Config().Trace.Start + epoch.Index(len(w.ticks)/ticksPerEpoch)
	kept := want[:0]
	for _, a := range want {
		if a.Epoch < complete {
			kept = append(kept, a)
		}
	}
	same := len(kept) == len(w.alerts)
	for i := 0; same && i < len(kept); i++ {
		same = kept[i] == w.alerts[i]
	}
	if !same {
		return fmt.Errorf("stream-tick: %d streaming epoch alerts differ from the batch detector's %d", len(w.alerts), len(kept))
	}
	return nil
}

func (w *streamTick) probeEpoch() (*synth.Generator, []session.Session) {
	var first []session.Session
	for t := 0; t < ticksPerEpoch; t++ {
		first = append(first, w.ticks[t]...)
	}
	return w.gen, first
}

func (w *streamTick) close() error { return nil }
