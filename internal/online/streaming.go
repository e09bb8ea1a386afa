package online

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/window"
)

// TickAlert is one sub-epoch detector emission: the streaming mode's
// per-tick counterpart of Alert. Tick streaks advance once per sub-bucket
// tick (one minute at the default geometry), so a problem event surfaces as
// an AlertNew within minutes of its sessions entering the window instead of
// at the next epoch boundary.
type TickAlert struct {
	Tick   window.Tick
	Epoch  epoch.Index
	Metric metric.Metric
	Key    attr.Key
	Kind   AlertKind
	// StreakTicks counts consecutive critical ticks including this one
	// (for Resolved: the length of the streak that just ended).
	StreakTicks int
	// Ratio, Sessions, and AttributedProblems snapshot the cluster over the
	// sliding window at this tick (zero for Resolved).
	Ratio              float64
	Sessions           int32
	AttributedProblems float64
}

// StreamConfig parameterises the detector's sub-epoch streaming mode.
type StreamConfig struct {
	// Window fixes the sliding-window geometry. Streaming requires
	// Ticks == TicksPerEpoch so that at every epoch boundary the window
	// holds exactly the completed epoch — the invariant behind the
	// batch-identity guarantee.
	Window window.Config
	// TickEmit receives the per-tick alert stream (may be nil). It is
	// called synchronously from AddAt/Flush in deterministic order per
	// tick (metric, then key).
	TickEmit func(TickAlert)
}

// Streaming switches the detector to incremental sub-epoch operation: each
// session lands in a per-tick sub-bucket of a sliding window
// (window.Engine), every tick re-evaluates the window's problem/critical
// clusters against the same core.Config as the batch path, and tick-level
// alert streaks stream out through cfg.TickEmit. At every full-epoch
// boundary the window holds exactly the closed epoch, so the detector
// additionally applies the ordinary epoch-level streak update — the Alert
// stream and streak state are then byte-identical to the batch detector fed
// the same sessions in the same order.
//
// Must be called once, before the first session; it cannot be combined
// with Add or ObserveResult. Sessions are fed with AddAt, not Add.
func (d *Detector) Streaming(cfg StreamConfig) error {
	if d.mode != modeUnset {
		return fmt.Errorf("online: Streaming must be configured once, before the first session")
	}
	if err := cfg.Window.Validate(); err != nil {
		return fmt.Errorf("online: %w", err)
	}
	if cfg.Window.Ticks != cfg.Window.TicksPerEpoch {
		return fmt.Errorf("online: Streaming requires Ticks == TicksPerEpoch for epoch-boundary identity (got window %d, epoch %d)",
			cfg.Window.Ticks, cfg.Window.TicksPerEpoch)
	}
	eng, err := window.New(cfg.Window)
	if err != nil {
		return fmt.Errorf("online: %w", err)
	}
	d.mode = modeStreaming
	d.win = eng
	d.wcfg = cfg.Window
	d.tickEmit = cfg.TickEmit
	for m := range d.tickStreaks {
		d.tickStreaks[m] = make(map[attr.Key]int)
	}
	return nil
}

// AddAt consumes one session at sub-epoch tick t (derive t from the
// session's heartbeat timestamp, or window.SubTick when the trace carries
// only the epoch — never from the wall clock). Ticks must be non-decreasing;
// advancing to a later tick seals and evaluates every tick in between,
// empty ones included.
func (d *Detector) AddAt(t window.Tick, s *session.Session) error {
	if d.win == nil {
		return fmt.Errorf("online: AddAt requires Streaming mode")
	}
	if got, want := d.wcfg.EpochOf(t), s.Epoch; got != want {
		return fmt.Errorf("online: tick %d is in epoch %d, session says %d", t, got, want)
	}
	if !d.started {
		d.started = true
		// Open the window at the first session's epoch start, so the first
		// epoch boundary already covers a whole epoch.
		if err := d.win.Start(d.wcfg.StartTick(d.wcfg.EpochOf(t))); err != nil {
			return err
		}
	}
	if t < d.win.Tick() {
		return fmt.Errorf("online: session for tick %d after tick %d", t, d.win.Tick())
	}
	if t > d.win.Tick() {
		if err := d.win.AdvanceTo(t, d.evalTick); err != nil {
			return err
		}
	}
	return d.win.Observe(cluster.Digest(s, d.cfg.Thresholds))
}

// evalTick analyses the window after tick sealed entered it: one
// AnalyzeEpochTable over the incrementally maintained snapshot (O(window
// cardinality), no table rebuild), tick-level streak/alert update, and — at
// an epoch boundary — the batch-identical epoch-level update.
func (d *Detector) evalTick(sealed window.Tick) error {
	snap, err := d.win.Snapshot()
	if err != nil {
		return err
	}
	res, err := core.AnalyzeEpochTable(snap, d.cfg)
	if err != nil {
		return err
	}
	d.Ticks++
	e := d.wcfg.EpochOf(sealed)
	step(&d.tickStreaks, res, func(m metric.Metric, k attr.Key, kind AlertKind, streak int, cs *core.CriticalSummary) {
		d.TickAlerts++
		if d.tickEmit != nil {
			d.tickEmit(TickAlert{
				Tick: sealed, Epoch: e, Metric: m, Key: k, Kind: kind, StreakTicks: streak,
				Ratio: cs.Ratio, Sessions: cs.Sessions, AttributedProblems: cs.AttributedProblems,
			})
		}
	})
	if d.wcfg.EpochBoundary(sealed) {
		// The same gate as the batch path: a starved epoch freezes
		// epoch-level streaks (tick-level streaks already reflect whatever
		// sessions did arrive).
		if d.starved(len(snap.Sessions)) {
			res = nil
		}
		d.observe(snap.Epoch, res)
	}
	return nil
}
