// Package online turns the paper's offline reactive analysis (§5.3) into an
// operational streaming detector: sessions arrive in epoch order (from a
// heartbeat collector or a trace), each completed epoch is clustered and
// searched for critical clusters, and the detector emits alerts as problem
// events begin, persist past the one-hour reaction threshold, and resolve.
//
// The paper's observation that >50% of problem events last two hours or
// more is exactly what makes this useful: a `Continuing` alert (streak ≥ 2)
// arrives while most of the event is still ahead.
package online

import (
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/window"
)

// AlertKind classifies an alert.
type AlertKind uint8

// Alert kinds.
const (
	// AlertNew fires the first epoch a key is critical (detection).
	AlertNew AlertKind = iota
	// AlertContinuing fires on every subsequent consecutive epoch — the
	// paper's reactive strategy acts on these (streak ≥ 2).
	AlertContinuing
	// AlertResolved fires when a previously critical key is no longer
	// critical.
	AlertResolved
)

var alertKindNames = []string{"NEW", "CONTINUING", "RESOLVED"}

// String returns the alert kind label.
func (k AlertKind) String() string {
	if int(k) < len(alertKindNames) {
		return alertKindNames[k]
	}
	return fmt.Sprintf("AlertKind(%d)", uint8(k))
}

// Alert is one detector emission.
type Alert struct {
	Epoch  epoch.Index
	Metric metric.Metric
	Key    attr.Key
	Kind   AlertKind
	// StreakHours counts consecutive critical epochs including this one
	// (for Resolved: the length of the streak that just ended).
	StreakHours int
	// Ratio, Sessions, and AttributedProblems snapshot the cluster at this
	// epoch (zero for Resolved).
	Ratio              float64
	Sessions           int32
	AttributedProblems float64
}

// Actionable reports whether the paper's reactive strategy would act on
// this alert (the event has persisted past its first hour).
func (a Alert) Actionable() bool {
	return a.Kind == AlertContinuing && a.StreakHours >= 2
}

// Detector consumes an epoch-ordered session stream.
type Detector struct {
	cfg  core.Config
	emit func(Alert)

	cur     epoch.Index
	started bool
	buf     []cluster.Lite

	// win, when non-nil, is the sub-epoch sliding window the Streaming mode
	// maintains incrementally; sessions then arrive through AddAt and every
	// sealed tick re-evaluates the window (see streaming.go).
	win      *window.Engine
	wcfg     window.Config
	tickEmit func(TickAlert)

	// MinEpochSessions gates epoch evaluation: an epoch closing with fewer
	// sessions is treated as an ingestion gap (collector restart, shed
	// load), not as ground truth. Gap epochs emit no alerts and freeze
	// streak state — an outage spanning a gap neither resolves spuriously
	// nor restarts its streak from zero. Zero disables the gate.
	MinEpochSessions int

	streaks     [metric.NumMetrics]map[attr.Key]int
	tickStreaks [metric.NumMetrics]map[attr.Key]int

	// Epochs counts completed epochs; Alerts counts emissions; GapEpochs
	// counts the subset of epochs skipped by the MinEpochSessions gate.
	// Ticks and TickAlerts count the streaming mode's sealed sub-buckets
	// and tick-level emissions.
	Epochs     int
	Alerts     int
	GapEpochs  int
	Ticks      int
	TickAlerts int
}

// NewDetector builds a detector delivering alerts to emit in a
// deterministic order per epoch (metric, then key).
func NewDetector(cfg core.Config, emit func(Alert)) (*Detector, error) {
	if err := cfg.Thresholds.Validate(); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	d := &Detector{cfg: cfg, emit: emit}
	for m := range d.streaks {
		d.streaks[m] = make(map[attr.Key]int)
	}
	return d, nil
}

// Add consumes one session. Sessions must arrive in non-decreasing epoch
// order; a new epoch closes and evaluates the previous one.
func (d *Detector) Add(s *session.Session) error {
	if d.win != nil {
		return fmt.Errorf("online: Add cannot mix with Streaming mode (use AddAt)")
	}
	if d.started && s.Epoch < d.cur {
		return fmt.Errorf("online: session for epoch %d after epoch %d", s.Epoch, d.cur)
	}
	if !d.started {
		d.started = true
		d.cur = s.Epoch
	}
	if s.Epoch > d.cur {
		if err := d.closeEpoch(); err != nil {
			return err
		}
		d.cur = s.Epoch
	}
	d.buf = append(d.buf, cluster.Digest(s, d.cfg.Thresholds))
	return nil
}

// Flush evaluates the in-progress epoch (end of stream).
func (d *Detector) Flush() error {
	if d.win != nil {
		// Streaming: seal the in-progress tick (if it holds sessions),
		// evaluate it, and release the window's storage back to the pool.
		if d.started && d.win.Pending() > 0 {
			sealed, err := d.win.Advance()
			if err != nil {
				return err
			}
			if err := d.evalTick(sealed); err != nil {
				return err
			}
		}
		d.win.Close()
		d.win = nil
		return nil
	}
	if d.started && len(d.buf) > 0 {
		return d.closeEpoch()
	}
	return nil
}

func (d *Detector) closeEpoch() error {
	err := d.evalEpoch(d.cur, d.buf)
	d.buf = d.buf[:0]
	return err
}

// evalEpoch runs the gate, analysis, and alerting for one completed epoch.
func (d *Detector) evalEpoch(e epoch.Index, lites []cluster.Lite) error {
	if d.MinEpochSessions > 0 && len(lites) < d.MinEpochSessions {
		// Degraded epoch: too few sessions to trust. Skip evaluation
		// entirely — emitting "resolved" off a starved epoch would be a
		// measurement artifact, exactly the failure mode the fault-tolerant
		// ingestion path is built to avoid.
		d.Epochs++
		d.GapEpochs++
		return nil
	}
	res, err := core.AnalyzeEpoch(e, lites, d.cfg)
	if err != nil {
		return err
	}
	d.Epochs++
	d.applyResult(e, res)
	return nil
}

// ObserveResult feeds the detector one already-analysed epoch — the
// aggregator's path, where sessions were assembled and analysed centrally
// and the detector must not re-digest them. Epochs must arrive in strictly
// increasing order, and the session entry points (Add, Streaming/AddAt)
// must not be mixed with this one. A degraded epoch (coverage loss) or one
// below MinEpochSessions freezes streak state exactly like the streaming
// gate: res may then be nil, no alerts fire, and GapEpochs counts it. A
// healthy epoch requires res.
func (d *Detector) ObserveResult(e epoch.Index, res *core.EpochResult, sessions int, degraded bool) error {
	if len(d.buf) > 0 || d.win != nil {
		return fmt.Errorf("online: ObserveResult cannot mix with Add or Streaming")
	}
	if d.started && e <= d.cur {
		return fmt.Errorf("online: result for epoch %d after epoch %d", e, d.cur)
	}
	gated := degraded || (d.MinEpochSessions > 0 && sessions < d.MinEpochSessions)
	if !gated && res == nil {
		return fmt.Errorf("online: healthy epoch %d observed without a result", e)
	}
	d.started = true
	d.cur = e
	d.Epochs++
	if gated {
		// Same reasoning as the streaming gate: a starved or
		// degraded-coverage epoch is an ingestion artifact, not ground
		// truth. Freeze streaks; never resolve off it.
		d.GapEpochs++
		return nil
	}
	d.applyResult(e, res)
	return nil
}

// applyResult updates streaks and emits this epoch's alerts from an
// analysis result. Shared verbatim between the streaming path (evalEpoch)
// and the aggregator path (ObserveResult).
func (d *Detector) applyResult(e epoch.Index, res *core.EpochResult) {
	for _, m := range metric.All() {
		ms := &res.Metrics[m]
		now := make(map[attr.Key]*core.CriticalSummary, len(ms.Critical))
		for i := range ms.Critical {
			now[ms.Critical[i].Key] = &ms.Critical[i]
		}

		// Deterministic emission order.
		keys := make([]attr.Key, 0, len(now)+len(d.streaks[m]))
		for k := range now {
			keys = append(keys, k)
		}
		for k := range d.streaks[m] {
			if _, ok := now[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })

		for _, k := range keys {
			cs, active := now[k]
			prev := d.streaks[m][k]
			switch {
			case active && prev == 0:
				d.streaks[m][k] = 1
				d.send(Alert{
					Epoch: e, Metric: m, Key: k, Kind: AlertNew, StreakHours: 1,
					Ratio: cs.Ratio, Sessions: cs.Sessions, AttributedProblems: cs.AttributedProblems,
				})
			case active:
				d.streaks[m][k] = prev + 1
				d.send(Alert{
					Epoch: e, Metric: m, Key: k, Kind: AlertContinuing, StreakHours: prev + 1,
					Ratio: cs.Ratio, Sessions: cs.Sessions, AttributedProblems: cs.AttributedProblems,
				})
			default:
				delete(d.streaks[m], k)
				d.send(Alert{
					Epoch: e, Metric: m, Key: k, Kind: AlertResolved, StreakHours: prev,
				})
			}
		}
	}
}

func (d *Detector) send(a Alert) {
	d.Alerts++
	if d.emit != nil {
		d.emit(a)
	}
}
