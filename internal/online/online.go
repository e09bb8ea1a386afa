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

// mode is the entry point a detector was fixed to by its first call.
type mode uint8

const (
	modeUnset     mode = iota
	modeAdd            // sessions through Add
	modeStreaming      // sessions through Streaming and AddAt
	modeResults        // analysed epochs through ObserveResult
)

var modeNames = [...]string{"", "Add", "Streaming", "ObserveResult"}

// Detector consumes an epoch-ordered session stream, or the results of
// epochs analysed elsewhere. Every entry point ends an epoch in observe,
// and every streak, epoch or tick, advances by the one rule in step.
type Detector struct {
	cfg  core.Config
	emit func(Alert)
	mode mode

	cur     epoch.Index
	started bool
	buf     []cluster.Lite

	// win, when non-nil, is the sub-epoch sliding window the Streaming mode
	// maintains incrementally; sessions then arrive through AddAt and every
	// sealed tick re-evaluates the window (see streaming.go).
	win      *window.Engine
	wcfg     window.Config
	tickEmit func(TickAlert)

	// MinEpochSessions gates epoch evaluation on the session-fed paths (Add
	// and AddAt): an epoch closing with fewer sessions is treated as an
	// ingestion gap (collector restart, shed load), not as ground truth.
	// ObserveResult's caller makes that call itself and passes a nil
	// result. Zero disables the gate.
	MinEpochSessions int

	streaks     [metric.NumMetrics]map[attr.Key]int
	tickStreaks [metric.NumMetrics]map[attr.Key]int

	// Epochs counts completed epochs; Alerts counts emissions; GapEpochs
	// counts the subset of epochs frozen as ingestion gaps. Ticks and
	// TickAlerts count the streaming mode's sealed sub-buckets and
	// tick-level emissions.
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

// enter fixes the detector to mode m on its first call and rejects any
// other mode afterwards.
func (d *Detector) enter(m mode) error {
	if d.mode == modeUnset {
		d.mode = m
	}
	if d.mode != m {
		return fmt.Errorf("online: %s cannot mix with %s", modeNames[m], modeNames[d.mode])
	}
	return nil
}

// starved reports whether an epoch of n sessions is too small to trust.
// Evaluating it — emitting "resolved" off a starved epoch — would report a
// measurement artifact, exactly the failure mode the fault-tolerant
// ingestion path is built to avoid.
func (d *Detector) starved(n int) bool {
	return d.MinEpochSessions > 0 && n < d.MinEpochSessions
}

// Add consumes one session. Sessions must arrive in non-decreasing epoch
// order; a new epoch closes and evaluates the previous one.
func (d *Detector) Add(s *session.Session) error {
	if err := d.enter(modeAdd); err != nil {
		return err
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

// closeEpoch analyses the buffered epoch, unless it is starved, and
// observes it.
func (d *Detector) closeEpoch() error {
	var res *core.EpochResult
	var err error
	if !d.starved(len(d.buf)) {
		res, err = core.AnalyzeEpoch(d.cur, d.buf, d.cfg)
	}
	d.buf = d.buf[:0]
	if err != nil {
		return err
	}
	d.observe(d.cur, res)
	return nil
}

// ObserveResult feeds the detector one already-analysed epoch — the
// aggregator's path, where sessions were assembled and analysed centrally
// and the detector must not re-digest them. Epochs must arrive in strictly
// increasing order, and no other entry point may be mixed with this one.
// A nil res marks an epoch the caller froze (degraded coverage, too few
// sessions): it counts as a gap, fires no alerts and leaves streaks as
// they were.
func (d *Detector) ObserveResult(e epoch.Index, res *core.EpochResult) error {
	if err := d.enter(modeResults); err != nil {
		return err
	}
	if d.started && e <= d.cur {
		return fmt.Errorf("online: result for epoch %d after epoch %d", e, d.cur)
	}
	d.started = true
	d.cur = e
	d.observe(e, res)
	return nil
}

// observe ends epoch e for every entry point. A nil res is an ingestion
// gap: it is counted, and the epoch streaks freeze — an outage spanning a
// gap neither resolves spuriously nor restarts its streak from zero.
func (d *Detector) observe(e epoch.Index, res *core.EpochResult) {
	d.Epochs++
	if res == nil {
		d.GapEpochs++
		return
	}
	step(&d.streaks, res, func(m metric.Metric, k attr.Key, kind AlertKind, streak int, cs *core.CriticalSummary) {
		d.Alerts++
		if d.emit != nil {
			d.emit(Alert{
				Epoch: e, Metric: m, Key: k, Kind: kind, StreakHours: streak,
				Ratio: cs.Ratio, Sessions: cs.Sessions, AttributedProblems: cs.AttributedProblems,
			})
		}
	})
}

// step advances one set of streaks by res and fires each change in a
// deterministic order (metric, then key): New when a key turns critical,
// Continuing while it stays so, Resolved — with the ended streak's length
// and a zero cluster snapshot — when it stops.
func step(streaks *[metric.NumMetrics]map[attr.Key]int, res *core.EpochResult,
	fire func(m metric.Metric, k attr.Key, kind AlertKind, streak int, cs *core.CriticalSummary)) {
	var resolved core.CriticalSummary
	for _, m := range metric.All() {
		ms := &res.Metrics[m]
		now := make(map[attr.Key]*core.CriticalSummary, len(ms.Critical))
		for i := range ms.Critical {
			now[ms.Critical[i].Key] = &ms.Critical[i]
		}
		keys := make([]attr.Key, 0, len(now)+len(streaks[m]))
		for k := range now {
			keys = append(keys, k)
		}
		for k := range streaks[m] {
			if _, ok := now[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })

		for _, k := range keys {
			cs, active := now[k]
			prev := streaks[m][k]
			switch {
			case active && prev == 0:
				streaks[m][k] = 1
				fire(m, k, AlertNew, 1, cs)
			case active:
				streaks[m][k] = prev + 1
				fire(m, k, AlertContinuing, prev+1, cs)
			default:
				delete(streaks[m], k)
				fire(m, k, AlertResolved, prev, &resolved)
			}
		}
	}
}
