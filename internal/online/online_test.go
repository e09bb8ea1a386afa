package online

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/events"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/synth"
)

func detectorConfig(perEpoch int) core.Config { return core.DefaultConfig(perEpoch) }

// outageGenerator builds a small trace with one injected buffering outage
// at a popular ASN over epochs [4, 9).
func outageGenerator(t *testing.T) (*synth.Generator, attr.Key, epoch.Range) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Trace = epoch.Range{Start: 0, End: 12}
	cfg.SessionsPerEpoch = 2500
	cfg.Events.Trace = cfg.Trace
	// Quiet background so the outage detection is unambiguous.
	cfg.Events.DisableChronic = true
	cfg.Events.DisableEpisodic = true
	anchor := attr.NewKey(map[attr.Dim]int32{attr.ASN: 0})
	outage := epoch.Range{Start: 4, End: 9}
	cfg.Events.Extra = []events.Event{{
		Metric: metric.BufRatio, Anchor: anchor, Severity: 0.6,
		Intervals: []epoch.Range{outage}, Tag: "test-outage",
	}}
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, anchor, outage
}

func TestDetectorAlertsOnOutage(t *testing.T) {
	g, anchor, outage := outageGenerator(t)
	var alerts []Alert
	d, err := NewDetector(detectorConfig(2500), func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ForEach(d.Add); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Epochs != 12 {
		t.Fatalf("epochs processed = %d", d.Epochs)
	}

	var sawNew, sawActionable, sawResolved bool
	for _, a := range alerts {
		if a.Metric != metric.BufRatio || a.Key != anchor {
			continue
		}
		switch a.Kind {
		case AlertNew:
			sawNew = true
			if a.Epoch != outage.Start {
				t.Errorf("NEW alert at epoch %d, want %d", a.Epoch, outage.Start)
			}
			if a.Ratio <= 0 || a.Sessions <= 0 {
				t.Errorf("NEW alert snapshot empty: %+v", a)
			}
		case AlertContinuing:
			if a.Actionable() {
				sawActionable = true
			}
			if !outage.Contains(a.Epoch) {
				t.Errorf("CONTINUING alert outside the outage: epoch %d", a.Epoch)
			}
		case AlertResolved:
			sawResolved = true
			if a.Epoch != outage.End {
				t.Errorf("RESOLVED at epoch %d, want %d", a.Epoch, outage.End)
			}
			if a.StreakHours != outage.Len() {
				t.Errorf("resolved streak = %d, want %d", a.StreakHours, outage.Len())
			}
		}
	}
	if !sawNew || !sawActionable || !sawResolved {
		t.Errorf("alert lifecycle incomplete: new=%v actionable=%v resolved=%v (%d alerts)",
			sawNew, sawActionable, sawResolved, len(alerts))
	}
}

// TestDetectorToleratesGapEpochs starves one epoch in the middle of an
// outage (as a collector restart or load shedding would) and checks the
// degraded-epoch gate: the gap emits nothing, the outage streak survives it
// instead of spuriously resolving and re-detecting, and the gap is counted.
func TestDetectorToleratesGapEpochs(t *testing.T) {
	g, anchor, outage := outageGenerator(t)
	gapEpoch := epoch.Index(6) // strictly inside [4, 9)

	var alerts []Alert
	d, err := NewDetector(detectorConfig(2500), func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	d.MinEpochSessions = 100

	// Deliver the trace with the gap epoch starved down to a handful of
	// sessions — below the gate, above zero (the epoch still "exists").
	kept := 0
	if err := g.ForEach(func(s *session.Session) error {
		if s.Epoch == gapEpoch {
			if kept >= 10 {
				return nil
			}
			kept++
		}
		return d.Add(s)
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Epochs != 12 || d.GapEpochs != 1 {
		t.Fatalf("epochs = %d, gap epochs = %d; want 12 and 1", d.Epochs, d.GapEpochs)
	}

	var news, resolves []Alert
	for _, a := range alerts {
		if a.Epoch == gapEpoch {
			t.Fatalf("gap epoch emitted an alert: %+v", a)
		}
		if a.Metric != metric.BufRatio || a.Key != anchor {
			continue
		}
		switch a.Kind {
		case AlertNew:
			news = append(news, a)
		case AlertResolved:
			resolves = append(resolves, a)
		}
	}
	if len(news) != 1 || news[0].Epoch != outage.Start {
		t.Fatalf("outage detected %d times (%+v); the gap must not restart the streak", len(news), news)
	}
	if len(resolves) != 1 || resolves[0].Epoch != outage.End {
		t.Fatalf("outage resolved %d times (%+v); want once at epoch %d", len(resolves), resolves, outage.End)
	}
	// The streak spans the outage minus the frozen gap epoch.
	if want := outage.Len() - 1; resolves[0].StreakHours != want {
		t.Fatalf("resolved streak = %d, want %d (gap epoch frozen, not counted)", resolves[0].StreakHours, want)
	}
}

func TestDetectorOrderingError(t *testing.T) {
	d, err := NewDetector(detectorConfig(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := session.Session{Epoch: 5, EventIDs: session.NoEvents}
	s0 := session.Session{Epoch: 4, EventIDs: session.NoEvents}
	if err := d.Add(&s1); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&s0); err == nil {
		t.Error("out-of-order session accepted")
	}
}

func TestDetectorEmptyFlush(t *testing.T) {
	d, err := NewDetector(detectorConfig(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Error("empty flush should be a no-op")
	}
	if d.Epochs != 0 {
		t.Error("no epochs should have closed")
	}
}

func TestDetectorInvalidConfig(t *testing.T) {
	cfg := detectorConfig(100)
	cfg.Thresholds.ProblemRatioFactor = 0.1
	if _, err := NewDetector(cfg, nil); err == nil {
		t.Error("invalid thresholds accepted")
	}
}

func TestAlertKindString(t *testing.T) {
	if AlertNew.String() != "NEW" || AlertResolved.String() != "RESOLVED" {
		t.Error("alert kind names wrong")
	}
	if AlertKind(9).String() == "" {
		t.Error("unknown kind should not be empty")
	}
	a := Alert{Kind: AlertContinuing, StreakHours: 1}
	if a.Actionable() {
		t.Error("streak of 1 must not be actionable")
	}
}

// TestDetectorMatchesOffline: the streaming detector must reach the same
// per-epoch critical sets as the offline analyser.
func TestDetectorMatchesOffline(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Trace = epoch.Range{Start: 0, End: 6}
	cfg.SessionsPerEpoch = 1500
	cfg.Events.Trace = cfg.Trace
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := detectorConfig(1500)

	offline, err := core.AnalyzeGenerator(g, ccfg)
	if err != nil {
		t.Fatal(err)
	}

	type em struct {
		e epoch.Index
		m metric.Metric
	}
	online := make(map[em]map[attr.Key]bool)
	d, err := NewDetector(ccfg, func(a Alert) {
		if a.Kind == AlertResolved {
			return
		}
		k := em{a.Epoch, a.Metric}
		if online[k] == nil {
			online[k] = make(map[attr.Key]bool)
		}
		online[k][a.Key] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ForEach(d.Add); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	for i := range offline.Epochs {
		er := &offline.Epochs[i]
		for _, m := range metric.All() {
			want := er.Metrics[m].CriticalSet()
			got := online[em{er.Epoch, m}]
			if len(want) != len(got) {
				t.Fatalf("epoch %d %v: online %d keys vs offline %d", er.Epoch, m, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("epoch %d %v: offline key %v missing online", er.Epoch, m, k)
				}
			}
		}
	}
}

// TestObserveResultMatchesStreaming proves the aggregator entry point is the
// same detector: feeding per-epoch analysis results through ObserveResult —
// with one mid-outage epoch marked degraded — produces exactly the alert
// stream the streaming path produces with that epoch starved below the gate,
// including the frozen (not resolved, not restarted) streak across the gap.
func TestObserveResultMatchesStreaming(t *testing.T) {
	g, _, _ := outageGenerator(t)
	gapEpoch := epoch.Index(6)

	// Reference: the streaming detector with the gap epoch starved.
	var want []Alert
	ref, err := NewDetector(detectorConfig(2500), func(a Alert) { want = append(want, a) })
	if err != nil {
		t.Fatal(err)
	}
	ref.MinEpochSessions = 100
	kept := 0
	if err := g.ForEach(func(s *session.Session) error {
		if s.Epoch == gapEpoch {
			if kept >= 10 {
				return nil
			}
			kept++
		}
		return ref.Add(s)
	}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	// Aggregator path: analyse each epoch centrally, observe the results.
	var got []Alert
	d, err := NewDetector(detectorConfig(2500), func(a Alert) { got = append(got, a) })
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _ := outageGenerator(t)
	cfg := detectorConfig(2500)
	err = g2.ForEachEpoch(1, func(e epoch.Index, batch []session.Session) error {
		if e == gapEpoch {
			// The aggregator saw shed/lost coverage here: no result at all.
			return d.ObserveResult(e, nil)
		}
		lites := make([]cluster.Lite, len(batch))
		for i := range batch {
			lites[i] = cluster.Digest(&batch[i], cfg.Thresholds)
		}
		res, err := core.AnalyzeEpoch(e, lites, cfg)
		if err != nil {
			return err
		}
		return d.ObserveResult(e, res)
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("ObserveResult path emitted %d alerts, streaming path %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("alert %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if d.Epochs != ref.Epochs || d.GapEpochs != ref.GapEpochs || d.Alerts != ref.Alerts {
		t.Fatalf("counters %d/%d/%d, want %d/%d/%d",
			d.Epochs, d.GapEpochs, d.Alerts, ref.Epochs, ref.GapEpochs, ref.Alerts)
	}
	if d.GapEpochs != 1 {
		t.Fatalf("gap epochs = %d, want 1", d.GapEpochs)
	}
}

// TestObserveResultGuards pins the entry point's misuse errors: mixing with
// the session paths in either order, and out-of-order epochs.
func TestObserveResultGuards(t *testing.T) {
	d, err := NewDetector(detectorConfig(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ObserveResult(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.ObserveResult(3, nil); err == nil {
		t.Fatal("replayed epoch accepted")
	}
	if err := d.ObserveResult(2, nil); err == nil {
		t.Fatal("out-of-order epoch accepted")
	}
	if d.GapEpochs != 1 {
		t.Fatalf("gap epochs = %d, want 1", d.GapEpochs)
	}
	if err := d.Add(&session.Session{Epoch: 4, EventIDs: session.NoEvents}); err == nil {
		t.Fatal("Add accepted after ObserveResult")
	}

	s, err := NewDetector(detectorConfig(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&session.Session{Epoch: 1, EventIDs: session.NoEvents}); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveResult(2, nil); err == nil {
		t.Fatal("ObserveResult accepted while streaming sessions are buffered")
	}
}
