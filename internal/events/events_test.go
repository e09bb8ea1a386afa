package events

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/stats"
	"repro/internal/world"
)

func testWorld(t *testing.T) *world.World {
	t.Helper()
	w, err := world.New(world.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func weekRange() epoch.Range { return epoch.Range{Start: 0, End: epoch.HoursPerWeek} }

func generate(t *testing.T, cfg Config) *Schedule {
	t.Helper()
	s, err := Generate(testWorld(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig(weekRange())
	a := generate(t, cfg)
	b := generate(t, cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Anchor != eb.Anchor || ea.Metric != eb.Metric || ea.Severity != eb.Severity {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestChronicEventsCoverTable3(t *testing.T) {
	cfg := DefaultConfig(weekRange())
	cfg.DisableEpisodic = true
	s := generate(t, cfg)
	tags := map[string]int{}
	for i := range s.Events {
		ev := &s.Events[i]
		if !ev.Chronic {
			t.Fatalf("episodic event generated with DisableEpisodic: %+v", ev)
		}
		hours := 0
		for _, r := range ev.Intervals {
			hours += r.Len()
		}
		if hours != weekRange().Len() {
			t.Errorf("chronic event %d active %d hours, want full trace", i, hours)
		}
		tags[ev.Tag]++
	}
	for _, want := range []string{
		"asian-isp", "single-bitrate-site", "in-house-cdn", "mobile-wireless",
		"chinese-isp-remote-player", "ugc-inhouse-cdn", "high-bitrate-site",
		"low-priority-on-global-cdn", "wireless-provider", "ugc-site",
	} {
		if tags[want] == 0 {
			t.Errorf("no chronic events with tag %q (Table 3 row missing)", want)
		}
	}
}

func TestChronicAnchorsMatchTraits(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig(weekRange())
	cfg.DisableEpisodic = true
	s, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Events {
		ev := &s.Events[i]
		switch ev.Tag {
		case "single-bitrate-site":
			id := ev.Anchor.Vals[attr.Site]
			if !w.Sites[id].SingleBitrate() {
				t.Errorf("event %d anchored at non-single-bitrate site %d", i, id)
			}
		case "wireless-provider":
			id := ev.Anchor.Vals[attr.ASN]
			if !w.ASNs[id].Wireless {
				t.Errorf("event %d anchored at non-wireless ASN %d", i, id)
			}
		case "chinese-isp-remote-player":
			id := ev.Anchor.Vals[attr.ASN]
			if w.ASNs[id].Region != world.RegionChina {
				t.Errorf("event %d anchored at non-Chinese ASN %d", i, id)
			}
		case "low-priority-on-global-cdn":
			id := ev.Anchor.Vals[attr.Site]
			if !w.Sites[id].LowPriority {
				t.Errorf("event %d anchored at non-low-priority site %d", i, id)
			}
		}
		if ev.Severity <= 0 || ev.Severity >= 1 {
			t.Errorf("event %d severity %v out of (0,1)", i, ev.Severity)
		}
	}
}

func TestEpisodicStructure(t *testing.T) {
	cfg := DefaultConfig(weekRange())
	cfg.DisableChronic = true
	s := generate(t, cfg)
	if len(s.Events) < 100 {
		t.Fatalf("only %d episodic events for a week; expected ~%v", len(s.Events), cfg.EpisodicPerWeek)
	}
	longCount := 0
	for i := range s.Events {
		ev := &s.Events[i]
		if ev.Chronic {
			t.Fatal("chronic event generated with DisableChronic")
		}
		if len(ev.Intervals) == 0 {
			t.Fatalf("event %d has no intervals", i)
		}
		prevEnd := epoch.Index(-1)
		for _, r := range ev.Intervals {
			if r.Len() < 1 {
				t.Fatalf("event %d has empty interval", i)
			}
			if r.Start < prevEnd {
				t.Fatalf("event %d has overlapping/unsorted intervals", i)
			}
			prevEnd = r.End
			if r.Start < cfg.Trace.Start || r.End > cfg.Trace.End {
				t.Fatalf("event %d interval %+v outside trace", i, r)
			}
			if r.Len() > cfg.MaxDurationHours {
				t.Fatalf("event %d interval longer than cap", i)
			}
			if r.Len() > 24 {
				longCount++
			}
		}
		if ev.Severity <= 0 || ev.Severity > cfg.SeverityMax {
			t.Fatalf("event %d severity %v outside bounds", i, ev.Severity)
		}
	}
	if longCount == 0 {
		t.Error("no >1-day intervals; the Fig. 8(b) tail needs some")
	}
}

func TestActiveAtIndex(t *testing.T) {
	cfg := DefaultConfig(weekRange())
	s := generate(t, cfg)
	// Cross-check the index against direct interval tests.
	for _, e := range []epoch.Index{0, 1, 50, 100, 167} {
		act := map[int32]bool{}
		for _, id := range s.ActiveAt(e) {
			act[id] = true
		}
		for i := range s.Events {
			ev := &s.Events[i]
			if ev.ActiveAt(e) != act[ev.ID] {
				t.Fatalf("epoch %d: index disagrees with ActiveAt for event %d", e, ev.ID)
			}
		}
	}
	if s.ActiveAt(-1) != nil || s.ActiveAt(9999) != nil {
		t.Error("ActiveAt outside trace should be nil")
	}
}

func TestMatchingSeverities(t *testing.T) {
	w := testWorld(t)
	trace := weekRange()
	s := &Schedule{trace: trace}
	anchor := attr.NewKey(map[attr.Dim]int32{attr.CDN: 3})
	s.Events = append(s.Events,
		Event{ID: 0, Metric: metric.BufRatio, Anchor: anchor, Severity: 0.5,
			Intervals: []epoch.Range{{Start: 0, End: 10}}},
		Event{ID: 1, Metric: metric.BufRatio, Anchor: anchor, Severity: 0.2,
			Intervals: []epoch.Range{{Start: 5, End: 10}}},
		Event{ID: 2, Metric: metric.JoinTime, Anchor: anchor, Severity: 0.3,
			Intervals: []epoch.Range{{Start: 0, End: 10}}},
	)
	s.buildIndex()

	v := w.SampleAttrs(stats.NewRNG(1))
	v[attr.CDN] = 3
	sev := make([]float64, metric.NumMetrics)
	matched := make([]int32, metric.NumMetrics)

	s.MatchingSeverities(v, 7, sev, matched)
	// Two BufRatio events compose: 1-(1-0.5)(1-0.2) = 0.6.
	if diff := sev[metric.BufRatio] - 0.6; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("composed severity = %v, want 0.6", sev[metric.BufRatio])
	}
	if matched[metric.BufRatio] != 0 {
		t.Errorf("matched id = %d, want 0 (most severe)", matched[metric.BufRatio])
	}
	if d := sev[metric.JoinTime] - 0.3; d > 1e-12 || d < -1e-12 || matched[metric.JoinTime] != 2 {
		t.Errorf("join time severity/match = %v/%d", sev[metric.JoinTime], matched[metric.JoinTime])
	}
	if sev[metric.Bitrate] != 0 || matched[metric.Bitrate] != -1 {
		t.Errorf("unaffected metric should be zero: %v/%d", sev[metric.Bitrate], matched[metric.Bitrate])
	}

	// Outside the interval nothing matches.
	s.MatchingSeverities(v, 20, sev, matched)
	for m := range sev {
		if sev[m] != 0 || matched[m] != -1 {
			t.Errorf("epoch 20 metric %d: severity %v, matched %d", m, sev[m], matched[m])
		}
	}

	// Non-matching attributes.
	v[attr.CDN] = 4
	s.MatchingSeverities(v, 7, sev, matched)
	if sev[metric.BufRatio] != 0 {
		t.Error("severity leaked to non-matching session")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(weekRange())
	if err := good.validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Trace = epoch.Range{} },
		func(c *Config) { c.EpisodicPerWeek = -1 },
		func(c *Config) { c.MeanOccurrences = 0.5 },
		func(c *Config) { c.DurationMedianHours = 0 },
		func(c *Config) { c.SeverityMin = 0 },
		func(c *Config) { c.SeverityMax = c.SeverityMin },
		func(c *Config) { c.MaxDurationHours = 0 },
		func(c *Config) { c.MaxEpochImpact = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(weekRange())
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEventLookup(t *testing.T) {
	s := generate(t, DefaultConfig(weekRange()))
	if ev := s.Event(0); ev == nil || ev.ID != 0 {
		t.Error("Event(0) lookup failed")
	}
	if s.Event(-1) != nil || s.Event(int32(len(s.Events))) != nil {
		t.Error("out-of-range Event should be nil")
	}
}
