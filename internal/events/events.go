// Package events models the ground-truth quality problems injected into the
// synthetic trace. Each event anchors at an attribute combination (the
// paper's "critical cluster" notion, here known by construction), affects
// one quality metric, raises the problem probability of matching sessions
// by its severity while active, and is active over one or more epoch
// intervals.
//
// Two event populations reproduce the paper's temporal structure (§4.1):
//
//   - chronic events, derived from structural traits of the world (Asian
//     ISPs with poor peering, single-bitrate sites, in-house CDNs, wireless
//     carriers, low-priority sites sharing one global CDN) — these are
//     active for the whole trace and surface as the high-prevalence
//     critical clusters of Table 3;
//
//   - episodic events (outages, overloads, flash crowds) with heavy-tailed
//     durations — the bulk of problem clusters, with the >1-day tail the
//     paper observes in Fig. 8(b).
//
// The analysis pipeline never sees this package's output; it is used by the
// generator (package synth) and by validation tests that score detections
// against ground truth.
package events

import (
	"fmt"
	"math"

	"repro/internal/attr"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/stats"
	"repro/internal/world"
)

// Event is one injected ground-truth problem cause.
type Event struct {
	// ID indexes the event in its Schedule; sessions carry it for
	// validation.
	ID int32
	// Metric is the quality metric the event degrades.
	Metric metric.Metric
	// Anchor is the attribute combination whose sessions the event hits.
	Anchor attr.Key
	// Severity is the problem probability added (via independent-cause
	// composition) to matching sessions while active.
	Severity float64
	// Intervals lists the active spans, non-overlapping and sorted.
	Intervals []epoch.Range
	// Chronic marks trait-derived, trace-long events.
	Chronic bool
	// Tag is the ground-truth cause category (e.g. "asian-isp",
	// "single-bitrate-site"), used by the Table 3 reproduction.
	Tag string
}

// ActiveAt reports whether the event is active in epoch e.
func (ev *Event) ActiveAt(e epoch.Index) bool {
	for _, r := range ev.Intervals {
		if r.Contains(e) {
			return true
		}
	}
	return false
}

// Config controls event generation.
type Config struct {
	Seed uint64
	// Trace is the epoch span events may occupy.
	Trace epoch.Range

	// EpisodicPerWeek is the expected number of episodic events arising
	// each week (per metric weighting is internal).
	EpisodicPerWeek float64

	// MeanOccurrences is the expected number of distinct active intervals
	// per episodic event (recurrent problems; paper Fig. 7 prevalence).
	MeanOccurrences float64

	// DurationMedianHours sets the median episodic interval length; the
	// lognormal body is mixed with a Pareto tail so ~1% of events run
	// beyond a day (paper Fig. 8).
	DurationMedianHours float64
	// DurationSigma is the lognormal shape of the duration body.
	DurationSigma float64
	// LongTailProb is the probability an interval draws from the Pareto
	// tail instead of the body.
	LongTailProb float64
	// MaxDurationHours caps any single interval.
	MaxDurationHours int

	// SeverityMin and SeverityMax bound episodic severities; the draw is
	// Beta-shaped between them.
	SeverityMin, SeverityMax float64

	// MaxEpochImpact caps severity × anchor-population-share so no single
	// episodic event moves the epoch-wide problem ratio by more than this
	// (the paper's Fig. 2 aggregate is stable over time). Zero disables
	// the cap.
	MaxEpochImpact float64

	// DisableChronic turns off trait-derived chronic events (used by
	// ablations).
	DisableChronic bool
	// DisableEpisodic turns off episodic events.
	DisableEpisodic bool

	// Extra appends caller-specified events (scenario studies, examples).
	// IDs are reassigned; intervals outside the trace are clipped.
	Extra []Event
}

// DefaultConfig returns generation parameters calibrated so the detected
// cluster populations land in the paper's reported bands.
func DefaultConfig(trace epoch.Range) Config {
	return Config{
		Seed:                1,
		Trace:               trace,
		EpisodicPerWeek:     130,
		MeanOccurrences:     2.0,
		DurationMedianHours: 2.4,
		DurationSigma:       0.95,
		LongTailProb:        0.045,
		MaxDurationHours:    64,
		SeverityMin:         0.20,
		SeverityMax:         0.85,
		MaxEpochImpact:      0.025,
	}
}

// validate reports the first invalid field.
func (c Config) validate() error {
	switch {
	case c.Trace.Len() <= 0:
		return fmt.Errorf("events: empty trace range %+v", c.Trace)
	case c.EpisodicPerWeek < 0:
		return fmt.Errorf("events: negative EpisodicPerWeek")
	case c.MeanOccurrences < 1:
		return fmt.Errorf("events: MeanOccurrences %v < 1", c.MeanOccurrences)
	case c.DurationMedianHours <= 0:
		return fmt.Errorf("events: non-positive DurationMedianHours")
	case c.SeverityMin <= 0 || c.SeverityMax <= c.SeverityMin || c.SeverityMax >= 1:
		return fmt.Errorf("events: bad severity bounds [%v, %v]", c.SeverityMin, c.SeverityMax)
	case c.MaxDurationHours < 1:
		return fmt.Errorf("events: MaxDurationHours %d < 1", c.MaxDurationHours)
	case c.MaxEpochImpact < 0:
		return fmt.Errorf("events: negative MaxEpochImpact")
	}
	return nil
}

// Schedule is the full set of events of a trace with per-epoch activity
// indexes for fast matching during generation.
type Schedule struct {
	Events []Event

	trace  epoch.Range
	active [][]int32 // per epoch offset from trace.Start: event ids active
}

// Generate builds the ground-truth schedule for a world.
func Generate(w *world.World, cfg Config) (*Schedule, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed).Split(0xE7E275)
	s := &Schedule{trace: cfg.Trace}
	if !cfg.DisableChronic {
		s.addChronic(w, rng.Split(1))
	}
	if !cfg.DisableEpisodic {
		s.addEpisodic(w, cfg, rng.Split(2))
	}
	for _, ev := range cfg.Extra {
		ev.ID = int32(len(s.Events))
		ev.Intervals = clipRanges(ev.Intervals, cfg.Trace)
		if len(ev.Intervals) == 0 {
			continue
		}
		s.Events = append(s.Events, ev)
	}
	s.buildIndex()
	return s, nil
}

// clipRanges intersects ranges with the trace span.
func clipRanges(rs []epoch.Range, trace epoch.Range) []epoch.Range {
	var out []epoch.Range
	for _, r := range rs {
		if r.Start < trace.Start {
			r.Start = trace.Start
		}
		if r.End > trace.End {
			r.End = trace.End
		}
		if r.Len() > 0 {
			out = append(out, r)
		}
	}
	return out
}

// chronicSpec describes one family of trait-derived events.
type chronicSpec struct {
	tag      string
	metric   metric.Metric
	severity float64 // mean severity; per-event jitter applied
	anchors  func(w *world.World, r *stats.RNG) []attr.Key
}

// pickTop selects up to n ids from the front (most popular) portion of ids
// after skipping the first skip entries, spreading choices so multiple specs
// do not all claim the identical set. Skipping matters when the predicate
// matches head-of-Zipf entities: a chronic problem on the single most
// popular site would dominate the global ratio, which contradicts the
// paper's stable aggregate (Fig. 2).
func pickTop(r *stats.RNG, ids []int32, n, skip int) []int32 {
	if skip >= len(ids) {
		skip = 0
	}
	ids = ids[skip:]
	if len(ids) == 0 {
		return nil
	}
	if n > len(ids) {
		n = len(ids)
	}
	// Choose from the most popular end of the list so anchored clusters
	// clear the statistical-significance floor.
	pool := ids
	if max := n + n/2 + 1; len(pool) > max {
		pool = pool[:max]
	}
	perm := r.Perm(len(pool))
	out := make([]int32, 0, n)
	for _, i := range perm[:n] {
		out = append(out, pool[i])
	}
	return out
}

func keysFor(d attr.Dim, ids []int32) []attr.Key {
	out := make([]attr.Key, 0, len(ids))
	for _, id := range ids {
		out = append(out, attr.NewKey(map[attr.Dim]int32{d: id}))
	}
	return out
}

func chronicSpecs() []chronicSpec {
	return []chronicSpec{
		// Paper Table 3, BufRatio row: Asian ISPs; single-bitrate sites;
		// in-house CDNs; mobile wireless connections.
		{
			tag: "asian-isp", metric: metric.BufRatio, severity: 0.30,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.ASNsWhere(func(a *world.ASN) bool {
					return a.Region == world.RegionChina || a.Region == world.RegionAsiaOther
				})
				return keysFor(attr.ASN, pickTop(r, ids, 4, 0))
			},
		},
		{
			tag: "single-bitrate-site", metric: metric.BufRatio, severity: 0.24,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.SitesWhere(func(s *world.Site) bool { return s.SingleBitrate() })
				return keysFor(attr.Site, pickTop(r, ids, 4, 0))
			},
		},
		{
			tag: "in-house-cdn", metric: metric.BufRatio, severity: 0.22,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.CDNsWhere(func(c *world.CDN) bool { return c.Kind == world.CDNInHouse })
				return keysFor(attr.CDN, pickTop(r, ids, 2, 0))
			},
		},
		{
			tag: "mobile-wireless", metric: metric.BufRatio, severity: 0.15,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				return []attr.Key{attr.NewKey(map[attr.Dim]int32{attr.ConnType: world.ConnMobileWireless})}
			},
		},

		// JoinTime row: Chinese ISPs loading player modules from US CDNs;
		// in-house CDNs of UGC providers; high-bitrate sites.
		{
			tag: "chinese-isp-remote-player", metric: metric.JoinTime, severity: 0.36,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.ASNsWhere(func(a *world.ASN) bool { return a.Region == world.RegionChina })
				return keysFor(attr.ASN, pickTop(r, ids, 3, 0))
			},
		},
		{
			tag: "ugc-inhouse-cdn", metric: metric.JoinTime, severity: 0.22,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.CDNsWhere(func(c *world.CDN) bool { return c.Kind == world.CDNInHouse })
				return keysFor(attr.CDN, pickTop(r, ids, 2, 0))
			},
		},
		{
			tag: "high-bitrate-site", metric: metric.JoinTime, severity: 0.22,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.SitesWhere(func(s *world.Site) bool {
					top := s.BitrateLadder[len(s.BitrateLadder)-1]
					return top >= 4300
				})
				return keysFor(attr.Site, pickTop(r, ids, 3, 10))
			},
		},

		// JoinFailure row: the same ASN set as buffering ratio; sites
		// sharing the same single global CDN (presumably low priority).
		{
			tag: "asian-isp", metric: metric.JoinFailure, severity: 0.26,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.ASNsWhere(func(a *world.ASN) bool {
					return a.Region == world.RegionChina || a.Region == world.RegionAsiaOther
				})
				return keysFor(attr.ASN, pickTop(r, ids, 4, 0))
			},
		},
		{
			tag: "low-priority-on-global-cdn", metric: metric.JoinFailure, severity: 0.40,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.SitesWhere(func(s *world.Site) bool { return s.LowPriority })
				return keysFor(attr.Site, pickTop(r, ids, 4, 0))
			},
		},

		// Bitrate row: wireless providers; UGC sites; single-bitrate sites
		// stay below the 700 kbps threshold by construction.
		{
			tag: "wireless-provider", metric: metric.Bitrate, severity: 0.26,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.ASNsWhere(func(a *world.ASN) bool { return a.Wireless })
				return keysFor(attr.ASN, pickTop(r, ids, 3, 0))
			},
		},
		{
			tag: "ugc-site", metric: metric.Bitrate, severity: 0.22,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.SitesWhere(func(s *world.Site) bool { return s.UGC })
				return keysFor(attr.Site, pickTop(r, ids, 4, 0))
			},
		},
		{
			// Every site whose only rendition sits below the 700 kbps
			// threshold is a structural bitrate cause; anchor them all so
			// ground-truth tagging covers the whole population.
			tag: "single-bitrate-site", metric: metric.Bitrate, severity: 0.65,
			anchors: func(w *world.World, r *stats.RNG) []attr.Key {
				ids := w.SitesWhere(func(s *world.Site) bool {
					return s.SingleBitrate() && s.BitrateLadder[0] < 700
				})
				return keysFor(attr.Site, ids)
			},
		},
	}
}

func (s *Schedule) addChronic(w *world.World, rng *stats.RNG) {
	for i, spec := range chronicSpecs() {
		r := rng.Split(uint64(i))
		for _, anchor := range spec.anchors(w, r) {
			sev := spec.severity * (0.8 + 0.4*r.Float64())
			s.Events = append(s.Events, Event{
				ID:        int32(len(s.Events)),
				Metric:    spec.metric,
				Anchor:    anchor,
				Severity:  stats.Clamp(sev, 0.05, 0.9),
				Intervals: []epoch.Range{s.trace},
				Chronic:   true,
				Tag:       spec.tag,
			})
		}
	}
}

// episodic anchor shapes with sampling weights: the paper's Fig. 10 shows
// Site, CDN, ASN, and ConnType dominating, with a tail of pair combinations.
var episodicShapes = []struct {
	dims   []attr.Dim
	weight float64
}{
	{[]attr.Dim{attr.Site}, 0.32},
	{[]attr.Dim{attr.CDN}, 0.13},
	{[]attr.Dim{attr.ASN}, 0.18},
	{[]attr.Dim{attr.ConnType}, 0.05},
	{[]attr.Dim{attr.CDN, attr.ASN}, 0.08},
	{[]attr.Dim{attr.Site, attr.ConnType}, 0.06},
	{[]attr.Dim{attr.CDN, attr.ConnType}, 0.05},
	{[]attr.Dim{attr.Site, attr.Browser}, 0.04},
	{[]attr.Dim{attr.CDN, attr.Browser}, 0.03},
	{[]attr.Dim{attr.Site, attr.ASN}, 0.03},
	{[]attr.Dim{attr.VoDOrLive, attr.PlayerType}, 0.02},
	{[]attr.Dim{attr.PlayerType, attr.Browser}, 0.01},
}

// metricWeights biases which metric an episodic event degrades; join
// failures and join time see the sharpest incident structure in the paper.
var episodicMetricWeights = []float64{0.28, 0.22, 0.25, 0.25}

func (s *Schedule) addEpisodic(w *world.World, cfg Config, rng *stats.RNG) {
	weeks := float64(cfg.Trace.Len()) / float64(epoch.HoursPerWeek)
	n := rng.Poisson(cfg.EpisodicPerWeek * weeks)
	shapeWeights := make([]float64, len(episodicShapes))
	for i, sh := range episodicShapes {
		shapeWeights[i] = sh.weight
	}
	for i := 0; i < n; i++ {
		r := rng.Split(uint64(1000 + i))
		shape := episodicShapes[stats.WeightedChoice(r, shapeWeights)]
		anchor := s.sampleAnchor(w, r, shape.dims)
		m := metric.Metric(stats.WeightedChoice(r, episodicMetricWeights))
		sev := cfg.SeverityMin + (cfg.SeverityMax-cfg.SeverityMin)*r.Beta(1.6, 2.4)
		// Bound the epoch-wide impact: big anchors get milder events.
		if cfg.MaxEpochImpact > 0 {
			if share := w.KeyShare(anchor); share > 0 && sev*share > cfg.MaxEpochImpact {
				sev = cfg.MaxEpochImpact / share
			}
		}
		s.Events = append(s.Events, Event{
			ID:        int32(len(s.Events)),
			Metric:    m,
			Anchor:    anchor,
			Severity:  sev,
			Intervals: s.sampleIntervals(cfg, r),
			Tag:       "episodic",
		})
	}
}

// sampleAnchor draws concrete values for the anchor dimensions, biased
// toward (but not pinned to) popular entities so anchored clusters are
// statistically significant without dwarfing the epoch.
func (s *Schedule) sampleAnchor(w *world.World, r *stats.RNG, dims []attr.Dim) attr.Key {
	k := attr.Key{}
	for _, d := range dims {
		var card int
		switch d {
		case attr.ASN:
			card = len(w.ASNs)
		case attr.CDN:
			card = len(w.CDNs)
		case attr.Site:
			card = len(w.Sites)
		case attr.VoDOrLive:
			card = 2
		case attr.PlayerType:
			card = len(world.PlayerTypeNames)
		case attr.Browser:
			card = len(world.BrowserNames)
		case attr.ConnType:
			card = world.NumConnTypes
		}
		var id int
		if card <= 8 {
			id = r.Intn(card)
		} else {
			// Skip the very top ranks (their outages would dominate the
			// epoch-wide ratio; Fig. 2 shows a stable aggregate) and cap at
			// the popularity rank still large enough to clear the
			// statistical-significance floor, decaying with rank between.
			minRank := 2
			maxRank := card
			if maxRank > 80 {
				maxRank = 80
			}
			z, err := stats.NewZipf(maxRank-minRank, 0.55)
			if err != nil {
				id = r.Intn(card)
			} else {
				id = minRank + z.Sample(r)
			}
		}
		k = k.Child(d, int32(id))
	}
	return k
}

// sampleIntervals draws the recurrence structure of an episodic event.
func (s *Schedule) sampleIntervals(cfg Config, r *stats.RNG) []epoch.Range {
	occ := 1 + r.Geometric(1/cfg.MeanOccurrences)
	if occ > 10 {
		occ = 10
	}
	used := make(map[epoch.Index]bool)
	var out []epoch.Range
	for o := 0; o < occ; o++ {
		var hours int
		if r.Bool(cfg.LongTailProb) {
			hours = int(r.Pareto(8, 1.05))
		} else {
			hours = int(math.Round(r.LogNormal(math.Log(cfg.DurationMedianHours), cfg.DurationSigma)))
		}
		if hours < 1 {
			hours = 1
		}
		if hours > cfg.MaxDurationHours {
			hours = cfg.MaxDurationHours
		}
		span := cfg.Trace.Len()
		if hours >= span {
			hours = span
		}
		start := cfg.Trace.Start + epoch.Index(r.Intn(span-hours+1))
		rg := epoch.Range{Start: start, End: start + epoch.Index(hours)}
		// Avoid overlapping occurrences of the same event.
		overlap := false
		for e := rg.Start; e < rg.End; e++ {
			if used[e] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for e := rg.Start; e < rg.End; e++ {
			used[e] = true
		}
		out = append(out, rg)
	}
	if len(out) == 0 {
		start := cfg.Trace.Start + epoch.Index(r.Intn(cfg.Trace.Len()))
		out = append(out, epoch.Range{Start: start, End: start + 1})
	}
	sortRanges(out)
	return out
}

func sortRanges(rs []epoch.Range) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Start < rs[j-1].Start; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func (s *Schedule) buildIndex() {
	n := s.trace.Len()
	s.active = make([][]int32, n)
	for i := range s.Events {
		ev := &s.Events[i]
		for _, rg := range ev.Intervals {
			for e := rg.Start; e < rg.End; e++ {
				if !s.trace.Contains(e) {
					continue
				}
				off := int(e - s.trace.Start)
				s.active[off] = append(s.active[off], ev.ID)
			}
		}
	}
}

// ActiveAt returns the ids of events active in epoch e (shared slice; do
// not mutate).
func (s *Schedule) ActiveAt(e epoch.Index) []int32 {
	if !s.trace.Contains(e) {
		return nil
	}
	return s.active[int(e-s.trace.Start)]
}

// Event returns the event with the given id, or nil.
func (s *Schedule) Event(id int32) *Event {
	if id < 0 || int(id) >= len(s.Events) {
		return nil
	}
	return &s.Events[id]
}

// MatchingSeverities accumulates, per metric, the active-event severities
// matching a session with attributes v at epoch e. The returned slice of
// matched event ids (at most one recorded per metric — the most severe) is
// written into matched, which must have length metric.NumMetrics; entries
// are -1 when no event matched. severities must also have length
// metric.NumMetrics and accumulates the composed probability boost
// 1-∏(1-sev).
func (s *Schedule) MatchingSeverities(v attr.Vector, e epoch.Index, severities []float64, matched []int32) {
	for m := range severities {
		severities[m] = 0
		matched[m] = -1
	}
	strongest := make([]float64, len(severities))
	for _, id := range s.ActiveAt(e) {
		ev := &s.Events[id]
		if !ev.Anchor.Matches(v) {
			continue
		}
		m := int(ev.Metric)
		// Compose as independent causes: keep 1-∏(1-sev) in severities.
		severities[m] = 1 - (1-severities[m])*(1-ev.Severity)
		if ev.Severity > strongest[m] {
			strongest[m] = ev.Severity
			matched[m] = ev.ID
		}
	}
}
