// Package synth generates the synthetic session trace: it samples session
// attributes from the world, composes background problem probabilities with
// the severities of matching ground-truth events, decides per-metric
// problem outcomes, and synthesises metric values whose distributions match
// the shapes of the paper's Fig. 1 (log-scale buffering-ratio CDF, ladder-
// quantised bitrates, lognormal join times with a heavy problem tail).
//
// Generation is deterministic per (seed, epoch): every epoch can be
// regenerated independently, which both parallelises generation and lets
// experiments re-derive any slice of the trace without storing it.
package synth

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/attr"
	"repro/internal/epoch"
	"repro/internal/events"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/world"
)

// Config sizes and calibrates the generator.
type Config struct {
	Seed uint64
	// Trace is the epoch span to generate.
	Trace epoch.Range
	// SessionsPerEpoch is the mean hourly session volume (modulated by the
	// diurnal cycle).
	SessionsPerEpoch int
	// DiurnalAmplitude in [0,1) scales the sinusoidal volume cycle.
	DiurnalAmplitude float64

	// Base holds the background (diffuse, unclustered) problem probability
	// per metric. These calibrate the paper's coverage gaps: problem
	// sessions outside any problem cluster (Table 1).
	Base [metric.NumMetrics]float64

	// World configures the entity population.
	World world.Config
	// Events configures ground-truth problem injection. Its Trace and Seed
	// fields are overwritten from this Config.
	Events events.Config
}

// DefaultConfig returns a laptop-scale configuration calibrated so the
// analysis lands in the paper's reported bands (global problem ratios
// ≈0.05–0.13, critical-cluster coverage 44–84%).
func DefaultConfig() Config {
	trace := epoch.Range{Start: 0, End: epoch.DefaultTraceEpochs}
	cfg := Config{
		Seed:             1,
		Trace:            trace,
		SessionsPerEpoch: 4000,
		DiurnalAmplitude: 0.30,
		World:            world.DefaultConfig(),
		Events:           events.DefaultConfig(trace),
	}
	cfg.Base[metric.BufRatio] = 0.035
	cfg.Base[metric.Bitrate] = 0.042
	cfg.Base[metric.JoinTime] = 0.012
	cfg.Base[metric.JoinFailure] = 0.007
	return cfg
}

// validate reports the first invalid field.
func (c Config) validate() error {
	if c.Trace.Len() <= 0 {
		return fmt.Errorf("synth: empty trace range")
	}
	if c.SessionsPerEpoch < 1 {
		return fmt.Errorf("synth: SessionsPerEpoch %d < 1", c.SessionsPerEpoch)
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("synth: DiurnalAmplitude %v out of [0,1)", c.DiurnalAmplitude)
	}
	for m, b := range c.Base {
		if b < 0 || b >= 1 {
			return fmt.Errorf("synth: Base[%s] = %v out of [0,1)", metric.Metric(m), b)
		}
	}
	return c.World.Validate()
}

// Generator produces sessions for a configured world and event schedule.
type Generator struct {
	cfg   Config
	w     *world.World
	sched *events.Schedule
	root  *stats.RNG
}

// New builds a generator: the world and the ground-truth schedule are
// derived deterministically from the config.
func New(cfg Config) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.World.Seed = cfg.Seed
	w, err := world.New(cfg.World)
	if err != nil {
		return nil, err
	}
	cfg.Events.Seed = cfg.Seed
	cfg.Events.Trace = cfg.Trace
	sched, err := events.Generate(w, cfg.Events)
	if err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, w: w, sched: sched, root: stats.NewRNG(cfg.Seed)}, nil
}

// World returns the generated universe.
func (g *Generator) World() *world.World { return g.w }

// Schedule returns the ground-truth event schedule.
func (g *Generator) Schedule() *events.Schedule { return g.sched }

// Config returns the generator configuration.
func (g *Generator) Config() Config { return g.cfg }

// EpochVolume returns the session count of epoch e under the diurnal cycle.
func (g *Generator) EpochVolume(e epoch.Index) int {
	h := float64(epoch.HourOfDay(e))
	// Peak at 20:00, trough at 08:00.
	cycle := math.Sin(2 * math.Pi * (h - 14) / 24)
	n := float64(g.cfg.SessionsPerEpoch) * (1 + g.cfg.DiurnalAmplitude*cycle)
	if n < 1 {
		n = 1
	}
	return int(n)
}

// EpochSessions generates every session of epoch e. The result is
// deterministic in (Config.Seed, e) and independent of other epochs.
func (g *Generator) EpochSessions(e epoch.Index) []session.Session {
	rng := g.root.Split(0x5E551 + uint64(uint32(e)))
	n := g.EpochVolume(e)
	out := make([]session.Session, 0, n)
	sev := make([]float64, metric.NumMetrics)
	matched := make([]int32, metric.NumMetrics)
	for i := 0; i < n; i++ {
		v := g.w.SampleAttrs(rng)
		g.sched.MatchingSeverities(v, e, sev, matched)
		s := session.Session{
			ID:       uint64(uint32(e))<<32 | uint64(i),
			Epoch:    e,
			Attrs:    v,
			EventIDs: session.NoEvents,
		}
		g.synthesizeQoE(rng, &s, sev, matched)
		out = append(out, s)
	}
	return out
}

// problemDecisions decides per-metric problem outcomes by composing the
// background base rate with matching event severities as independent
// causes, and records which decisions were event-caused.
func (g *Generator) problemDecisions(rng *stats.RNG, sev []float64) (problems [metric.NumMetrics]bool, eventCaused [metric.NumMetrics]bool) {
	for m := 0; m < metric.NumMetrics; m++ {
		base := g.cfg.Base[m]
		p := 1 - (1-base)*(1-sev[m])
		if p > 0.95 {
			p = 0.95
		}
		u := rng.Float64()
		if u < p {
			problems[m] = true
			// Attribute the cause proportionally: the background explains
			// base/p of the probability mass.
			if p > 0 && rng.Float64() >= base/p {
				eventCaused[m] = true
			}
		}
	}
	return problems, eventCaused
}

func (g *Generator) synthesizeQoE(rng *stats.RNG, s *session.Session, sev []float64, matched []int32) {
	problems, eventCaused := g.problemDecisions(rng, sev)

	// Tag the session, per metric, with the ground-truth event that caused
	// its problem (validation only; the analysis never reads it).
	for m := 0; m < metric.NumMetrics; m++ {
		if problems[m] && eventCaused[m] && matched[m] >= 0 {
			s.EventIDs[m] = matched[m]
		}
	}

	if problems[metric.JoinFailure] {
		s.QoE = metric.QoE{JoinFailed: true}
		return
	}

	site := &g.w.Sites[s.Attrs[attr.Site]]
	q := metric.QoE{
		JoinTimeMS:  g.joinTime(rng, problems[metric.JoinTime]),
		BufRatio:    g.bufRatio(rng, problems[metric.BufRatio]),
		BitrateKbps: g.bitrate(rng, site, s.Attrs[attr.ConnType], problems[metric.Bitrate]),
		DurationS:   g.duration(rng),
	}
	s.QoE = q
}

// bufRatio draws a buffering ratio conditioned on the problem decision.
// Problem sessions are log-uniform in [0.05, 1]; healthy sessions mix a
// mass near zero with a lognormal body below the threshold (Fig. 1a).
func (g *Generator) bufRatio(rng *stats.RNG, problem bool) float64 {
	if problem {
		return stats.Clamp(0.05*math.Pow(10, 1.3*rng.Float64()), 0.05001, 1)
	}
	if rng.Bool(0.55) {
		return rng.Float64() * 1e-4
	}
	v := rng.LogNormal(math.Log(0.005), 1.1)
	if v >= 0.05 {
		v = 0.0499 * rng.Float64()
	}
	return v
}

// joinTime draws a join time in milliseconds. Problem sessions follow a
// Pareto tail beyond the 10 s threshold (Fig. 1c spans 1 ms–1000 s);
// healthy sessions are lognormal around ~1.6 s.
func (g *Generator) joinTime(rng *stats.RNG, problem bool) float64 {
	if problem {
		return stats.Clamp(10_000*rng.Pareto(1, 1.6), 10_001, 1e6)
	}
	for i := 0; i < 8; i++ {
		v := rng.LogNormal(math.Log(1600), 0.8)
		if v < 10_000 {
			return v
		}
	}
	return 9_500
}

// connCapacityKbps is the mean downstream capacity per connection type.
// The values reflect the paper's 2013 access-network era, where >80% of
// sessions averaged below 2 Mbps (Fig. 1b).
var connCapacityKbps = [world.NumConnTypes]float64{
	2200, // DSL
	3800, // Cable
	7000, // Fiber
	1200, // MobileWireless
	1600, // FixedWireless
	4500, // Ethernet
}

// bitrate draws a time-weighted average bitrate from the site's rendition
// ladder and the connection's capacity. Problem sessions pick the best
// rendition below the 700 kbps threshold; healthy sessions pick the best
// rendition the connection sustains, at or above the threshold when the
// ladder offers one. Ladder quantisation produces the step-shaped CDF of
// Fig. 1b.
func (g *Generator) bitrate(rng *stats.RNG, site *world.Site, conn int32, problem bool) float64 {
	ladder := site.BitrateLadder
	jitter := 0.96 + 0.08*rng.Float64() // mid-stream switching wobble
	if problem {
		best := -1.0
		for _, b := range ladder {
			if b < 700 && b > best {
				best = b
			}
		}
		if best < 0 {
			// The site offers nothing below the threshold; the problem
			// cannot physically materialise (single high-rate rendition).
			best = ladder[0]
		}
		return best * jitter
	}
	capKbps := connCapacityKbps[conn] * rng.LogNormal(0, 0.45)
	best := -1.0
	for _, b := range ladder {
		if b <= 0.6*capKbps && b > best {
			best = b
		}
	}
	if best < 700 {
		// Prefer the smallest rendition at or above the threshold: healthy
		// sessions should not read as bitrate problems when avoidable.
		for _, b := range ladder {
			if b >= 700 && (best < 700 || b < best) {
				best = b
			}
		}
	}
	if best < 0 {
		best = ladder[0]
	}
	v := best * jitter
	if best >= 700 && v < 700 {
		// The rung at the threshold boundary must not wobble into problem
		// territory on a healthy decision.
		v = best * (1 + 0.04*rng.Float64())
	}
	return v
}

func (g *Generator) duration(rng *stats.RNG) float64 {
	return stats.Clamp(rng.LogNormal(math.Log(280), 1.1), 5, 4*3600)
}

// ForEach streams every session of the trace, epoch by epoch in order,
// through fn, stopping at the first error.
func (g *Generator) ForEach(fn func(*session.Session) error) error {
	for e := g.cfg.Trace.Start; e < g.cfg.Trace.End; e++ {
		batch := g.EpochSessions(e)
		for i := range batch {
			if err := fn(&batch[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ForEachEpoch generates epochs concurrently with the given parallelism
// (<=0 means GOMAXPROCS) and invokes handle once per epoch. handle may be
// called concurrently from multiple goroutines; epoch order is not
// guaranteed. The first error cancels outstanding work and is returned.
func (g *Generator) ForEachEpoch(workers int, handle func(e epoch.Index, batch []session.Session) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type result struct {
		err error
	}
	epochs := g.cfg.Trace.Epochs()
	work := make(chan epoch.Index)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	hasErr := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range work {
				if hasErr() {
					continue
				}
				batch := g.EpochSessions(e)
				if err := handle(e, batch); err != nil {
					setErr(err)
				}
			}
		}()
	}
	for _, e := range epochs {
		work <- e
	}
	close(work)
	wg.Wait()
	return firstErr
}
