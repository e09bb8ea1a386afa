// Package repro is a from-scratch Go reproduction of "Shedding Light on the
// Structure of Internet Video Quality Problems in the Wild" (Jiang, Sekar,
// Stoica, Zhang — CoNEXT 2013).
//
// The paper analyses 300 million video sessions to show that a small number
// of critical clusters — minimal attribute combinations such as a single
// CDN, ISP, or content provider — explain most quality problems, that these
// problems recur and persist for hours, and that fixing just the top 1% of
// critical clusters would alleviate 15–55% of problem sessions.
//
// Because the original Conviva dataset is proprietary, this module couples
// the paper's full analysis pipeline with a calibrated synthetic substrate:
// a world of 379 content providers, 19 CDNs and hundreds of ASNs; injected
// ground-truth problem events with heavy-tailed durations; and a TCP
// heartbeat measurement pipeline that carries the synthetic sessions.
// Every table and figure of the paper's evaluation is regenerated by the
// experiments suite, and — uniquely possible in a synthetic setting —
// detections are validated against ground truth.
//
// # Quick start
//
//	cfg := repro.QuickConfig(1)
//	study, err := repro.NewStudy(cfg)
//	if err != nil { ... }
//	study.Suite().Table1(os.Stdout) // paper Table 1 on the synthetic trace
//
// The cmd/ directory holds the executables (vqgen, vqanalyze, vqreport,
// vqcollect, vqmonitor); examples/ holds runnable scenario walkthroughs
// (quickstart, isp_outage, multicdn_whatif, live_heartbeat); DESIGN.md and
// EXPERIMENTS.md document the system inventory and the paper-vs-measured
// numbers.
package repro

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/whatif"
)

// Re-exported domain types. The internal packages carry the full APIs;
// these aliases are the stable, documented surface.
type (
	// Metric is one of the four quality metrics (BufRatio, Bitrate,
	// JoinTime, JoinFailure).
	Metric = metric.Metric
	// Thresholds classify problem sessions and significant clusters.
	Thresholds = metric.Thresholds
	// QoE is a session's measured quality.
	QoE = metric.QoE
	// Session is one video viewing session.
	Session = session.Session
	// Key identifies a cluster: attribute dimensions plus values.
	Key = attr.Key
	// Dim is one of the seven session attribute dimensions.
	Dim = attr.Dim
	// Space maps attribute value identifiers to names.
	Space = attr.Space
	// EpochIndex is a zero-based hour index.
	EpochIndex = epoch.Index
	// EpochRange is a half-open epoch interval.
	EpochRange = epoch.Range
	// Event is an injected ground-truth problem cause.
	Event = events.Event
	// TraceResult is a full per-epoch analysis.
	TraceResult = core.TraceResult
	// Suite regenerates the paper's tables and figures.
	Suite = experiments.Suite
	// History is a metric's cluster-occurrence index across epochs.
	History = analysis.History
)

// The four quality metrics.
const (
	BufRatio    = metric.BufRatio
	Bitrate     = metric.Bitrate
	JoinTime    = metric.JoinTime
	JoinFailure = metric.JoinFailure
)

// The seven attribute dimensions, in the paper's order.
const (
	ASN        = attr.ASN
	CDN        = attr.CDN
	Site       = attr.Site
	VoDOrLive  = attr.VoDOrLive
	PlayerType = attr.PlayerType
	Browser    = attr.Browser
	ConnType   = attr.ConnType
)

// Config couples dataset generation with analysis parameters.
type Config struct {
	// Synth configures the synthetic dataset (world, events, volume).
	Synth synth.Config
	// Analysis configures clustering and critical-cluster detection.
	Analysis core.Config
}

// DefaultConfig returns the calibrated two-week configuration whose
// analysis lands in the paper's reported bands. Seed selects the synthetic
// universe; identical seeds reproduce identical studies.
func DefaultConfig(seed uint64) Config {
	sc := synth.DefaultConfig()
	sc.Seed = seed
	return Config{
		Synth:    sc,
		Analysis: core.DefaultConfig(sc.SessionsPerEpoch),
	}
}

// QuickConfig returns a laptop-quick configuration (three days, reduced
// volume) for exploration and tests. Structural findings match the default
// configuration; absolute cluster counts are smaller.
func QuickConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Synth.Trace = epoch.Range{Start: 0, End: 72}
	cfg.Synth.SessionsPerEpoch = 2000
	cfg.Synth.Events.Trace = cfg.Synth.Trace
	cfg.Analysis = core.DefaultConfig(cfg.Synth.SessionsPerEpoch)
	return cfg
}

// Study is a generated dataset with its complete analysis.
type Study struct {
	suite *experiments.Suite
}

// NewStudy generates the dataset and runs the full per-epoch analysis.
func NewStudy(cfg Config) (*Study, error) {
	s, err := experiments.NewSuite(cfg.Synth, cfg.Analysis)
	if err != nil {
		return nil, err
	}
	return &Study{suite: s}, nil
}

// Suite exposes the experiment runner (one method per paper table/figure).
func (st *Study) Suite() *Suite { return st.suite }

// Result returns the whole-trace analysis.
func (st *Study) Result() *TraceResult { return st.suite.TR }

// AttrSpace returns the study's attribute catalog (for naming keys).
func (st *Study) AttrSpace() *Space { return st.suite.Gen.World().Space() }

// GroundTruth returns the injected problem events.
func (st *Study) GroundTruth() []Event { return st.suite.Gen.Schedule().Events }

// History builds the week-1 cluster-occurrence index for metric m.
func (st *Study) History(m Metric) *History { return st.suite.History(m) }

// TopCritical returns the k highest-coverage critical clusters of metric m
// over week 1 (the paper's §5.1 coverage ranking).
func (st *Study) TopCritical(m Metric, k int) []Key {
	return st.suite.History(m).TopCritical(k)
}

// FixClusters simulates repairing the given critical clusters across the
// whole trace, returning the fraction of metric-m problem sessions
// alleviated (paper §5's what-if primitive).
func (st *Study) FixClusters(m Metric, keys []Key) float64 {
	set := make(map[Key]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return whatif.FixKeys(st.suite.TR, m, set, st.suite.TR.Trace).Fraction()
}

// WriteTrace streams the study's full synthetic trace to w in the trace
// container format (readable by cmd/vqanalyze and trace.NewReader).
func (st *Study) WriteTrace(w io.Writer, compress bool) error {
	gen := st.suite.Gen
	hdr := trace.HeaderFor(gen.World().Space(), gen.Config().Trace.Len(), gen.Config().Seed)
	hdr.Comment = "synthetic trace generated by repro.Study"
	tw, err := trace.NewWriter(w, hdr, compress)
	if err != nil {
		return err
	}
	if err := gen.ForEach(func(s *session.Session) error { return tw.Write(s) }); err != nil {
		return err
	}
	return tw.Close()
}

// Report renders every reproduced table and figure to w in paper order.
func (st *Study) Report(w io.Writer) error { return st.suite.All(w) }
