package experiments

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engagement"
	"repro/internal/epoch"
	"repro/internal/hhh"
	"repro/internal/metric"
	"repro/internal/report"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/whatif"
)

// Validation scores the detected critical clusters against the injected
// ground-truth events — the check the paper's authors could not run.
//
// Precision is measured by session overlap rather than key identity: a
// detection counts as correct when the problem sessions inside it are
// predominantly event-caused (well above the epoch's background share).
// Correlated shadows — a mobile ConnType cluster elevated by wireless-ASN
// events — are genuine findings and score as matches.
type Validation struct {
	Metric metric.Metric
	// DetectedEpochs is the number of (epoch, critical key) detections.
	DetectedEpochs int
	// MatchedEpochs is how many of those are event-dominated.
	MatchedEpochs int
	// ActiveAnchors counts (epoch, anchor) pairs of active events whose
	// anchor also shows up as a problem cluster (i.e. was detectable).
	ActiveAnchors int
	// RecoveredAnchors counts those whose anchor (or a refinement or
	// coarsening of it) was detected as critical.
	RecoveredAnchors int
}

// Precision returns MatchedEpochs / DetectedEpochs.
func (v Validation) Precision() float64 {
	if v.DetectedEpochs == 0 {
		return 0
	}
	return float64(v.MatchedEpochs) / float64(v.DetectedEpochs)
}

// Recall returns RecoveredAnchors / ActiveAnchors.
func (v Validation) Recall() float64 {
	if v.ActiveAnchors == 0 {
		return 0
	}
	return float64(v.RecoveredAnchors) / float64(v.ActiveAnchors)
}

// Validate computes ground-truth precision/recall per metric over week 1.
// Precision regenerates a sample of epochs to measure event-session overlap;
// recall tests whether detectable anchors (anchors that were problem
// clusters) were recovered as critical clusters.
func (s *Suite) Validate(w io.Writer) ([metric.NumMetrics]Validation, error) {
	sched := s.Gen.Schedule()
	var out [metric.NumMetrics]Validation
	for _, m := range metric.All() {
		out[m] = Validation{Metric: m}
	}

	// Recall over all week-1 epochs from retained keys.
	for i := range s.Week1.Epochs {
		er := &s.Week1.Epochs[i]
		for _, m := range metric.All() {
			ms := &er.Metrics[m]
			anchors := make(map[attr.Key]bool)
			for _, id := range sched.ActiveAt(er.Epoch) {
				ev := sched.Event(id)
				if ev.Metric == m {
					anchors[ev.Anchor] = true
				}
			}
			problemSet := make(map[attr.Key]bool, len(ms.ProblemKeys))
			for _, k := range ms.ProblemKeys {
				problemSet[k] = true
			}
			criticalSet := ms.CriticalSet()
			for a := range anchors {
				if !problemSet[a] {
					continue // not detectable this epoch (too small / too mild)
				}
				out[m].ActiveAnchors++
				if matchesAnchor(a, criticalSet) {
					out[m].RecoveredAnchors++
				}
			}
		}
	}

	// Precision over a regenerated epoch sample via event-tag overlap.
	for _, e := range sampleEpochs(s.Week1.Trace, 16) {
		er := s.Week1.At(e)
		if er == nil {
			continue
		}
		batch := s.Gen.EpochSessions(e)
		for _, m := range metric.All() {
			tm := newTagMatcher(batch, m, s.coreCfg.Thresholds)
			for k := range er.Metrics[m].CriticalSet() {
				out[m].DetectedEpochs++
				if tm.matches(k) {
					out[m].MatchedEpochs++
				}
			}
		}
	}
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title:   "Validation: detected critical clusters vs injected ground-truth events (week 1)",
		Columns: []string{"Metric", "Detections", "Precision", "DetectableAnchors", "Recall"},
	}
	for _, m := range metric.All() {
		v := out[m]
		t.AddRow(m.String(), v.DetectedEpochs, report.Pct(v.Precision()), v.ActiveAnchors, report.Pct(v.Recall()))
	}
	return out, t.Render(w)
}

// matchesAnchor reports whether key k appears in the set exactly, refines a
// member (member ⊆ k), or coarsens one (k ⊆ member).
func matchesAnchor(k attr.Key, set map[attr.Key]bool) bool {
	if set[k] {
		return true
	}
	for a := range set {
		if a.Subsumes(k) || k.Subsumes(a) {
			return true
		}
	}
	return false
}

// tagMatcher measures how event-dominated a detected cluster's problem
// sessions are, against one regenerated epoch.
type tagMatcher struct {
	batch       []session.Session
	m           metric.Metric
	th          metric.Thresholds
	globalShare float64
}

func newTagMatcher(batch []session.Session, m metric.Metric, th metric.Thresholds) *tagMatcher {
	tm := &tagMatcher{batch: batch, m: m, th: th}
	problems, caused := 0, 0
	for i := range batch {
		sess := &batch[i]
		if !sess.Problem(m, th) {
			continue
		}
		problems++
		if sess.CausedBy(m) {
			caused++
		}
	}
	if problems > 0 {
		tm.globalShare = float64(caused) / float64(problems)
	}
	return tm
}

// share returns the fraction of k's problem sessions caused by injected
// events.
func (tm *tagMatcher) share(k attr.Key) float64 {
	problems, caused := 0, 0
	for i := range tm.batch {
		sess := &tm.batch[i]
		if !k.Matches(sess.Attrs) || !sess.Problem(tm.m, tm.th) {
			continue
		}
		problems++
		if sess.CausedBy(tm.m) {
			caused++
		}
	}
	if problems == 0 {
		return 0
	}
	return float64(caused) / float64(problems)
}

// matches applies the precision rule: event share at least 60% and clearly
// above the epoch's background event share.
func (tm *tagMatcher) matches(k attr.Key) bool {
	sh := tm.share(k)
	return sh >= 0.6 && sh >= tm.globalShare+0.1
}

// ThresholdSweepRow is one sensitivity sample (paper §2: "the results are
// qualitatively similar for other choices of these thresholds").
type ThresholdSweepRow struct {
	Factor      float64
	BufRatioCut float64
	// MeanCritical and Coverage are for the buffering-ratio metric over a
	// sample of epochs.
	MeanProblem  float64
	MeanCritical float64
	Coverage     float64
}

// ThresholdSweep re-analyses a sample of week-1 epochs under alternative
// problem thresholds and reports the detected structure.
func (s *Suite) ThresholdSweep(w io.Writer) ([]ThresholdSweepRow, error) {
	var rows []ThresholdSweepRow
	sample := sampleEpochs(s.Week1.Trace, 12)
	if len(sample) == 0 {
		// An empty trace has no epochs to re-analyse; without this guard the
		// per-row means below divide by zero and go NaN.
		return rows, nil
	}
	for _, alt := range []struct {
		factor float64
		bufCut float64
	}{
		{1.25, 0.05}, {1.5, 0.05}, {2.0, 0.05}, {1.5, 0.03}, {1.5, 0.10},
	} {
		cfg := s.coreCfg
		cfg.Thresholds.ProblemRatioFactor = alt.factor
		cfg.Thresholds.BufRatio = alt.bufCut
		row := ThresholdSweepRow{Factor: alt.factor, BufRatioCut: alt.bufCut}
		for _, e := range sample {
			batch := s.Gen.EpochSessions(e)
			lites := digest(batch, cfg.Thresholds)
			res, err := core.AnalyzeEpoch(e, lites, cfg)
			if err != nil {
				return nil, err
			}
			ms := &res.Metrics[metric.BufRatio]
			row.MeanProblem += float64(ms.NumProblemClusters)
			row.MeanCritical += float64(len(ms.Critical))
			row.Coverage += ms.CriticalCoverage()
		}
		n := float64(len(sample))
		row.MeanProblem /= n
		row.MeanCritical /= n
		row.Coverage /= n
		rows = append(rows, row)
	}
	if w == nil {
		return rows, nil
	}
	t := report.Table{
		Title:   "Ablation: threshold sensitivity (buffering ratio, 12-epoch sample)",
		Columns: []string{"RatioFactor", "BufRatioCut", "MeanProblemClusters", "MeanCriticalClusters", "CriticalCoverage"},
	}
	for _, r := range rows {
		t.AddRow(r.Factor, r.BufRatioCut, r.MeanProblem, r.MeanCritical, report.Pct(r.Coverage))
	}
	return rows, t.Render(w)
}

// HHHComparison contrasts the hierarchical-heavy-hitter baseline with the
// critical-cluster detector on ground-truth recovery (paper §7's argument,
// quantified).
type HHHComparison struct {
	// CriticalPrecision and HHHPrecision are the fractions of detected
	// clusters matching an active ground-truth anchor.
	CriticalPrecision float64
	HHHPrecision      float64
	// CriticalMeanRatio and HHHMeanRatio are the mean problem ratios of
	// the detected clusters — HHH picks volume, not concentration.
	CriticalMeanRatio float64
	HHHMeanRatio      float64
}

// CompareHHH runs both detectors over a sample of week-1 epochs for the
// buffering-ratio metric.
func (s *Suite) CompareHHH(w io.Writer) (HHHComparison, error) {
	var out HHHComparison
	sched := s.Gen.Schedule()
	sample := sampleEpochs(s.Week1.Trace, 12)
	m := metric.BufRatio
	var critN, critMatch, hhhN, hhhMatch int
	var critRatioSum, hhhRatioSum float64
	_ = sched
	for _, e := range sample {
		batch := s.Gen.EpochSessions(e)
		lites := digest(batch, s.coreCfg.Thresholds)
		tm := newTagMatcher(batch, m, s.coreCfg.Thresholds)

		res, err := core.AnalyzeEpoch(e, lites, s.coreCfg)
		if err != nil {
			return out, err
		}
		ms := &res.Metrics[m]
		for i := range ms.Critical {
			cs := &ms.Critical[i]
			critN++
			critRatioSum += cs.Ratio
			if tm.matches(cs.Key) {
				critMatch++
			}
		}

		hres, err := hhh.Detect(lites, m, hhh.DefaultConfig())
		if err != nil {
			return out, err
		}
		tbl := cluster.NewTable(e, lites, 0)
		for _, h := range hres.Hitters {
			hhhN++
			hhhRatioSum += tbl.Get(h.Key).Ratio(m)
			if tm.matches(h.Key) {
				hhhMatch++
			}
		}
		tbl.Release()
	}
	if critN > 0 {
		out.CriticalPrecision = float64(critMatch) / float64(critN)
		out.CriticalMeanRatio = critRatioSum / float64(critN)
	}
	if hhhN > 0 {
		out.HHHPrecision = float64(hhhMatch) / float64(hhhN)
		out.HHHMeanRatio = hhhRatioSum / float64(hhhN)
	}
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title:   "Ablation: critical clusters vs hierarchical heavy hitters (buffering ratio)",
		Columns: []string{"Detector", "GroundTruthPrecision", "MeanProblemRatioOfDetected"},
	}
	t.AddRow("critical clusters", report.Pct(out.CriticalPrecision), out.CriticalMeanRatio)
	t.AddRow("hierarchical heavy hitters", report.Pct(out.HHHPrecision), out.HHHMeanRatio)
	return out, t.Render(w)
}

// HiddenAttrResult reports the coverage change when one attribute dimension
// is hidden from the analysis (paper §6, "Hidden attributes": the
// methodology generalises over whichever attributes are measurable).
type HiddenAttrResult struct {
	Dim attr.Dim
	// FullCoverage and HiddenCoverage are mean critical coverages of the
	// buffering-ratio metric with the dimension visible vs collapsed.
	FullCoverage   float64
	HiddenCoverage float64
}

// HideAttribute re-analyses a sample of epochs with dimension d collapsed
// to a single value, measuring how much explanatory power the attribute
// contributes.
func (s *Suite) HideAttribute(w io.Writer, d attr.Dim) (HiddenAttrResult, error) {
	out := HiddenAttrResult{Dim: d}
	sample := sampleEpochs(s.Week1.Trace, 12)
	if len(sample) == 0 {
		// A trace with no epochs has nothing to ablate; without this guard
		// the coverage means below divide by zero and go NaN.
		return out, nil
	}
	m := metric.BufRatio
	var full, hidden float64
	for _, e := range sample {
		batch := s.Gen.EpochSessions(e)
		lites := digest(batch, s.coreCfg.Thresholds)
		res, err := core.AnalyzeEpoch(e, lites, s.coreCfg)
		if err != nil {
			return out, err
		}
		full += res.Metrics[m].CriticalCoverage()

		blind := make([]cluster.Lite, len(lites))
		copy(blind, lites)
		for i := range blind {
			blind[i].Attrs[d] = 0
		}
		res, err = core.AnalyzeEpoch(e, blind, s.coreCfg)
		if err != nil {
			return out, err
		}
		hidden += res.Metrics[m].CriticalCoverage()
	}
	n := float64(len(sample))
	out.FullCoverage = full / n
	out.HiddenCoverage = hidden / n
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title:   fmt.Sprintf("Ablation: hiding the %s attribute (buffering ratio)", d),
		Columns: []string{"Setting", "CriticalCoverage"},
	}
	t.AddRow("all seven attributes", report.Pct(out.FullCoverage))
	t.AddRow(fmt.Sprintf("%s hidden", d), report.Pct(out.HiddenCoverage))
	return out, t.Render(w)
}

// PrevalencePersistence summarises the §4.4 headline numbers for
// EXPERIMENTS.md: the fraction of problem clusters with prevalence above
// 10% and with median persistence of at least 2 hours.
type PrevalencePersistence struct {
	Metric              metric.Metric
	PrevalenceOver10pct float64
	MedianPersist2h     float64
	MaxPersistOver24h   float64
}

// Headlines computes the §4.4 summary statistics per metric.
func (s *Suite) Headlines(w io.Writer) ([metric.NumMetrics]PrevalencePersistence, error) {
	var out [metric.NumMetrics]PrevalencePersistence
	for _, m := range metric.All() {
		h := s.History(m)
		prevDist, err := newECDF(h.PrevalenceDist(analysis.ProblemClusters))
		if err != nil {
			return out, err
		}
		meds, maxes := h.PersistenceDist(analysis.ProblemClusters)
		medDist, err := newECDF(meds)
		if err != nil {
			return out, err
		}
		maxDist, err := newECDF(maxes)
		if err != nil {
			return out, err
		}
		out[m] = PrevalencePersistence{
			Metric:              m,
			PrevalenceOver10pct: prevDist.Exceeds(0.10),
			MedianPersist2h:     medDist.Exceeds(2 - 1e-9),
			MaxPersistOver24h:   maxDist.Exceeds(24),
		}
	}
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title:   "Headline temporal statistics (paper §4.4)",
		Columns: []string{"Metric", "ClustersPrevalence>10%", "ClustersMedianPersist>=2h", "ClustersMaxPersist>24h"},
	}
	for _, m := range metric.All() {
		r := out[m]
		t.AddRow(m.String(), report.Pct(r.PrevalenceOver10pct), report.Pct(r.MedianPersist2h), report.Pct(r.MaxPersistOver24h))
	}
	return out, t.Render(w)
}

func digest(batch []session.Session, th metric.Thresholds) []cluster.Lite {
	lites := make([]cluster.Lite, len(batch))
	for i := range batch {
		lites[i] = cluster.Digest(&batch[i], th)
	}
	return lites
}

func sampleEpochs(r epoch.Range, n int) []epoch.Index {
	if n <= 0 || r.Len() == 0 {
		return nil
	}
	step := r.Len() / n
	if step < 1 {
		step = 1
	}
	var out []epoch.Index
	for e := r.Start; e < r.End && len(out) < n; e += epoch.Index(step) {
		out = append(out, e)
	}
	return out
}

func newECDF(samples []float64) (*stats.ECDF, error) { return stats.NewECDF(samples) }

// CostBenefit runs the §6 cost-of-remedy extension for one metric over
// week 1: greedy benefit-per-cost selection vs the paper's coverage-only
// ranking under shared budgets.
func (s *Suite) CostBenefit(w io.Writer, m metric.Metric) (whatif.CostBenefitResult, error) {
	res, err := whatif.CostBenefit(s.Week1, m, whatif.DefaultCostModel(), whatif.DefaultBudgetFracs())
	if err != nil {
		return res, err
	}
	if w == nil {
		return res, nil
	}
	t := report.Table{
		Title: fmt.Sprintf("Extension (§6): cost-aware selection vs coverage ranking — %s", m),
		Columns: []string{"BudgetFrac", "BPC_Selected", "BPC_Alleviated",
			"Cov_Selected", "Cov_Alleviated"},
	}
	for i := range res.ByBenefitPerCost {
		a, b := res.ByBenefitPerCost[i], res.ByCoverage[i]
		t.AddRow(a.Budget, a.Selected, report.Pct(a.Alleviated), b.Selected, report.Pct(b.Alleviated))
	}
	return res, t.Render(w)
}

// CriticalTemporal reproduces the paper's §4.2 remark that the prevalence
// and persistence analyses "repeated for the critical clusters" show the
// same skewed patterns.
type CriticalTemporal struct {
	Metric              metric.Metric
	PrevalenceOver10pct float64
	MedianPersist2h     float64
	MaxPersistOver24h   float64
}

// CriticalTemporalStats computes the §4.2 critical-cluster temporal
// statistics per metric over week 1.
func (s *Suite) CriticalTemporalStats(w io.Writer) ([metric.NumMetrics]CriticalTemporal, error) {
	var out [metric.NumMetrics]CriticalTemporal
	for _, m := range metric.All() {
		h := s.History(m)
		prev, err := newECDF(h.PrevalenceDist(analysis.CriticalClusters))
		if err != nil {
			return out, err
		}
		meds, maxes := h.PersistenceDist(analysis.CriticalClusters)
		medD, err := newECDF(meds)
		if err != nil {
			return out, err
		}
		maxD, err := newECDF(maxes)
		if err != nil {
			return out, err
		}
		out[m] = CriticalTemporal{
			Metric:              m,
			PrevalenceOver10pct: prev.Exceeds(0.10),
			MedianPersist2h:     medD.Exceeds(2 - 1e-9),
			MaxPersistOver24h:   maxD.Exceeds(24),
		}
	}
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title:   "Critical-cluster temporal statistics (paper §4.2: same skewed patterns)",
		Columns: []string{"Metric", "Prevalence>10%", "MedianPersist>=2h", "MaxPersist>24h"},
	}
	for _, m := range metric.All() {
		r := out[m]
		t.AddRow(m.String(), report.Pct(r.PrevalenceOver10pct), report.Pct(r.MedianPersist2h), report.Pct(r.MaxPersistOver24h))
	}
	return out, t.Render(w)
}

// SeedStability reruns a reduced configuration across several seeds and
// reports the spread of the headline coverage numbers — a robustness check
// the single-dataset paper could not perform.
type SeedStability struct {
	Seeds int
	// MeanCoverage and StdCoverage are per metric over seeds.
	MeanCoverage [metric.NumMetrics]float64
	StdCoverage  [metric.NumMetrics]float64
}

// StabilityAcrossSeeds runs seeds reduced suites (72 epochs, reduced
// volume), drawn from the suite's own seed onward, and aggregates Table 1
// critical coverage. A spread needs at least two seeds.
func (s *Suite) StabilityAcrossSeeds(w io.Writer, seeds int) (SeedStability, error) {
	out := SeedStability{Seeds: seeds}
	if seeds < 2 {
		return out, fmt.Errorf("experiments: stability needs at least 2 seeds, got %d", seeds)
	}
	var samples [metric.NumMetrics][]float64
	first := s.Gen.Config().Seed
	for seed := first; seed < first+uint64(seeds); seed++ {
		genCfg := s.Gen.Config()
		genCfg.Seed = seed
		genCfg.Trace = epoch.Range{Start: 0, End: 72}
		genCfg.Events.Trace = genCfg.Trace
		if genCfg.SessionsPerEpoch > 2000 {
			genCfg.SessionsPerEpoch = 2000
		}
		sub, err := NewSuite(genCfg, core.DefaultConfig(genCfg.SessionsPerEpoch))
		if err != nil {
			return out, err
		}
		rows := analysis.Table1(sub.Week1)
		for _, m := range metric.All() {
			samples[m] = append(samples[m], rows[m].MeanCriticalCoverage)
		}
	}
	for _, m := range metric.All() {
		sum := stats.Summarize(samples[m])
		out.MeanCoverage[m] = sum.Mean
		out.StdCoverage[m] = sum.Std
	}
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title:   fmt.Sprintf("Robustness: critical coverage across %d seeds (72-epoch reduced runs)", seeds),
		Columns: []string{"Metric", "MeanCoverage", "StdDev"},
	}
	for _, m := range metric.All() {
		t.AddRow(m.String(), report.Pct(out.MeanCoverage[m]), out.StdCoverage[m])
	}
	return out, t.Render(w)
}

// WeekConsistency verifies the paper's §4 remark that "the results are
// consistent across both weeks": Table 1's aggregates computed per week.
type WeekConsistency struct {
	Metric                metric.Metric
	Week1Coverage         float64
	Week2Coverage         float64
	Week1CriticalFraction float64
	Week2CriticalFraction float64
}

// WeeklyConsistency computes the per-week comparison. Traces shorter than
// two weeks return only week-1 values.
func (s *Suite) WeeklyConsistency(w io.Writer) ([metric.NumMetrics]WeekConsistency, error) {
	var out [metric.NumMetrics]WeekConsistency
	rows1 := analysis.Table1(s.Week1)
	week2 := s.TR.Slice(s.TR.Trace.Week(1))
	var rows2 [metric.NumMetrics]analysis.Table1Row
	if week2.Trace.Len() > 0 {
		rows2 = analysis.Table1(week2)
	}
	for _, m := range metric.All() {
		out[m] = WeekConsistency{
			Metric:                m,
			Week1Coverage:         rows1[m].MeanCriticalCoverage,
			Week2Coverage:         rows2[m].MeanCriticalCoverage,
			Week1CriticalFraction: rows1[m].CriticalFraction,
			Week2CriticalFraction: rows2[m].CriticalFraction,
		}
	}
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title:   "Week-over-week consistency (paper §4: results consistent across both weeks)",
		Columns: []string{"Metric", "W1_CriticalCoverage", "W2_CriticalCoverage", "W1_Critical/Problem", "W2_Critical/Problem"},
	}
	for _, m := range metric.All() {
		r := out[m]
		t.AddRow(m.String(), report.Pct(r.Week1Coverage), report.Pct(r.Week2Coverage),
			report.Pct(r.Week1CriticalFraction), report.Pct(r.Week2CriticalFraction))
	}
	return out, t.Render(w)
}

// EngagementRow expresses the §1 motivation in the §5 what-if's terms: how
// much viewing time the problems of each metric cost, and how much the top
// 1% of critical clusters would recover.
type EngagementRow struct {
	Metric metric.Metric
	// MeanLossPerProblemMin is the mean viewing-minute loss among the
	// metric's problem sessions (relative to an otherwise-identical
	// session without that problem).
	MeanLossPerProblemMin float64
	// WeeklyLossMin extrapolates to all week-1 problem sessions.
	WeeklyLossMin float64
	// RecoveredTop1PctMin is the loss recovered by fixing the top 1% of
	// critical clusters by coverage.
	RecoveredTop1PctMin float64
}

// Engagement converts problem sessions into lost viewing time using the
// Dobrian / Krishnan-Sitaraman engagement model and prices the paper's
// top-1% fix in recovered minutes.
func (s *Suite) Engagement(w io.Writer) ([metric.NumMetrics]EngagementRow, error) {
	model := engagement.Default()
	th := s.coreCfg.Thresholds

	// Per-metric mean loss among problem sessions, over a sampled week-1
	// slice. The loss of a session's problem on metric m is measured
	// against the same session with that dimension repaired.
	var lossSum [metric.NumMetrics]float64
	var lossN [metric.NumMetrics]int
	for _, e := range sampleEpochs(s.Week1.Trace, 16) {
		for _, sess := range s.Gen.EpochSessions(e) {
			for _, m := range metric.All() {
				if !sess.QoE.Problem(m, th) {
					continue
				}
				repaired := sess.QoE
				switch m {
				case metric.BufRatio:
					repaired.BufRatio = 0.01
				case metric.Bitrate:
					repaired.BitrateKbps = th.BitrateKbps
				case metric.JoinTime:
					repaired.JoinTimeMS = 2000
				case metric.JoinFailure:
					repaired = metric.QoE{JoinTimeMS: 2000, BitrateKbps: th.BitrateKbps, BufRatio: 0.01}
				}
				loss := model.ExpectedMinutes(repaired, th) - model.ExpectedMinutes(sess.QoE, th)
				if loss < 0 {
					loss = 0
				}
				lossSum[m] += loss
				lossN[m]++
			}
		}
	}

	var out [metric.NumMetrics]EngagementRow
	fractions := []float64{0.01}
	for _, m := range metric.All() {
		row := EngagementRow{Metric: m}
		if lossN[m] > 0 {
			row.MeanLossPerProblemMin = lossSum[m] / float64(lossN[m])
		}
		var weeklyProblems float64
		for i := range s.Week1.Epochs {
			weeklyProblems += float64(s.Week1.Epochs[i].Metrics[m].GlobalProblems)
		}
		row.WeeklyLossMin = weeklyProblems * row.MeanLossPerProblemMin
		pts := whatif.Curve(s.Week1, m, whatif.ByCoverage, fractions)
		row.RecoveredTop1PctMin = pts[0].Alleviated * row.WeeklyLossMin
		out[m] = row
	}
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title: "Extension (§1 motivation): engagement cost of problems and the top-1% fix, in viewing minutes",
		Columns: []string{"Metric", "MeanLoss/ProblemSession(min)",
			"WeeklyLoss(min)", "RecoveredByTop1%(min)"},
	}
	for _, m := range metric.All() {
		r := out[m]
		t.AddRow(m.String(), r.MeanLossPerProblemMin, r.WeeklyLossMin, r.RecoveredTop1PctMin)
	}
	return out, t.Render(w)
}
