// Package experiments regenerates every table and figure of the paper's
// evaluation from a synthetic trace: the Fig. 1 metric CDFs through the
// Fig. 13 reactive timeseries and Tables 1–5, plus the ablations and
// ground-truth validations that the synthetic setting makes possible.
//
// A Suite couples a generator (the dataset) with its analysis result; each
// experiment method both returns the computed data and renders it through
// package report, so the vqreport command and the benchmark harness share
// one implementation.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/whatif"
)

// Suite bundles a generated dataset with its full analysis.
type Suite struct {
	Gen *synth.Generator
	// TR is the whole-trace analysis; Week1 is its first-week slice (the
	// paper presents §4 results over week one).
	TR    *core.TraceResult
	Week1 *core.TraceResult

	coreCfg core.Config
	hist    [metric.NumMetrics]*analysis.History
}

// NewSuite generates and analyses a dataset.
func NewSuite(genCfg synth.Config, coreCfg core.Config) (*Suite, error) {
	g, err := synth.New(genCfg)
	if err != nil {
		return nil, err
	}
	tr, err := core.AnalyzeGenerator(g, coreCfg)
	if err != nil {
		return nil, err
	}
	s := &Suite{Gen: g, TR: tr, coreCfg: coreCfg}
	s.Week1 = tr.Slice(tr.Trace.Week(0))
	return s, nil
}

// History returns (and caches) the week-1 history of metric m.
func (s *Suite) History(m metric.Metric) *analysis.History {
	if s.hist[m] == nil {
		s.hist[m] = analysis.BuildHistory(s.Week1, m)
	}
	return s.hist[m]
}

// metricSeriesNames is the fixed legend order used across figures.
var metricSeriesNames = []string{"BufRatio", "Bitrate", "JoinTime", "JoinFailure"}

// Fig1 renders the CDFs of buffering ratio, bitrate, and join time over a
// sample of week-1 epochs (paper Fig. 1). It returns the three ECDFs.
func (s *Suite) Fig1(w io.Writer) ([3]*stats.ECDF, error) {
	var buf, br, jt []float64
	week := s.TR.Trace.Week(0)
	// Every 6th epoch keeps the sample representative and cheap.
	for e := week.Start; e < week.End; e += 6 {
		for _, sess := range s.Gen.EpochSessions(e) {
			if sess.QoE.JoinFailed {
				continue
			}
			buf = append(buf, sess.QoE.BufRatio)
			br = append(br, sess.QoE.BitrateKbps)
			jt = append(jt, sess.QoE.JoinTimeMS)
		}
	}
	var out [3]*stats.ECDF
	for i, samples := range [][]float64{buf, br, jt} {
		e, err := stats.NewECDF(samples)
		if err != nil {
			return out, err
		}
		out[i] = e
	}
	if w == nil {
		return out, nil
	}

	fig := report.NewFigure(
		"Figure 1(a): CDF of buffering ratio", "buffering_ratio", "CDF")
	for _, x := range []float64{1e-5, 1e-4, 1e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1} {
		fig.AddPoint(x, out[0].At(x))
	}
	if err := fig.Render(w); err != nil {
		return out, err
	}
	fig = report.NewFigure(
		"\nFigure 1(b): CDF of average bitrate", "bitrate_kbps", "CDF")
	for _, x := range []float64{200, 400, 700, 1000, 1500, 2000, 3000, 4000, 6000, 10000} {
		fig.AddPoint(x, out[1].At(x))
	}
	if err := fig.Render(w); err != nil {
		return out, err
	}
	fig = report.NewFigure(
		"\nFigure 1(c): CDF of join time", "join_time_ms", "CDF")
	for _, x := range []float64{1, 100, 500, 1000, 2000, 5000, 10000, 30000, 1e5, 1e6} {
		fig.AddPoint(x, out[2].At(x))
	}
	return out, fig.Render(w)
}

// Fig2 renders the per-epoch fraction of problem sessions per metric
// (paper Fig. 2) and returns the four series.
func (s *Suite) Fig2(w io.Writer) ([metric.NumMetrics][]float64, error) {
	var series [metric.NumMetrics][]float64
	week := s.Week1
	for i := range week.Epochs {
		for _, m := range metric.All() {
			ms := &week.Epochs[i].Metrics[m]
			ratio := 0.0
			if ms.GlobalSessions > 0 {
				ratio = float64(ms.GlobalProblems) / float64(ms.GlobalSessions)
			}
			series[m] = append(series[m], ratio)
		}
	}
	if w == nil {
		return series, nil
	}
	fig := report.NewFigure("Figure 2: fraction of problem sessions over time",
		"epoch_hour", metricSeriesNames...)
	for i := range week.Epochs {
		fig.AddPoint(float64(week.Epochs[i].Epoch),
			series[0][i], series[1][i], series[2][i], series[3][i])
	}
	if err := fig.Render(w); err != nil {
		return series, err
	}
	// The paper's §2 observation that the metrics' timeseries are only
	// weakly correlated, quantified.
	t := report.Table{
		Title:   "\nFigure 2 (companion): temporal correlation of problem-ratio series",
		Columns: []string{"MetricPair", "Pearson"},
	}
	for a := metric.Metric(0); a < metric.NumMetrics; a++ {
		for b := a + 1; b < metric.NumMetrics; b++ {
			t.AddRow(fmt.Sprintf("%s vs %s", a, b), stats.Pearson(series[a], series[b]))
		}
	}
	return series, t.Render(w)
}

// prevalenceGrid and persistenceGrid are the x-axes of Figs. 7 and 8.
var (
	prevalenceGrid  = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.25, 0.5, 1}
	persistenceGrid = []float64{1, 2, 3, 5, 10, 24, 48, 100}
)

// Fig7 renders the inverse CDF of problem-cluster prevalence per metric
// (paper Fig. 7): the fraction of problem clusters with prevalence ≥ x.
func (s *Suite) Fig7(w io.Writer) (map[metric.Metric]*stats.ECDF, error) {
	out := make(map[metric.Metric]*stats.ECDF)
	for _, m := range metric.All() {
		e, err := stats.NewECDF(s.History(m).PrevalenceDist(analysis.ProblemClusters))
		if err != nil {
			return nil, err
		}
		out[m] = e
	}
	if w == nil {
		return out, nil
	}
	fig := report.NewFigure("Figure 7: fraction of problem clusters with prevalence > x",
		"prevalence", metricSeriesNames...)
	for _, x := range prevalenceGrid {
		fig.AddPoint(x,
			out[metric.BufRatio].Exceeds(x-1e-12), out[metric.Bitrate].Exceeds(x-1e-12),
			out[metric.JoinTime].Exceeds(x-1e-12), out[metric.JoinFailure].Exceeds(x-1e-12))
	}
	return out, fig.Render(w)
}

// Fig8 renders the inverse CDFs of median and max problem-cluster
// persistence (paper Fig. 8a/8b).
func (s *Suite) Fig8(w io.Writer) (medians, maxes map[metric.Metric]*stats.ECDF, err error) {
	medians = make(map[metric.Metric]*stats.ECDF)
	maxes = make(map[metric.Metric]*stats.ECDF)
	for _, m := range metric.All() {
		med, max := s.History(m).PersistenceDist(analysis.ProblemClusters)
		if medians[m], err = stats.NewECDF(med); err != nil {
			return nil, nil, err
		}
		if maxes[m], err = stats.NewECDF(max); err != nil {
			return nil, nil, err
		}
	}
	if w == nil {
		return medians, maxes, nil
	}
	for i, set := range []map[metric.Metric]*stats.ECDF{medians, maxes} {
		title := "Figure 8(a): fraction of problem clusters with median persistence >= x hours"
		if i == 1 {
			title = "\nFigure 8(b): fraction of problem clusters with max persistence >= x hours"
		}
		fig := report.NewFigure(title, "persistence_hours", metricSeriesNames...)
		for _, x := range persistenceGrid {
			fig.AddPoint(x,
				set[metric.BufRatio].Exceeds(x-1e-9), set[metric.Bitrate].Exceeds(x-1e-9),
				set[metric.JoinTime].Exceeds(x-1e-9), set[metric.JoinFailure].Exceeds(x-1e-9))
		}
		if err := fig.Render(w); err != nil {
			return nil, nil, err
		}
	}
	return medians, maxes, nil
}

// Fig9 renders the per-epoch problem vs critical cluster counts for join
// time (paper Fig. 9) and returns the two series.
func (s *Suite) Fig9(w io.Writer) (problems, criticals []int, err error) {
	problems, criticals = analysis.ClusterCounts(s.Week1, metric.JoinTime)
	if w == nil {
		return problems, criticals, nil
	}
	fig := report.NewFigure("Figure 9: number of problem vs critical clusters (join time)",
		"epoch_hour", "problem_clusters", "critical_clusters")
	for i := range problems {
		fig.AddPoint(float64(s.Week1.Epochs[i].Epoch), float64(problems[i]), float64(criticals[i]))
	}
	return problems, criticals, fig.Render(w)
}

// Table1 renders the paper's Table 1 and returns its rows.
func (s *Suite) Table1(w io.Writer) ([metric.NumMetrics]analysis.Table1Row, error) {
	rows := analysis.Table1(s.Week1)
	if w == nil {
		return rows, nil
	}
	t := report.Table{
		Title: "Table 1: problem vs critical clusters and coverage (week 1 means)",
		Columns: []string{"Metric", "MeanProblemClusters", "MeanCriticalClusters",
			"Critical/Problem", "ProblemClusterCoverage", "CriticalClusterCoverage"},
	}
	for _, m := range metric.All() {
		r := rows[m]
		t.AddRow(m.String(), r.MeanProblemClusters, r.MeanCriticalClusters,
			report.Pct(r.CriticalFraction), report.Pct(r.MeanProblemCoverage), report.Pct(r.MeanCriticalCoverage))
	}
	return rows, t.Render(w)
}

// Fig10 renders the critical-cluster type breakdown per metric (paper
// Fig. 10) and returns the four breakdowns.
func (s *Suite) Fig10(w io.Writer) ([metric.NumMetrics]analysis.Breakdown, error) {
	var out [metric.NumMetrics]analysis.Breakdown
	for _, m := range metric.All() {
		out[m] = analysis.TypeBreakdown(s.Week1, m)
	}
	if w == nil {
		return out, nil
	}
	for _, m := range metric.All() {
		b := out[m]
		t := report.Table{
			Title:   fmt.Sprintf("Figure 10(%c): problem sessions by critical-cluster type — %s", 'a'+m, m),
			Columns: []string{"CriticalClusterType", "ProblemSessions", "Share"},
		}
		shares := b.MaskShares()
		shown := 0
		var rest float64
		for _, sh := range shares {
			if shown < 8 {
				t.AddRow(sh.Mask.String(), sh.Sessions, report.Pct(sh.Share))
				shown++
			} else {
				rest += sh.Sessions
			}
		}
		if rest > 0 {
			t.AddRow("(other combinations)", rest, report.Pct(rest/b.Total))
		}
		t.AddRow("(not attributed to critical cluster)", b.NotAttributed, report.Pct(b.NotAttributed/b.Total))
		t.AddRow("(not in any problem cluster)", b.NotInProblemCluster, report.Pct(b.NotInProblemCluster/b.Total))
		if err := t.Render(w); err != nil {
			return out, err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Table2 renders the cross-metric Jaccard overlap of the top-100 critical
// clusters (paper Table 2).
func (s *Suite) Table2(w io.Writer) (map[[2]metric.Metric]float64, error) {
	out := analysis.Table2(s.Week1, 100)
	if w == nil {
		return out, nil
	}
	t := report.Table{
		Title:   "Table 2: Jaccard similarity of top-100 critical clusters between metrics",
		Columns: []string{"MetricPair", "Jaccard"},
	}
	var pairs [][2]metric.Metric
	for p := range out {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		t.AddRow(fmt.Sprintf("%s vs %s", p[0], p[1]), out[p])
	}
	return out, t.Render(w)
}

// Table3Row is one detected prevalent critical cluster with its ground
// truth.
type Table3Row struct {
	Metric     metric.Metric
	Key        attr.Key
	Name       string
	Prevalence float64
	// Tag is the ground-truth cause ("asian-isp", …), "episodic" for
	// transient events, or "" when no injected event anchors here.
	Tag string
}

// Table3 renders the most prevalent critical clusters (prevalence > 60%,
// single-attribute ASN/CDN/Site/ConnType — paper Table 3) annotated with
// the injected ground-truth cause.
func (s *Suite) Table3(w io.Writer) ([]Table3Row, error) {
	sched := s.Gen.Schedule()
	tagOf := make(map[anchorMetric]string)
	for i := range sched.Events {
		ev := &sched.Events[i]
		am := anchorMetric{ev.Anchor, ev.Metric}
		if _, ok := tagOf[am]; !ok || ev.Chronic {
			tagOf[am] = ev.Tag
		}
	}
	space := s.Gen.World().Space()
	var rows []Table3Row
	for _, m := range metric.All() {
		for _, pc := range analysis.PrevalentCriticals(s.History(m), 0.6, true) {
			rows = append(rows, Table3Row{
				Metric:     m,
				Key:        pc.Key,
				Name:       space.FormatKey(pc.Key),
				Prevalence: pc.Prevalence,
				Tag:        tagOf[anchorMetric{pc.Key, m}],
			})
		}
	}
	if w == nil {
		return rows, nil
	}
	t := report.Table{
		Title:   "Table 3: most prevalent critical clusters (prevalence > 60%) with ground-truth cause",
		Columns: []string{"Metric", "CriticalCluster", "Prevalence", "GroundTruth"},
	}
	for _, r := range rows {
		tag := r.Tag
		if tag == "" {
			tag = "(structural, untagged)"
		}
		t.AddRow(r.Metric.String(), r.Name, report.Pct(r.Prevalence), tag)
	}
	return rows, t.Render(w)
}

type anchorMetric struct {
	key attr.Key
	m   metric.Metric
}

// Fig11 renders the top-k alleviation curves for the three rankings (paper
// Fig. 11a–c); the returned map is ranking → metric → curve.
func (s *Suite) Fig11(w io.Writer) (map[whatif.Ranking]map[metric.Metric][]whatif.CurvePoint, error) {
	fractions := whatif.DefaultFractions()
	out := make(map[whatif.Ranking]map[metric.Metric][]whatif.CurvePoint)
	for _, r := range []whatif.Ranking{whatif.ByPrevalence, whatif.ByPersistence, whatif.ByCoverage} {
		perMetric := make(map[metric.Metric][]whatif.CurvePoint)
		for _, m := range metric.All() {
			perMetric[m] = whatif.Curve(s.Week1, m, r, fractions)
		}
		out[r] = perMetric
	}
	if w == nil {
		return out, nil
	}
	for i, r := range []whatif.Ranking{whatif.ByPrevalence, whatif.ByPersistence, whatif.ByCoverage} {
		fig := report.NewFigure(
			fmt.Sprintf("Figure 11(%c): problem sessions alleviated fixing top fraction by %s", 'a'+i, r),
			"top_fraction", metricSeriesNames...)
		for j, f := range fractions {
			fig.AddPoint(f,
				out[r][metric.BufRatio][j].Alleviated, out[r][metric.Bitrate][j].Alleviated,
				out[r][metric.JoinTime][j].Alleviated, out[r][metric.JoinFailure][j].Alleviated)
		}
		if err := fig.Render(w); err != nil {
			return out, err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return out, err
		}
	}
	return out, nil
}

// fig12Selections are the Fig. 12 candidate restrictions.
func fig12Selections() []struct {
	Name  string
	Masks map[attr.Mask]bool
} {
	union := map[attr.Mask]bool{
		attr.MaskOf(attr.Site): true, attr.MaskOf(attr.CDN): true,
		attr.MaskOf(attr.ASN): true, attr.MaskOf(attr.ConnType): true,
	}
	return []struct {
		Name  string
		Masks map[attr.Mask]bool
	}{
		{"Any", nil},
		{"Site+CDN+ASN+ConnType", union},
		{"Site", map[attr.Mask]bool{attr.MaskOf(attr.Site): true}},
		{"ASN", map[attr.Mask]bool{attr.MaskOf(attr.ASN): true}},
		{"ConnType", map[attr.Mask]bool{attr.MaskOf(attr.ConnType): true}},
		{"CDN", map[attr.Mask]bool{attr.MaskOf(attr.CDN): true}},
	}
}

// Fig12 renders the attribute-restricted selection comparison for join
// failures (paper Fig. 12); the returned map is selection name → curve.
func (s *Suite) Fig12(w io.Writer) (map[string][]whatif.CurvePoint, error) {
	fractions := whatif.DefaultFractions()
	sels := fig12Selections()
	out := make(map[string][]whatif.CurvePoint, len(sels))
	names := make([]string, 0, len(sels))
	for _, sel := range sels {
		out[sel.Name] = whatif.RestrictedCurve(s.Week1, metric.JoinFailure, sel.Masks, fractions)
		names = append(names, sel.Name)
	}
	if w == nil {
		return out, nil
	}
	fig := report.NewFigure(
		"Figure 12: join-failure alleviation, selection restricted by attribute type",
		"fraction_of_all_critical_clusters", names...)
	for j, f := range fractions {
		ys := make([]float64, len(names))
		for i, n := range names {
			ys[i] = out[n][j].Alleviated
		}
		fig.AddPoint(f, ys...)
	}
	return out, fig.Render(w)
}

// Table4Row is one proactive what-if result.
type Table4Row struct {
	Metric    metric.Metric
	IntraWeek whatif.ProactiveResult
	InterWeek whatif.ProactiveResult
}

// Table4 renders the proactive strategy results (paper Table 4): intra-week
// (train days 1–4, test days 5–7) and inter-week (train week 1, test week
// 2), fixing the top 1% of critical clusters by coverage.
func (s *Suite) Table4(w io.Writer) ([metric.NumMetrics]Table4Row, error) {
	var rows [metric.NumMetrics]Table4Row
	week1 := s.TR.Trace.Week(0)
	week2 := s.TR.Trace.Week(1)
	intraTrain, intraTest := week1.Split(week1.Start + 4*epoch.HoursPerDay)
	for _, m := range metric.All() {
		rows[m].Metric = m
		rows[m].IntraWeek = whatif.Proactive(s.TR, m, intraTrain, intraTest, 0.01)
		if week2.Len() > 0 {
			rows[m].InterWeek = whatif.Proactive(s.TR, m, week1, week2, 0.01)
		}
	}
	if w == nil {
		return rows, nil
	}
	t := report.Table{
		Title: "Table 4: proactive (history-based) alleviation, top 1% critical clusters by coverage",
		Columns: []string{"Metric", "IntraWeek_New", "IntraWeek_Potential", "Intra_%OfPotential",
			"InterWeek_New", "InterWeek_Potential", "Inter_%OfPotential"},
	}
	for _, m := range metric.All() {
		r := rows[m]
		t.AddRow(m.String(), r.IntraWeek.New, r.IntraWeek.Potential, report.Pct(r.IntraWeek.OfPotential),
			r.InterWeek.New, r.InterWeek.Potential, report.Pct(r.InterWeek.OfPotential))
	}
	return rows, t.Render(w)
}

// Fig13 renders the reactive timeseries for join failures (paper Fig. 13).
func (s *Suite) Fig13(w io.Writer) (whatif.ReactiveResult, error) {
	res := whatif.Reactive(s.Week1, metric.JoinFailure)
	if w == nil {
		return res, nil
	}
	fig := report.NewFigure("Figure 13: reactive alleviation of join failures",
		"epoch_hour", "original", "after_reactive", "not_in_critical_clusters")
	for _, p := range res.Series {
		fig.AddPoint(float64(p.Epoch), p.Original, p.AfterReactive, p.NotInCritical)
	}
	return res, fig.Render(w)
}

// Table5 renders the reactive strategy summary per metric (paper Table 5).
func (s *Suite) Table5(w io.Writer) ([metric.NumMetrics]whatif.ReactiveResult, error) {
	var rows [metric.NumMetrics]whatif.ReactiveResult
	for _, m := range metric.All() {
		rows[m] = whatif.Reactive(s.Week1, m)
	}
	if w == nil {
		return rows, nil
	}
	t := report.Table{
		Title:   "Table 5: reactive alleviation (detect after 1 hour)",
		Columns: []string{"Metric", "New", "Potential", "%OfPotential"},
	}
	for _, m := range metric.All() {
		r := rows[m]
		t.AddRow(m.String(), r.New, r.Potential, report.Pct(r.OfPotential))
	}
	return rows, t.Render(w)
}

// All renders every figure and table in paper order.
func (s *Suite) All(w io.Writer) error {
	steps := []func(io.Writer) error{
		func(w io.Writer) error { _, err := s.Fig1(w); return err },
		func(w io.Writer) error { _, err := s.Fig2(w); return err },
		func(w io.Writer) error { _, err := s.Fig7(w); return err },
		func(w io.Writer) error { _, _, err := s.Fig8(w); return err },
		func(w io.Writer) error { _, _, err := s.Fig9(w); return err },
		func(w io.Writer) error { _, err := s.Table1(w); return err },
		func(w io.Writer) error { _, err := s.Fig10(w); return err },
		func(w io.Writer) error { _, err := s.Table2(w); return err },
		func(w io.Writer) error { _, err := s.Table3(w); return err },
		func(w io.Writer) error { _, err := s.Fig11(w); return err },
		func(w io.Writer) error { _, err := s.Fig12(w); return err },
		func(w io.Writer) error { _, err := s.Table4(w); return err },
		func(w io.Writer) error { _, err := s.Fig13(w); return err },
		func(w io.Writer) error { _, err := s.Table5(w); return err },
	}
	for _, step := range steps {
		if err := step(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
