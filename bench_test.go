// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Figs. 1–2, 7–13; Tables 1–5), the ablation benchmarks
// DESIGN.md calls out, and throughput benchmarks for the substrates. The
// figure/table benchmarks run against a shared two-week dataset built once;
// each reports its headline reproduction numbers as custom metrics so
// `go test -bench=.` doubles as the experiment log behind EXPERIMENTS.md.
package repro

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/experiments"
	"repro/internal/heartbeat"
	"repro/internal/hhh"
	"repro/internal/metric"
	"repro/internal/online"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/whatif"
	"repro/internal/window"
)

// benchConfig sizes the shared benchmark dataset: the paper's full two-week
// span at laptop volume.
func benchConfig() (synth.Config, core.Config) {
	genCfg := synth.DefaultConfig()
	genCfg.SessionsPerEpoch = 2500
	coreCfg := core.DefaultConfig(genCfg.SessionsPerEpoch)
	return genCfg, coreCfg
}

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

func suiteForBench(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		genCfg, coreCfg := benchConfig()
		benchSuite, benchErr = experiments.NewSuite(genCfg, coreCfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

// --- One benchmark per paper figure ---------------------------------------

func BenchmarkFig1_MetricCDFs(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var buf05 float64
	for i := 0; i < b.N; i++ {
		cdfs, err := s.Fig1(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		buf05 = cdfs[0].Exceeds(0.05)
	}
	b.ReportMetric(buf05, "frac_bufratio>5%")
}

func BenchmarkFig2_ProblemRatioTimeseries(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		series, err := s.Fig2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		mean = stats.Mean(series[metric.BufRatio])
	}
	b.ReportMetric(mean, "mean_bufratio_problem_ratio")
}

func BenchmarkFig7_Prevalence(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var over10 float64
	for i := 0; i < b.N; i++ {
		dists, err := s.Fig7(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		over10 = dists[metric.BufRatio].Exceeds(0.10)
	}
	b.ReportMetric(over10, "frac_clusters_prevalence>10%")
}

func BenchmarkFig8_Persistence(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var med2h float64
	for i := 0; i < b.N; i++ {
		med, _, err := s.Fig8(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		med2h = med[metric.BufRatio].Exceeds(2 - 1e-9)
	}
	b.ReportMetric(med2h, "frac_clusters_median_persist>=2h")
}

func BenchmarkFig9_ClusterCounts(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		probs, crits, err := s.Fig9(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var p, c int
		for j := range probs {
			p += probs[j]
			c += crits[j]
		}
		if p > 0 {
			ratio = float64(c) / float64(p)
		}
	}
	b.ReportMetric(ratio, "critical/problem_clusters")
}

func BenchmarkFig10_TypeBreakdown(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var siteShare float64
	for i := 0; i < b.N; i++ {
		bds, err := s.Fig10(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bd := bds[metric.BufRatio]
		siteShare = bd.ByMask[attr.MaskOf(attr.Site)] / bd.Total
	}
	b.ReportMetric(siteShare, "bufratio_site_share")
}

func BenchmarkFig11_TopK(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var top1pct float64
	for i := 0; i < b.N; i++ {
		curves, err := s.Fig11(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		pts := curves[whatif.ByCoverage][metric.JoinFailure]
		for _, p := range pts {
			if p.Fraction == 0.01 {
				top1pct = p.Alleviated
			}
		}
	}
	b.ReportMetric(top1pct, "joinfail_alleviated_top1%")
}

func BenchmarkFig12_AttrRestricted(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var anyFull float64
	for i := 0; i < b.N; i++ {
		out, err := s.Fig12(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		pts := out["Any"]
		anyFull = pts[len(pts)-1].Alleviated
	}
	b.ReportMetric(anyFull, "joinfail_alleviated_any_full")
}

func BenchmarkFig13_Reactive(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var reactive float64
	for i := 0; i < b.N; i++ {
		res, err := s.Fig13(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		reactive = res.New
	}
	b.ReportMetric(reactive, "joinfail_reactive_alleviated")
}

// --- One benchmark per paper table -----------------------------------------

func BenchmarkTable1_CriticalReduction(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		cov = rows[metric.JoinFailure].MeanCriticalCoverage
	}
	b.ReportMetric(cov, "joinfail_critical_coverage")
}

func BenchmarkTable2_Jaccard(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var maxJ float64
	for i := 0; i < b.N; i++ {
		out, err := s.Table2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		maxJ = 0
		for _, v := range out {
			if v > maxJ {
				maxJ = v
			}
		}
	}
	b.ReportMetric(maxJ, "max_cross_metric_jaccard")
}

func BenchmarkTable3_PrevalentCauses(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		out, err := s.Table3(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(out)
	}
	b.ReportMetric(float64(rows), "prevalent_critical_clusters")
}

func BenchmarkTable4_Proactive(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var ofPot float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		ofPot = rows[metric.JoinFailure].InterWeek.OfPotential
	}
	b.ReportMetric(ofPot, "joinfail_interweek_of_potential")
}

func BenchmarkTable5_Reactive(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var ofPot float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table5(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		ofPot = rows[metric.JoinFailure].OfPotential
	}
	b.ReportMetric(ofPot, "joinfail_reactive_of_potential")
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------

func BenchmarkAblation_Thresholds(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := s.ThresholdSweep(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := rows[0].Coverage, rows[0].Coverage
		for _, r := range rows {
			if r.Coverage < lo {
				lo = r.Coverage
			}
			if r.Coverage > hi {
				hi = r.Coverage
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "coverage_spread_across_thresholds")
}

func BenchmarkAblation_HHHvsCritical(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		out, err := s.CompareHHH(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		gap = out.CriticalPrecision - out.HHHPrecision
	}
	b.ReportMetric(gap, "precision_gap_critical_minus_hhh")
}

func BenchmarkAblation_HiddenAttribute(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var loss float64
	for i := 0; i < b.N; i++ {
		out, err := s.HideAttribute(io.Discard, attr.ConnType)
		if err != nil {
			b.Fatal(err)
		}
		loss = out.FullCoverage - out.HiddenCoverage
	}
	b.ReportMetric(loss, "coverage_loss_hiding_conntype")
}

func BenchmarkValidation_GroundTruth(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var prec float64
	for i := 0; i < b.N; i++ {
		vals, err := s.Validate(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		prec = vals[metric.BufRatio].Precision()
	}
	b.ReportMetric(prec, "bufratio_gt_precision")
}

// --- Substrate throughput benchmarks ---------------------------------------

func BenchmarkGenerateEpoch(b *testing.B) {
	genCfg, _ := benchConfig()
	g, err := synth.New(genCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(g.EpochSessions(epoch.Index(i % 336)))
	}
	b.ReportMetric(float64(n), "sessions/epoch")
}

func BenchmarkClusterTable(b *testing.B) {
	genCfg, coreCfg := benchConfig()
	g, err := synth.New(genCfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := g.EpochSessions(10)
	lites := make([]cluster.Lite, len(batch))
	for i := range batch {
		lites[i] = cluster.Digest(&batch[i], coreCfg.Thresholds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := cluster.NewTable(10, lites, 0)
		if tbl.Len() == 0 {
			b.Fatal("empty table")
		}
		tbl.Release()
	}
}

func BenchmarkCriticalDetect(b *testing.B) {
	genCfg, coreCfg := benchConfig()
	g, err := synth.New(genCfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := g.EpochSessions(10)
	lites := make([]cluster.Lite, len(batch))
	for i := range batch {
		lites[i] = cluster.Digest(&batch[i], coreCfg.Thresholds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeEpoch(10, lites, coreCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelBenchLites caches the large digest sets BenchmarkAnalyzeEpochParallel
// analyzes, keyed by epoch size: the -cpu sweep re-enters the benchmark once
// per GOMAXPROCS value and must not pay million-session synthesis each time.
var (
	parallelBenchMu    sync.Mutex
	parallelBenchLites = map[int][]cluster.Lite{}
)

func litesForParallelBench(b *testing.B, n int) []cluster.Lite {
	b.Helper()
	parallelBenchMu.Lock()
	defer parallelBenchMu.Unlock()
	if lites, ok := parallelBenchLites[n]; ok {
		return lites
	}
	genCfg, coreCfg := benchConfig()
	genCfg.SessionsPerEpoch = n
	g, err := synth.New(genCfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := g.EpochSessions(10)
	lites := make([]cluster.Lite, len(batch))
	for i := range batch {
		lites[i] = cluster.Digest(&batch[i], coreCfg.Thresholds)
	}
	parallelBenchLites[n] = lites
	return lites
}

// BenchmarkAnalyzeEpochParallel is the scaling benchmark for the sharded
// epoch-analysis engine: one full AnalyzeEpoch (sharded table build,
// tree merge, per-metric critical detection fan-out) per iteration, with the
// worker count following GOMAXPROCS so `go test -cpu 1,2,4,8` sweeps the
// shard count.
func BenchmarkAnalyzeEpochParallel(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			lites := litesForParallelBench(b, n)
			_, coreCfg := benchConfig()
			coreCfg.Workers = runtime.GOMAXPROCS(0)
			// One untimed epoch warms the shard-table pool so the numbers
			// measure the steady state (a long-running monitor reuses
			// pooled tables every epoch), not the first-epoch cold allocation
			// of W shard arrays.
			if _, err := core.AnalyzeEpoch(10, lites, coreCfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeEpoch(10, lites, coreCfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(coreCfg.Workers), "workers")
		})
	}
}

func BenchmarkHHHDetect(b *testing.B) {
	genCfg, coreCfg := benchConfig()
	g, err := synth.New(genCfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := g.EpochSessions(10)
	lites := make([]cluster.Lite, len(batch))
	for i := range batch {
		lites[i] = cluster.Digest(&batch[i], coreCfg.Thresholds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hhh.Detect(lites, metric.BufRatio, hhh.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionBinaryCodec(b *testing.B) {
	s := session.Session{
		ID: 42, Epoch: 17,
		Attrs:    attr.Vector{3, 1, 250, 0, 2, 1, 4},
		QoE:      metric.QoE{JoinTimeMS: 2300, BufRatio: 0.03, BitrateKbps: 1850, DurationS: 640},
		EventIDs: session.NoEvents,
	}
	var buf []byte
	var out session.Session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = session.AppendBinary(buf[:0], &s)
		if _, err := session.DecodeBinary(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(session.BinarySize()))
}

func BenchmarkHeartbeatProtocol(b *testing.B) {
	msg := heartbeat.Message{
		Kind: heartbeat.KindProgress, SessionID: 99,
		PlayedS: 120, BufferingS: 3, WeightedKbpsSec: 150_000,
	}
	var buf []byte
	var out heartbeat.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = heartbeat.Append(buf[:0], &msg)
		if err != nil {
			b.Fatal(err)
		}
		if err := heartbeat.Decode(buf[4:], &out); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions (paper §6) ---------------------------------------------------

func BenchmarkExtension_CostBenefit(b *testing.B) {
	s := suiteForBench(b)
	b.ResetTimer()
	var advantage float64
	for i := 0; i < b.N; i++ {
		res, err := s.CostBenefit(io.Discard, metric.JoinFailure)
		if err != nil {
			b.Fatal(err)
		}
		// Advantage of cost-aware selection at a 5% budget.
		for j := range res.ByBenefitPerCost {
			if res.ByBenefitPerCost[j].Budget == 0.05 {
				advantage = res.ByBenefitPerCost[j].Alleviated - res.ByCoverage[j].Alleviated
			}
		}
	}
	b.ReportMetric(advantage, "bpc_advantage_at_5%_budget")
}

func BenchmarkExtension_OnlineDetector(b *testing.B) {
	genCfg, coreCfg := benchConfig()
	genCfg.Trace = epoch.Range{Start: 0, End: 24}
	genCfg.Events.Trace = genCfg.Trace
	g, err := synth.New(genCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var alerts int
	for i := 0; i < b.N; i++ {
		d, err := online.NewDetector(coreCfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.ForEach(d.Add); err != nil {
			b.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			b.Fatal(err)
		}
		alerts = d.Alerts
	}
	b.ReportMetric(float64(alerts)/24, "alerts/epoch")
}

// --- Sliding-window engine (sub-epoch streaming detection) -------------------

// windowBenchSetup pre-fills a one-hour window at the target hourly volume
// and returns the engine plus a function yielding tick i's session digests
// (the hour's sessions split evenly across the 60 one-minute sub-buckets).
func windowBenchSetup(b *testing.B, sessionsPerHour int) (*window.Engine, func(i int) []cluster.Lite) {
	b.Helper()
	lites := litesForParallelBench(b, sessionsPerHour)
	cfg := window.DefaultConfig()
	per := len(lites) / cfg.TicksPerEpoch
	tickLites := func(i int) []cluster.Lite {
		lo := (i % cfg.TicksPerEpoch) * per
		return lites[lo : lo+per]
	}
	eng, err := window.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(0); err != nil {
		b.Fatal(err)
	}
	for tk := 0; tk < cfg.Ticks; tk++ {
		for _, l := range tickLites(tk) {
			if err := eng.Observe(l); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.Advance(); err != nil {
			b.Fatal(err)
		}
	}
	return eng, tickLites
}

// BenchmarkWindowAdvance measures the incremental cost of sliding a full
// 60-minute window forward by one minute at 100k sessions/hour: digest the
// entering minute into its sub-bucket, merge it into the window total,
// unmerge the minute that expired. This is the O(delta) maintenance the
// streaming detector pays per tick; compare BenchmarkWindowRecompute, the
// O(window) rebuild a non-incremental per-minute evaluation would pay.
func BenchmarkWindowAdvance(b *testing.B) {
	const sessionsPerHour = 100_000
	eng, tickLites := windowBenchSetup(b, sessionsPerHour)
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range tickLites(i) {
			if err := eng.Observe(l); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.Advance(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sessionsPerHour/60), "sessions/tick")
}

// BenchmarkWindowAdvanceDetect is one full streaming-detector tick: the
// incremental advance plus critical-cluster analysis of the window snapshot.
func BenchmarkWindowAdvanceDetect(b *testing.B) {
	const sessionsPerHour = 100_000
	eng, tickLites := windowBenchSetup(b, sessionsPerHour)
	defer eng.Close()
	_, coreCfg := benchConfig()
	coreCfg.Thresholds = coreCfg.Thresholds.ScaleMinSessions(sessionsPerHour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range tickLites(i) {
			if err := eng.Observe(l); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.Advance(); err != nil {
			b.Fatal(err)
		}
		snap, err := eng.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.AnalyzeEpochTable(snap, coreCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowRecompute is the baseline the incremental engine replaces:
// rebuilding the full 60-minute count table from scratch, which a naive
// per-minute re-evaluation would do every tick.
func BenchmarkWindowRecompute(b *testing.B) {
	const sessionsPerHour = 100_000
	lites := litesForParallelBench(b, sessionsPerHour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := cluster.NewTable(0, lites, 0)
		if tbl.Len() == 0 {
			b.Fatal("empty table")
		}
		tbl.Release()
	}
}

// BenchmarkWindowRecomputeDetect is the full non-incremental per-minute
// evaluation: table rebuild plus critical-cluster analysis.
func BenchmarkWindowRecomputeDetect(b *testing.B) {
	const sessionsPerHour = 100_000
	lites := litesForParallelBench(b, sessionsPerHour)
	_, coreCfg := benchConfig()
	coreCfg.Thresholds = coreCfg.Thresholds.ScaleMinSessions(sessionsPerHour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeEpoch(0, lites, coreCfg); err != nil {
			b.Fatal(err)
		}
	}
}
