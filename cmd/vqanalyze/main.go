// Command vqanalyze runs the paper's clustering and critical-cluster
// analysis over a trace file produced by vqgen (or the heartbeat collector)
// and prints the headline structure: global problem ratios, problem and
// critical cluster counts, coverage, and the top critical clusters per
// metric with named attributes.
//
// Usage:
//
//	vqanalyze -trace trace.vqt.gz [-top 10] [-metric BufRatio]
//	vqanalyze -trace trace.vqt.gz -drill "CDN=cdn-03" -metric JoinFailure -epoch 5
//
// The -drill form runs the §6 diagnostic extension: it decomposes the named
// cluster across every free attribute dimension for one epoch and reports
// whether the elevation is uniform (the cause anchors there) or
// concentrated (refine the investigation), plus suggested remedies.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/session"
	"repro/internal/trace"
)

// runDrill re-reads the trace, isolates one epoch, and runs the diagnostic
// drill-down for the named cluster.
func runDrill(space *attr.Space, path, keyText, metricName string, at int, cfg core.Config) error {
	if metricName == "" {
		return fmt.Errorf("-drill requires -metric")
	}
	m, err := metric.Parse(metricName)
	if err != nil {
		return err
	}
	key, err := space.ParseKey(keyText)
	if err != nil {
		return err
	}
	var lites []cluster.Lite
	// Prefer the epoch index (vqgen -index) for random access; fall back to
	// a full scan.
	if idx, err := trace.LoadIndex(path + ".idx"); err == nil {
		batch, err := trace.ReadEpoch(path, idx, epoch.Index(at))
		if err != nil {
			return err
		}
		for i := range batch {
			lites = append(lites, cluster.Digest(&batch[i], cfg.Thresholds))
		}
	} else {
		r, err := trace.Open(path)
		if err != nil {
			return err
		}
		defer r.Close()
		err = r.ForEach(func(s *session.Session) error {
			if s.Epoch == epoch.Index(at) {
				lites = append(lites, cluster.Digest(s, cfg.Thresholds))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(lites) == 0 {
		return fmt.Errorf("epoch %d has no sessions in %s", at, path)
	}
	tbl := cluster.NewTable(epoch.Index(at), lites, cfg.MaxDims)
	defer tbl.Release()
	view, err := cluster.BuildView(tbl, m, cfg.Thresholds)
	if err != nil {
		return err
	}
	rep, err := diagnose.Drill(view, key, space)
	if err != nil {
		return err
	}
	fmt.Println(rep.Summary())
	fmt.Println()
	for _, bd := range rep.Dimensions {
		t := report.Table{
			Title:   fmt.Sprintf("Decomposition along %s (elevated share %s)", bd.Dim, report.Pct(bd.ElevatedShare)),
			Columns: []string{"Value", "Sessions", "Problems", "Ratio", "Elevated"},
		}
		limit := len(bd.Children)
		if limit > 8 {
			limit = 8
		}
		for _, c := range bd.Children[:limit] {
			t.AddRow(c.Name, c.Sessions, c.Problems, c.Ratio, fmt.Sprintf("%v", c.Elevated))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vqanalyze: ")
	var (
		path       = flag.String("trace", "", "trace file to analyse (required)")
		top        = flag.Int("top", 10, "top critical clusters to print per metric")
		metricName = flag.String("metric", "", "restrict output to one metric (BufRatio, Bitrate, JoinTime, JoinFailure)")
		minSess    = flag.Int("min-sessions", 0, "override the cluster size floor (0 = scale from volume)")
		drill      = flag.String("drill", "", "diagnose this cluster (e.g. \"CDN=cdn-03\"); requires -metric and -epoch")
		drillEpoch = flag.Int("epoch", 0, "epoch for -drill")
		workers    = flag.Int("workers", 0, "analysis shards per epoch (0 = GOMAXPROCS)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := prof.WriteHeap(*memprofile); err != nil {
			log.Print(err)
		}
	}()

	r, err := trace.Open(*path)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	hdr := r.Header()
	space, err := hdr.Space()
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig(4000)
	if *minSess > 0 {
		cfg.Thresholds.MinClusterSessions = *minSess
	}
	cfg.Workers = *workers

	if *drill != "" {
		if err := runDrill(space, *path, *drill, *metricName, *drillEpoch, cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	tr, err := core.AnalyzeTrace(r, cfg)
	if err != nil {
		log.Fatal(err)
	}

	metrics := metric.All()
	if *metricName != "" {
		m, err := metric.Parse(*metricName)
		if err != nil {
			log.Fatal(err)
		}
		metrics = [metric.NumMetrics]metric.Metric{m, m, m, m}
		metrics[1], metrics[2], metrics[3] = m, m, m // single metric, printed once below
	}

	// Headline table.
	t := report.Table{
		Title: fmt.Sprintf("Analysis of %s: %d epochs", *path, tr.Trace.Len()),
		Columns: []string{"Metric", "GlobalRatio", "ProblemClusters/epoch",
			"CriticalClusters/epoch", "ProblemCoverage", "CriticalCoverage"},
	}
	rows := analysis.Table1(tr)
	printed := map[metric.Metric]bool{}
	var order []metric.Metric // metrics in first-seen order, for deterministic output
	for _, m := range metrics {
		if printed[m] {
			continue
		}
		printed[m] = true
		order = append(order, m)
		var ratio float64
		for i := range tr.Epochs {
			ms := &tr.Epochs[i].Metrics[m]
			if ms.GlobalSessions > 0 {
				ratio += float64(ms.GlobalProblems) / float64(ms.GlobalSessions)
			}
		}
		if n := len(tr.Epochs); n > 0 {
			ratio /= float64(n)
		}
		row := rows[m]
		t.AddRow(m.String(), ratio, row.MeanProblemClusters, row.MeanCriticalClusters,
			report.Pct(row.MeanProblemCoverage), report.Pct(row.MeanCriticalCoverage))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Top critical clusters per metric.
	for _, m := range order {
		h := analysis.BuildHistory(tr, m)
		keys := h.TopCritical(*top)
		ct := report.Table{
			Title:   fmt.Sprintf("\nTop critical clusters — %s (by attributed problem sessions)", m),
			Columns: []string{"#", "CriticalCluster", "Prevalence", "MaxStreakH", "AttributedProblems"},
		}
		for i, k := range keys {
			ks := h.Critical[k]
			_, max := h.Persistence(analysis.CriticalClusters, k)
			ct.AddRow(i+1, space.FormatKey(k),
				report.Pct(h.Prevalence(analysis.CriticalClusters, k)), max, ks.TotalProblems)
		}
		if err := ct.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
