// Package core orchestrates the paper's end-to-end analysis: it turns a
// trace (streamed from disk or regenerated synthetically) into per-epoch,
// per-metric summaries — problem clusters, critical clusters with
// attribution, and coverage — that the temporal analyses (§4), the
// breakdowns (§4.3), and the what-if simulations (§5) consume.
//
// Epochs are analysed independently and in parallel; the retained summaries
// are compact (cluster keys and tallies, never raw sessions), so two-week
// traces analyse in memory comfortably.
package core

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/critical"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Config parameterises the analysis.
type Config struct {
	// Thresholds are the problem-session and problem-cluster thresholds.
	Thresholds metric.Thresholds
	// MaxDims caps the attribute-subset sizes enumerated (0 = all seven,
	// the paper's full hierarchy).
	MaxDims int
	// Options tunes the critical-cluster detector.
	Options critical.Options
	// Workers bounds analysis parallelism (0 = GOMAXPROCS): the shard
	// count of the per-epoch aggregation and the fan-out of trace-level
	// epoch analysis.
	Workers int
	// KeepProblemKeys retains the per-epoch problem-cluster key sets
	// (needed by the prevalence/persistence analyses; on by default in
	// DefaultConfig).
	KeepProblemKeys bool
}

// DefaultConfig returns the analysis configuration used across the
// reproduction, with the cluster-size floor scaled to the epoch volume.
func DefaultConfig(sessionsPerEpoch int) Config {
	return Config{
		Thresholds:      metric.Default().ScaleMinSessions(sessionsPerEpoch),
		Options:         critical.DefaultOptions(),
		KeepProblemKeys: true,
	}
}

// CriticalSummary is the retained record of one critical cluster.
type CriticalSummary struct {
	Key                attr.Key
	Sessions           int32
	Problems           int32
	Ratio              float64
	AttributedProblems float64
	AttributedSessions float64
	ProblemClusters    float64
}

// MetricSummary is the retained analysis of one (epoch, metric) pair.
type MetricSummary struct {
	Metric         metric.Metric
	GlobalSessions int32
	GlobalProblems int32
	GlobalRatio    float64
	Threshold      float64

	// NumProblemClusters counts the epoch's problem clusters.
	NumProblemClusters int
	// ProblemKeys holds the problem-cluster keys when retained.
	ProblemKeys []attr.Key
	// Critical lists the epoch's critical clusters, sorted by key.
	Critical []CriticalSummary
	// CoveredProblems counts problem sessions inside ≥1 critical cluster.
	CoveredProblems int32
	// ProblemsInProblemClusters counts problem sessions inside ≥1 problem
	// cluster.
	ProblemsInProblemClusters int32
}

// CriticalCoverage returns the fraction of problem sessions covered by
// critical clusters.
func (ms *MetricSummary) CriticalCoverage() float64 {
	if ms.GlobalProblems == 0 {
		return 0
	}
	return float64(ms.CoveredProblems) / float64(ms.GlobalProblems)
}

// ProblemCoverage returns the fraction of problem sessions inside problem
// clusters.
func (ms *MetricSummary) ProblemCoverage() float64 {
	if ms.GlobalProblems == 0 {
		return 0
	}
	return float64(ms.ProblemsInProblemClusters) / float64(ms.GlobalProblems)
}

// CriticalSet returns the epoch's critical keys as a set.
func (ms *MetricSummary) CriticalSet() map[attr.Key]bool {
	set := make(map[attr.Key]bool, len(ms.Critical))
	for i := range ms.Critical {
		set[ms.Critical[i].Key] = true
	}
	return set
}

// EpochResult bundles the four metric summaries of one epoch.
type EpochResult struct {
	Epoch   epoch.Index
	Metrics [metric.NumMetrics]MetricSummary
}

// TraceResult is the full analysis of a trace.
type TraceResult struct {
	Trace      epoch.Range
	Thresholds metric.Thresholds
	// Epochs holds one result per epoch, ordered; index i is epoch
	// Trace.Start+i.
	Epochs []EpochResult
	// Pipeline counts the stalls of AnalyzeTrace's read/analysis hand-off
	// (zero for other producers).
	Pipeline HandOffStats
}

// HandOffStats counts the two ways AnalyzeTrace's one-slot hand-off
// between trace reading and epoch analysis can stall.
type HandOffStats struct {
	// SubmitStalls counts epochs the reader could not hand off at once
	// because the slot was still full: analysis is the bottleneck.
	SubmitStalls uint64
	// InputWaits counts times the analysis goroutine found the slot empty:
	// reading is the bottleneck.
	InputWaits uint64
}

// At returns the result of epoch e, or nil when outside the trace.
func (tr *TraceResult) At(e epoch.Index) *EpochResult {
	if !tr.Trace.Contains(e) {
		return nil
	}
	return &tr.Epochs[int(e-tr.Trace.Start)]
}

// Slice returns a TraceResult restricted to sub-range r (shared epochs).
func (tr *TraceResult) Slice(r epoch.Range) *TraceResult {
	if r.Start < tr.Trace.Start {
		r.Start = tr.Trace.Start
	}
	if r.End > tr.Trace.End {
		r.End = tr.Trace.End
	}
	return &TraceResult{
		Trace:      r,
		Thresholds: tr.Thresholds,
		Epochs:     tr.Epochs[int(r.Start-tr.Trace.Start):int(r.End-tr.Trace.Start)],
	}
}

// minShardedSessions keeps small epochs on the serial path: below this
// volume the shard fan-out and merge walk cost more than the enumeration
// they parallelise. The sharded and serial paths are bit-identical (the
// differential tests prove it), so the cutover is purely a perf heuristic.
const minShardedSessions = 2048

// effectiveWorkers resolves the configured worker count for one epoch.
func effectiveWorkers(workers, sessions int) int {
	w := cluster.ResolveWorkers(workers)
	if sessions < minShardedSessions {
		return 1
	}
	return w
}

// AnalyzeEpoch analyses one epoch of digested sessions. The count table is
// drawn from the aggregation-engine pool and returned to it before this
// function returns (the summaries copy everything they keep), so a
// steady-state stream of epochs rebuilds the table without allocating.
//
// When cfg.Workers resolves to more than one and the epoch is large enough,
// the table is built by sharding sessions across workers (see
// cluster.NewTableParallel) and the four per-metric view/detect passes run
// concurrently. Results are byte-identical to the serial path for any
// worker count: table counts are exact integer sums, the per-metric
// summaries share no accumulation state, and every retained slice is
// sorted.
func AnalyzeEpoch(e epoch.Index, lites []cluster.Lite, cfg Config) (*EpochResult, error) {
	if err := cfg.Thresholds.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	workers := effectiveWorkers(cfg.Workers, len(lites))
	var tbl *cluster.Table
	if workers > 1 {
		tbl = cluster.NewTableParallel(e, lites, cfg.MaxDims, workers)
	} else {
		tbl = cluster.NewTable(e, lites, cfg.MaxDims)
	}
	defer tbl.Release()
	return analyzeTable(tbl, cfg, workers)
}

// AnalyzeEpochTable analyses a pre-built count table — the aggregator's and
// the window engine's path, where the table was counted session by session
// as sessions arrived (see cluster.AssembleTable) rather than built from
// one local session slice.
// The caller keeps ownership of tbl and releases it. Results are identical
// to AnalyzeEpoch over the same sessions in the same order: table counts
// are exact integer sums however they were accumulated, and every float
// pass reads the table and tbl.Sessions deterministically.
func AnalyzeEpochTable(tbl *cluster.Table, cfg Config) (*EpochResult, error) {
	if err := cfg.Thresholds.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return analyzeTable(tbl, cfg, effectiveWorkers(cfg.Workers, len(tbl.Sessions)))
}

// analyzeTable runs the per-metric view/detect passes over a built table.
func analyzeTable(tbl *cluster.Table, cfg Config, workers int) (*EpochResult, error) {
	res := &EpochResult{Epoch: tbl.Epoch}
	if workers > 1 {
		// Fan the independent metrics out as a second parallel dimension:
		// each goroutine reads the shared (now read-only) table and writes
		// only its own res.Metrics cell.
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		for _, m := range metric.All() {
			wg.Add(1)
			go func(m metric.Metric) {
				defer wg.Done()
				view, err := cluster.BuildView(tbl, m, cfg.Thresholds)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				det := critical.DetectOpts(view, cfg.Options)
				res.Metrics[m] = summarize(m, view, det, cfg.KeepProblemKeys)
			}(m)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		return res, nil
	}
	for _, m := range metric.All() {
		view, err := cluster.BuildView(tbl, m, cfg.Thresholds)
		if err != nil {
			return nil, err
		}
		det := critical.DetectOpts(view, cfg.Options)
		res.Metrics[m] = summarize(m, view, det, cfg.KeepProblemKeys)
	}
	return res, nil
}

func summarize(m metric.Metric, v *cluster.View, det *critical.Result, keepProblemKeys bool) MetricSummary {
	ms := MetricSummary{
		Metric:                    m,
		GlobalSessions:            v.GlobalSessions,
		GlobalProblems:            v.GlobalProblems,
		GlobalRatio:               v.GlobalRatio,
		Threshold:                 v.Threshold,
		NumProblemClusters:        len(v.Problem),
		CoveredProblems:           det.CoveredProblems,
		ProblemsInProblemClusters: det.ProblemsInProblemClusters,
	}
	if keepProblemKeys {
		ms.ProblemKeys = make([]attr.Key, 0, len(v.Problem))
		for k := range v.Problem {
			ms.ProblemKeys = append(ms.ProblemKeys, k)
		}
		sort.Slice(ms.ProblemKeys, func(i, j int) bool { return ms.ProblemKeys[i].Less(ms.ProblemKeys[j]) })
	}
	for _, k := range det.Keys() {
		c := det.Critical[k]
		ms.Critical = append(ms.Critical, CriticalSummary{
			Key:                k,
			Sessions:           c.Counts.Sessions(m),
			Problems:           c.Counts.Problems[m],
			Ratio:              c.Counts.Ratio(m),
			AttributedProblems: c.AttributedProblems,
			AttributedSessions: c.AttributedSessions,
			ProblemClusters:    c.ProblemClusters,
		})
	}
	return ms
}

// AnalyzeGenerator regenerates every epoch from the synthetic generator and
// analyses them in parallel. Parallelism here is across epochs (the
// generator produces them independently), so each AnalyzeEpoch call runs
// serially within its worker — sharding inside an epoch on top of the epoch
// fan-out would oversubscribe without adding concurrency.
func AnalyzeGenerator(g *synth.Generator, cfg Config) (*TraceResult, error) {
	tr := &TraceResult{
		Trace:      g.Config().Trace,
		Thresholds: cfg.Thresholds,
		Epochs:     make([]EpochResult, g.Config().Trace.Len()),
	}
	epochCfg := cfg
	epochCfg.Workers = 1
	err := g.ForEachEpoch(cfg.Workers, func(e epoch.Index, batch []session.Session) error {
		lites := make([]cluster.Lite, len(batch))
		for i := range batch {
			lites[i] = cluster.Digest(&batch[i], cfg.Thresholds)
		}
		res, err := AnalyzeEpoch(e, lites, epochCfg)
		if err != nil {
			return err
		}
		tr.Epochs[int(e-tr.Trace.Start)] = *res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// AnalyzeTrace streams a trace reader (sessions ordered by epoch, as the
// generator and collector write them) and analyses it epoch by epoch. The
// calling goroutine reads and digests epoch N+1 while one analysis
// goroutine runs AnalyzeEpoch on epoch N; a one-slot channel hands each
// completed epoch over, so epochs are analysed in order and at most one
// waits between the two. The first analysis error is returned, every
// return path ends the analysis goroutine, and the hand-off's stall
// counters come back on the result.
func AnalyzeTrace(r *trace.Reader, cfg Config) (*TraceResult, error) {
	// epochJob is one completed epoch; its lites buffer travels with it.
	type epochJob struct {
		e     epoch.Index
		lites []cluster.Lite
	}
	var (
		stats   HandOffStats
		results = make(map[epoch.Index]*EpochResult)
		slot    = make(chan epochJob, 1)
		// done closes when the analysis goroutine exits: after slot closes,
		// or at the first analysis error, which it leaves in analysisErr.
		// results, analysisErr and stats.InputWaits belong to that
		// goroutine until then.
		done        = make(chan struct{})
		analysisErr error
	)
	go func() {
		defer close(done)
		for {
			var (
				j  epochJob
				ok bool
			)
			select {
			case j, ok = <-slot:
			default:
				stats.InputWaits++
				j, ok = <-slot
			}
			if !ok {
				return
			}
			res, err := AnalyzeEpoch(j.e, j.lites, cfg)
			if err != nil {
				analysisErr = err
				return
			}
			results[j.e] = res
		}
	}()
	// stop closes the hand-off and waits for the analysis goroutine.
	stop := func() error {
		close(slot)
		<-done
		return analysisErr
	}

	var (
		cur   epoch.Index
		lites []cluster.Lite
		any   bool
		lo    epoch.Index
		hi    epoch.Index
	)
	// flush hands the current epoch over, blocking while the slot is full;
	// it reports false once the analysis goroutine has failed.
	flush := func() bool {
		if len(lites) == 0 {
			return true
		}
		j := epochJob{e: cur, lites: lites}
		select {
		case slot <- j:
		default:
			stats.SubmitStalls++
			select {
			case slot <- j:
			case <-done:
				return false
			}
		}
		lites = make([]cluster.Lite, 0, len(j.lites))
		return true
	}
	var s session.Session
	for {
		err := r.Next(&s)
		if err == io.EOF {
			break
		}
		if err != nil {
			_ = stop() // the read error is the one worth surfacing
			return nil, err
		}
		if !any {
			any = true
			cur, lo, hi = s.Epoch, s.Epoch, s.Epoch
		}
		if s.Epoch != cur {
			if s.Epoch < cur {
				_ = stop() // the ordering error is the one worth surfacing
				return nil, fmt.Errorf("core: trace not ordered by epoch (%d after %d)", s.Epoch, cur)
			}
			if !flush() {
				return nil, stop()
			}
			cur = s.Epoch
		}
		if s.Epoch > hi {
			hi = s.Epoch
		}
		lites = append(lites, cluster.Digest(&s, cfg.Thresholds))
	}
	flush() // a failed hand-off leaves its error for stop
	if err := stop(); err != nil {
		return nil, err
	}
	if !any {
		return nil, fmt.Errorf("core: empty trace")
	}

	tr := &TraceResult{
		Trace:      epoch.Range{Start: lo, End: hi + 1},
		Thresholds: cfg.Thresholds,
		Epochs:     make([]EpochResult, int(hi-lo)+1),
		Pipeline:   stats,
	}
	for e, res := range results {
		tr.Epochs[int(e-lo)] = *res
	}
	// Epochs absent from the file remain zero-valued with their index set.
	for i := range tr.Epochs {
		if tr.Epochs[i].Epoch == 0 && epoch.Index(i)+lo != 0 {
			tr.Epochs[i].Epoch = lo + epoch.Index(i)
		}
	}
	return tr, nil
}
