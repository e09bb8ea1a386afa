package main

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics. It must
// agree with BENCHMARK.json at the repository root; bench_test.go checks
// both directions.

// schemaVersion names the layout of the records this program writes.
const schemaVersion = "vqbench/1"

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metric names. Every workload reports every one of them, and
// none of them can be zero.
const (
	mSetupS       = "setup_s"
	mSessionsPerS = "sessions_per_s"
	mResultMsP50  = "result_ms_p50"
)

// endToEnd lists the metrics a user of the system would see, with the
// share of the parent's median by which each may worsen.
var endToEnd = []metricDef{
	{mSetupS, "s", "lower", 0.25},
	{mSessionsPerS, "1/s", "higher", 0.10},
	{mResultMsP50, "ms", "lower", 0.10},
}

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"live-ring", "2 ack-mode players -> 2 ingest nodes -> aggregator over loopback, epochs of 5000 sessions; only here do heartbeat and ingest carry the wall time"},
	{"stream-tick", "online.Detector.Streaming at 20000 sessions/hour, 60 ticks/epoch; only here do window, cktable merge/unmerge and the tick path maintain a long-lived table"},
	{"batch-trace", "core.AnalyzeTrace over a gzip trace of 6 epochs x 20000 sessions at default workers; trace I/O, digest, fresh sharded table builds and the engine pipeline dominate"},
	{"paper-suite", "experiments.NewSuite at 24 epochs x 5000 sessions then Suite.All; epoch-parallel AnalyzeGenerator on many small tables plus synth, analysis, whatif and hhh"},
}

// perLayer lists the single-layer metrics of the traced run. Times are
// stage probes over the workload's own first epoch, so every workload
// measures every one of them; shares come from the traced run's spans and
// are zero for a stage that is not on the workload's path; counts are read
// from the layers' own Stats.
var perLayer = []metricDef{
	// Stage probes: cost of one call into a layer's public function.
	{"session.codec_ns", "ns", "lower", 0},
	{"session.codec_allocs_per_op", "count", "lower", 0},
	{"heartbeat.protocol_ns", "ns", "lower", 0},
	{"heartbeat.protocol_allocs_per_op", "count", "lower", 0},
	{"heartbeat.assembler_ns", "ns", "lower", 0},
	{"heartbeat.assembler_allocs_per_op", "count", "lower", 0},
	{"heartbeat.sender_emit_us_p50", "us", "lower", 0},
	{"heartbeat.spool_emit_ns", "ns", "lower", 0},
	{"ingest.ring_owner_ns", "ns", "lower", 0},
	{"ingest.agg_ingest_ns", "ns", "lower", 0},
	{"ingest.agg_seal_ms", "ms", "lower", 0},
	{"trace.write_ns", "ns", "lower", 0},
	{"trace.read_ns", "ns", "lower", 0},
	{"trace.read_allocs_per_op", "count", "lower", 0},
	{"cluster.digest_ns", "ns", "lower", 0},
	{"cluster.build_ms", "ms", "lower", 0},
	{"cluster.build_b_per_op", "B", "lower", 0},
	{"cluster.build_allocs_per_op", "count", "lower", 0},
	{"cluster.build_parallel_ms", "ms", "lower", 0},
	{"cluster.keys_per_session", "count", "lower", 0},
	{"cktable.merge_ms", "ms", "lower", 0},
	{"cktable.unmerge_ms", "ms", "lower", 0},
	{"cluster.view_ms", "ms", "lower", 0},
	{"cluster.view_b_per_op", "B", "lower", 0},
	{"cluster.view_allocs_per_op", "count", "lower", 0},
	{"cluster.problem_clusters_per_epoch", "count", "lower", 0},
	{"critical.detect_ms", "ms", "lower", 0},
	{"critical.detect_b_per_op", "B", "lower", 0},
	{"critical.detect_allocs_per_op", "count", "lower", 0},
	{"critical.clusters_per_epoch", "count", "lower", 0},
	{"core.analyze_table_ms", "ms", "lower", 0},
	{"core.summarize_ms", "ms", "lower", 0},
	{"core.analyze_epoch_w1_ms", "ms", "lower", 0},
	{"core.analyze_epoch_wn_ms", "ms", "lower", 0},
	{"window.observe_ns", "ns", "lower", 0},
	{"window.advance_ms_p50", "ms", "lower", 0},
	{"window.snapshot_ms_p50", "ms", "lower", 0},
	{"online.add_ns", "ns", "lower", 0},
	{"online.eval_tick_ms_p50", "ms", "lower", 0},
	{"hhh.detect_ms", "ms", "lower", 0},
	{"hhh.detect_from_table_ms", "ms", "lower", 0},
	{"synth.epoch_gen_ms", "ms", "lower", 0},

	// Shares of the traced run's wall time, by self time of the spans.
	{"heartbeat.sender_emit.share", "ratio", "lower", 0},
	{"ingest.relay_drain.share", "ratio", "lower", 0},
	{"ingest.agg_seal.share", "ratio", "lower", 0},
	{"trace.read.share", "ratio", "lower", 0},
	{"cluster.digest.share", "ratio", "lower", 0},
	{"cluster.build.share", "ratio", "lower", 0},
	{"cluster.view.share", "ratio", "lower", 0},
	{"critical.detect.share", "ratio", "lower", 0},
	{"core.summarize.share", "ratio", "lower", 0},
	{"window.observe.share", "ratio", "lower", 0},
	{"window.advance.share", "ratio", "lower", 0},
	{"window.snapshot.share", "ratio", "lower", 0},
	{"online.apply.share", "ratio", "lower", 0},
	{"experiments.analyze_generator.share", "ratio", "lower", 0},
	{"experiments.report.share", "ratio", "lower", 0},
	{"bench.span_coverage", "ratio", "higher", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},

	// Counts and sizes from the layers' own accounting.
	{"heartbeat.frames_per_session", "count", "lower", 0},
	{"heartbeat.wire_bytes_per_session", "B", "lower", 0},
	{"heartbeat.spool_shed", "count", "lower", 0},
	{"heartbeat.salvaged", "count", "lower", 0},
	{"heartbeat.replays_dropped", "count", "lower", 0},
	{"heartbeat.sender_reconnects", "count", "lower", 0},
	{"ingest.relay_wire_bytes_per_session", "B", "lower", 0},
	{"ingest.relay_segments_sealed", "count", "lower", 0},
	{"ingest.relay_shed", "count", "lower", 0},
	{"ingest.agg_dup_sessions", "count", "lower", 0},
	{"ingest.agg_late_sessions", "count", "lower", 0},
	{"ingest.degraded_epochs", "count", "lower", 0},
	{"ingest.node1_session_share", "ratio", "lower", 0},
	{"trace.disk_bytes_per_session", "B", "lower", 0},
	{"engine.submit_stalls", "count", "lower", 0},
	{"engine.input_waits", "count", "lower", 0},
	{"online.alerts", "count", "lower", 0},
	{"online.tick_alerts", "count", "lower", 0},
	{"online.gap_epochs", "count", "lower", 0},
	{"runtime.alloc_bytes_per_session", "B", "lower", 0},
	{"runtime.allocs_per_session", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.num_gc", "count", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"bench.sessions_per_s_mean", "1/s", "higher", 0},
	{"bench.result_ms_tail", "ms", "lower", 0},
	{"bench.result_tail_percentile", "ratio", "higher", 0},
	{"bench.result_samples", "count", "higher", 0},
	{"bench.failed_share", "ratio", "lower", 0},
}

// values is one run's metrics by name.
type values map[string]float64

// unitOf returns the unit of a defined metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
