// Command bench is the repository's benchmark: four workloads driven
// through the public functions of internal/*, end-to-end metrics from an
// untraced run, and a per-stage ledger from a traced one. See README.md.
//
// One workload, as the driver runs it:
//
//	bench --workload live-ring --seed 1 --seconds 10 --trace 0
//
// The whole suite, each workload in a child process of its own:
//
//	bench [-runs 3] [-trace 1] [-out bench/out/record.json]
//
// Two records side by side:
//
//	bench -compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as one JSON line")
		seed         = flag.Uint64("seed", 1, "seed of the synthetic universe")
		seconds      = flag.Float64("seconds", 10, "length of the timed section the unit counts are scaled to")
		traced       = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		smoke        = flag.Bool("smoke", false, "tiny sizes: every path runs in a few seconds")
		runs         = flag.Int("runs", 3, "suite mode: runs per workload")
		out          = flag.String("out", "", "suite mode: where the record goes (default <bench>/out/record.json)")
		detail       = flag.String("detail", "", "also write this run's full report to the named file")
		compare      = flag.Bool("compare", false, "compare two records: -compare OLD.json NEW.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args())
	case *workloadName != "":
		err = workloadMain(*workloadName, *seed, *seconds, *traced == 1, *smoke, *detail)
	default:
		err = suiteMain(*runs, *seed, *seconds, *traced == 1, *smoke, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchDir is the directory this package lives in: run.sh exports it, and
// `go run .` or `go test` start the program inside it.
func benchDir() (string, error) {
	if dir := os.Getenv("VQBENCH_DIR"); dir != "" {
		return dir, nil
	}
	return os.Getwd()
}

// scratchDir makes a directory of this process's own under the checkout's
// build directory; nothing is written outside the checkout.
func scratchDir() (string, error) {
	dir, err := benchDir()
	if err != nil {
		return "", err
	}
	base := filepath.Join(dir, "..", ".bench_build", "scratch")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// report is everything one run of one workload measured.
type report struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Sizes      sizes   `json:"sizes"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Digest    string `json:"result_digest"`
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics values `json:"metrics"`

	// ResultMsTail is the highest percentile of UnitMs with ten samples
	// beyond it.
	ResultMsTail         float64   `json:"result_ms_tail"`
	ResultTailPercentile float64   `json:"result_tail_percentile"`
	SetupsS              []float64 `json:"setups_s,omitempty"`
	// UnitMs is every result unit's latency, in order.
	UnitMs []float64 `json:"unit_ms"`

	// Ledger ranks the traced run's stages by self time.
	Ledger    []stageCost `json:"ledger,omitempty"`
	TraceFile string      `json:"trace_file,omitempty"`
}

// workloadMain runs one workload and prints the driver's result line.
func workloadMain(name string, seed uint64, seconds float64, traced, smoke bool, detail string) error {
	rep, err := runWorkload(name, seed, seconds, traced, smoke)
	if err != nil {
		return err
	}
	printReport(rep)
	if detail != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(detail, data, 0o644); err != nil {
			return err
		}
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metricOut{}}
	for name, v := range rep.Metrics {
		line.Metrics[name] = metricOut{v, unitOf(name)}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// printReport prints every metric by name with its unit.
func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  seconds %g  traced %v  GOMAXPROCS %d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.GOMAXPROCS)
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %16.4f %s\n", d.Name, rep.Metrics[d.Name], d.Unit)
	}
	fmt.Printf("  result units: %d samples, p50 %.3f ms, p%.0f %.3f ms\n",
		len(rep.UnitMs), median(rep.UnitMs), 100*rep.ResultTailPercentile, rep.ResultMsTail)
	fmt.Printf("  sessions attempted %d  failed %d  failed_share %.6f\n",
		rep.Attempted, rep.Failed, per(float64(rep.Failed), float64(rep.Attempted)))
	fmt.Printf("  result_digest %s\n", rep.Digest)
	for _, row := range rep.Ledger {
		fmt.Printf("  ledger %-34s share %6.3f  self %10.1f ms  total %10.1f ms  n %d\n",
			row.Stage, row.Share, row.SelfMs, row.TotalMs, row.Count)
	}
}

// runWorkload sets a workload up, runs its timed section (and, traced, a
// second one with spans and the stage probes), verifies the outputs and
// tears it down.
func runWorkload(name string, seed uint64, seconds float64, traced, smoke bool) (rep *report, err error) {
	ev := env{seed: seed, runs: 1}
	repeats := setupRepeats
	if traced {
		// The traced run reports no set-up time, and it measures twice:
		// an untraced reference and the traced section, half as long each.
		ev.runs, repeats, seconds = 2, 1, seconds/2
	}
	if smoke {
		repeats = 1
	}
	ev.sz = sizesFor(seconds, smoke)
	rep = &report{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Sizes: ev.sz, GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: values{},
	}

	if ev.dir, err = scratchDir(); err != nil {
		return nil, err
	}
	defer os.RemoveAll(ev.dir)
	var w workload
	for i := 0; i < repeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		if w, err = newWorkload(name, ev); err != nil {
			return nil, err
		}
		// Two collections empty the sync.Pools the previous set-up filled
		// (one moves them to the victim cache, the next drops that), so
		// every set-up starts from what a fresh process has and the timed
		// section does not inherit tables sized by an earlier one.
		runtime.GC()
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			_ = w.close() // the set-up error is the one worth surfacing
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		rep.SetupsS = append(rep.SetupsS, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	resetPeakRSS()
	mem := markMem()
	plain, err := w.run(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	delta := mem.since()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	rep.Attempted = plain.offered
	rep.Failed = plain.offered - plain.analysed
	rep.Digest = plain.digest
	rep.UnitMs = plain.resultMs()
	rep.ResultTailPercentile, rep.ResultMsTail = tail(rep.UnitMs)
	if plain.offered < 1 || plain.wall <= 0 {
		return nil, fmt.Errorf("%s: the timed section offered %d sessions in %v", name, plain.offered, plain.wall)
	}

	if !traced {
		rep.Metrics[mSetupS] = median(rep.SetupsS)
		rep.Metrics[mSessionsPerS] = plain.sessionsPerS()
		rep.Metrics[mResultMsP50] = median(rep.UnitMs)
	} else if err := traceWorkload(w, rep, plain, delta, rss); err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", name, err)
	}

	if err := w.verify(); err != nil {
		return nil, err
	}
	// A session missing from the analysed results is a failure the
	// driver sees in the counts; wrong results are an error above.
	rep.Correct = true
	return rep, nil
}

// traceWorkload runs the traced section and the stage probes and fills the
// per-layer metrics: probe costs, ledger shares, and the layers' counters.
func traceWorkload(w workload, rep *report, plain *outcome, delta memDelta, rss float64) error {
	tr := newTracer()
	spanned, err := w.run(tr)
	if err != nil {
		return err
	}
	rows, _, coverage := tr.ledger()
	rep.Ledger = rows

	dir, err := benchDir()
	if err != nil {
		return err
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Named relative to this directory, so a committed record names no
	// path of the host it was made on.
	rep.TraceFile = filepath.Join("out", "trace-"+rep.Workload+".jsonl")
	if err := tr.writeJSONL(filepath.Join(dir, rep.TraceFile)); err != nil {
		return err
	}

	gen, sessions := w.probeEpoch()
	probes, err := runProbes(gen, sessions, rep.Seed)
	if err != nil {
		return err
	}

	m := rep.Metrics
	for _, d := range perLayer {
		m[d.Name] = probes[d.Name] // zero for what no probe measures
	}
	for _, layer := range []values{spanned.layer, plain.layer} {
		for name, v := range layer {
			if unitOf(name) != "" {
				m[name] = v
			}
		}
	}
	for _, row := range rows {
		if name := row.Stage + ".share"; unitOf(name) != "" {
			m[name] = row.Share
		}
		// The table analysis is one public call. Its share is apportioned
		// among views, detections and summarize by the split the stage
		// probes measured for the same call on this workload's epoch.
		if row.Stage == "core.analyze_table" {
			view, detect, rest := probes["cluster.view_ms"], probes["critical.detect_ms"], probes["core.summarize_ms"]
			whole := view + detect + rest
			m["cluster.view.share"] = row.Share * per(view, whole)
			m["critical.detect.share"] = row.Share * per(detect, whole)
			m["core.summarize.share"] = row.Share * per(rest, whole)
		}
	}
	// What AddAt does beyond the calls the traced run composes: the
	// median sealing call of the untraced run minus the composed calls.
	if composed, ok := spanned.layer[composedTickKey]; ok {
		apply := median(rep.UnitMs) - composed
		if apply < 0 {
			apply = 0
		}
		m["online.apply.share"] = per(apply*float64(len(rep.UnitMs)), ms(plain.wall))
	}
	n := float64(plain.offered)
	m["runtime.alloc_bytes_per_session"] = per(delta.Bytes, n)
	m["runtime.allocs_per_session"] = per(delta.Allocs, n)
	m["runtime.gc_pause_ms"] = delta.PauseMs
	m["runtime.num_gc"] = delta.NumGC
	m["runtime.peak_rss_mb"] = rss
	m["bench.sessions_per_s_mean"] = float64(plain.offered) / plain.wall.Seconds()
	m["bench.span_coverage"] = coverage
	m["bench.trace_overhead_share"] = per(ms(spanned.wall)-ms(plain.wall), ms(plain.wall))
	m["bench.result_ms_tail"] = rep.ResultMsTail
	m["bench.result_tail_percentile"] = rep.ResultTailPercentile
	m["bench.result_samples"] = float64(len(rep.UnitMs))
	m["bench.failed_share"] = per(float64(rep.Failed), float64(rep.Attempted))
	return nil
}
