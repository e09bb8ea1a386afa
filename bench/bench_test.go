package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram checks both directions: everything
// BENCHMARK.json names the program reports, and the reverse.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, outside 1..60", file.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(workloadDefs))
	}
	for i, w := range file.Workloads {
		name(w.Name)
		if w != workloadDefs[i] {
			t.Errorf("workload %d: file has %+v, program %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, over 200", w.Name, len(w.Why))
		}
	}
	sameDefs := func(kind string, inFile, inProgram []metricDef) {
		if len(inFile) != len(inProgram) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(inFile), len(inProgram))
		}
		for i, d := range inFile {
			name(d.Name)
			if d != inProgram[i] {
				t.Errorf("%s metric %d: file has %+v, program %+v", kind, i, d, inProgram[i])
			}
		}
	}
	sameDefs("end_to_end", file.EndToEnd, endToEnd)
	sameDefs("per_layer", file.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmokeWorkloads runs every workload at smoke size: untraced twice on
// one seed (the digests must agree) and traced once.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	for _, def := range workloadDefs {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			var digests []string
			for i := 0; i < 2; i++ {
				rep, err := runWorkload(def.Name, 7, 1, false, true)
				if err != nil {
					t.Fatal(err)
				}
				checkReport(t, rep, endToEnd)
				for _, d := range endToEnd {
					if rep.Metrics[d.Name] <= 0 {
						t.Errorf("%s = %v, want > 0", d.Name, rep.Metrics[d.Name])
					}
				}
				digests = append(digests, rep.Digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("two runs on one seed gave digests %s and %s", digests[0], digests[1])
			}

			rep, err := runWorkload(def.Name, 7, 1, true, true)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
			if c := rep.Metrics["bench.span_coverage"]; c < 0.9 {
				t.Errorf("spans cover %.3f of the traced wall time, want >= 0.9", c)
			}
			if rep.Metrics["bench.failed_share"] != 0 {
				t.Errorf("failed_share = %v, want 0", rep.Metrics["bench.failed_share"])
			}
			var shares float64
			for _, row := range rep.Ledger {
				shares += row.Share
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("ledger shares sum to %.4f, want 1", shares)
			}
			if _, err := os.Stat(rep.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// checkReport checks the conservation ledger and that the run reported
// exactly the metrics of defs.
func checkReport(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if !rep.Correct {
		t.Error("run not marked correct")
	}
	if rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("attempted %d, failed %d: want sessions offered and every one analysed", rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("run reported %d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		if _, ok := rep.Metrics[d.Name]; !ok {
			t.Errorf("run did not report %s", d.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[i] = float64(i + 1)
	}
	p, x := tail(v)
	if p != 0.75 || x != 30 {
		t.Errorf("tail of 1..40 = p%v %v, want p0.75 30 (ten samples beyond)", p, x)
	}
	if p, x := tail(v[:5]); p != 1 || x != 5 {
		t.Errorf("tail of 5 samples = p%v %v, want the maximum", p, x)
	}
}

func TestLedgerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 0, End: 60, Parent: 0},
		{Name: "a", Start: 40, End: 80, Parent: 0}, // overlaps the first
		{Name: "b", Start: 10, End: 30, Parent: 1},
	}
	rows, wallMs, coverage := tr.ledger()
	if wallMs != 100e-6 || coverage != 0.8 {
		t.Errorf("wall %v ms, coverage %v; want 1e-4 ms, 0.8", wallMs, coverage)
	}
	self := map[string]float64{}
	for _, r := range rows {
		self[r.Stage] = r.SelfMs * 1e6
	}
	want := map[string]float64{"root": 20, "a": 60, "b": 20} // sums to the wall time
	for stage, w := range want {
		if math.Abs(self[stage]-w) > 1e-9 {
			t.Errorf("self time of %s = %v ns, want %v", stage, self[stage], w)
		}
	}
}

func TestJudge(t *testing.T) {
	old := summary{metricDef: metricDef{Name: "sessions_per_s", Better: "higher", Bound: 0.10}, Median: 100, Q1: 99, Q3: 101}
	cases := []struct {
		median float64
		want   string
	}{
		{100.5, verdictWithin},
		{95, verdictWithin},
		{89, verdictWorse},
		{110, verdictBetter},
	}
	for _, c := range cases {
		if _, got := judge(old, summary{Median: c.median}); got != c.want {
			t.Errorf("new median %v: verdict %s, want %s", c.median, got, c.want)
		}
	}
	noisy := old
	noisy.Q1, noisy.Q3 = 90, 105
	if _, got := judge(noisy, summary{Median: 80}); got != verdictUnresolved {
		t.Errorf("parent spread beyond the bound: verdict %s, want %s", got, verdictUnresolved)
	}
}
