package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lint"
)

func sampleDiags() []lint.Diagnostic {
	return []lint.Diagnostic{
		{Rule: "ratioguard", Pos: token.Position{Filename: "/work/internal/metric/counts.go", Line: 12, Column: 9}, Msg: "division by n is not dominated by a non-zero guard on every path"},
		{Rule: "lockbalance", Pos: token.Position{Filename: "/work/internal/collector/collector.go", Line: 40, Column: 2}, Msg: "mu reaches this return still locked"},
	}
}

func TestToFindingsRelativizes(t *testing.T) {
	fs := toFindings(sampleDiags(), "/work")
	if got, want := fs[0].File, "internal/metric/counts.go"; got != want {
		t.Errorf("File = %q, want %q", got, want)
	}
	if got, want := fs[0].String(), "internal/metric/counts.go:12:9: division by n is not dominated by a non-zero guard on every path [ratioguard]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// A file outside cwd stays as-is rather than sprouting ../ chains that
	// differ between checkouts.
	out := toFindings([]lint.Diagnostic{{Rule: "x", Pos: token.Position{Filename: "/elsewhere/a.go"}}}, "/work")
	if !strings.Contains(out[0].File, "..") && out[0].File != "/elsewhere/a.go" {
		t.Errorf("out-of-tree file mangled: %q", out[0].File)
	}
}

func TestSaveTimings(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "timing.json")
	if err := saveTimings(path, []lint.PkgTiming{
		{Path: "repro/internal/lint", Elapsed: 1234, Rules: map[string]time.Duration{"goleak": 1000, "(setup)": 234}},
		{Path: "repro/internal/collector", Elapsed: 567, Rules: map[string]time.Duration{"goleak": 500, "(setup)": 67}},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Packages []struct {
			Path      string           `json:"path"`
			ElapsedNs int64            `json:"elapsedNs"`
			RuleNs    map[string]int64 `json:"ruleNs"`
		} `json:"packages"`
		RuleNs map[string]int64 `json:"ruleNs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid timing JSON: %v\n%s", err, data)
	}
	if len(doc.Packages) != 2 || doc.Packages[0].ElapsedNs != 1234 {
		t.Errorf("unexpected timing document: %s", data)
	}
	if doc.Packages[0].RuleNs["goleak"] != 1000 {
		t.Errorf("per-package rule timing lost: %s", data)
	}
	// The cross-package per-analyzer totals are the headline numbers.
	if doc.RuleNs["goleak"] != 1500 || doc.RuleNs["(setup)"] != 301 {
		t.Errorf("per-rule totals wrong: %s", data)
	}
	// The empty report still has the {"packages":[]} shape.
	if err := saveTimings(path, nil); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if !strings.Contains(string(data), `"packages": []`) {
		t.Errorf("empty timing report must serialize packages as []: %s", data)
	}
}

// TestRunListAndBadFlags covers the CLI surface that needs no repository
// load.
func TestRunListAndBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-list"}, &buf); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, want := range []string{"lockbalance", "poolrelease", "errflow", "ratioguard", "floatcmp", "goleak", "chandiscipline", "wgbalance"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-list output missing %s", want)
		}
	}
	if code := run([]string{"-rules", "nosuchrule"}, &buf); code != 2 {
		t.Errorf("bad -rules exit = %d, want 2", code)
	}
}

// TestRunExitCodes drives full runs against a throwaway module in which ok
// imports bad, so the loader's in-module importer is exercised: the finding
// in bad fails the run, and linting ok alone passes.
func TestRunExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full analysis runs")
	}
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":     "module tmpmod\n\ngo 1.22\n",
		"bad/bad.go": "package bad\n\nfunc Eq(x, y float64) bool { return x == y }\n",
		"ok/ok.go":   "package ok\n\nimport \"tmpmod/bad\"\n\nfunc Same() bool { return bad.Eq(1, 2) }\n",
	} {
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// os.Chdir rather than t.Chdir keeps the test building on Go 1.22.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	var all bytes.Buffer
	if code := run([]string{"./..."}, &all); code != 1 {
		t.Fatalf("./... exit = %d, want 1 (the floatcmp finding)", code)
	}
	lines := strings.Split(strings.TrimSpace(all.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "bad/bad.go:") || !strings.HasSuffix(lines[0], "[floatcmp]") {
		t.Errorf("./... output = %q, want one bad/bad.go [floatcmp] line", all.String())
	}

	var ok bytes.Buffer
	if code := run([]string{"./ok"}, &ok); code != 0 {
		t.Errorf("./ok exit = %d, want 0; output %q", code, ok.String())
	}
}
