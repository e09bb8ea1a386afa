package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestReportGolden runs the reduced evaluation in-process and compares its
// stdout with a committed golden: Suite.All at 48 epochs × 1000 sessions
// followed by every ablation, the HHH baseline comparison included. The
// golden was generated with
//
//	go run ./cmd/vqreport -epochs 48 -sessions 1000 > cmd/vqreport/testdata/report_e48_s1000.golden
//
// A change that moves a printed digit regenerates it with that command in
// the same commit and says why.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report_e48_s1000.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-epochs", "48", "-sessions", "1000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if bytes.Equal(stdout.Bytes(), want) {
		return
	}
	got, exp := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("stdout differs from the golden at line %d (%d lines vs %d):\n got: %q\nwant: %q",
				i+1, len(got), len(exp), g, e)
		}
	}
}

// TestRunRejectsBadFlags: flag errors exit 2 and an unknown table exits 1,
// both without writing to stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-epochs", "2", "-sessions", "50", "-table", "9"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown table: exit %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	if !strings.Contains(stderr.String(), "no table 9") {
		t.Errorf("stderr = %q, want the unknown-table error", stderr.String())
	}
}
