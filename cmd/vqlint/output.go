package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/lint"
)

// finding is the printed form of one diagnostic. File is relative to the
// invocation directory so output is stable across checkouts.
type finding struct {
	Rule string
	File string
	Line int
	Col  int
	Msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Msg, f.Rule)
}

func toFindings(diags []lint.Diagnostic, cwd string) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !filepath.IsAbs(rel) {
			file = filepath.ToSlash(rel)
		}
		out = append(out, finding{Rule: d.Rule, File: file, Line: d.Pos.Line, Col: d.Pos.Column, Msg: d.Msg})
	}
	return out
}

// timingDoc is the -timing report: per-package analysis wall time (with a
// per-rule breakdown each) in the deterministic package order of
// RunConcurrent, plus the per-analyzer totals across all packages — the
// number that answers "which rule is making CI slow".
type timingDoc struct {
	Packages []lint.PkgTiming         `json:"packages"`
	RuleNs   map[string]time.Duration `json:"ruleNs"`
}

func saveTimings(path string, timings []lint.PkgTiming) error {
	if timings == nil {
		timings = []lint.PkgTiming{}
	}
	totals := make(map[string]time.Duration)
	for _, pt := range timings {
		for rule, d := range pt.Rules {
			totals[rule] += d
		}
	}
	data, err := json.MarshalIndent(timingDoc{Packages: timings, RuleNs: totals}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
