// Command vqlint runs the repo's static-analysis rules (internal/lint) over
// the given package patterns and exits non-zero on findings, so it can gate
// CI alongside go vet and the race detector.
//
// Usage:
//
//	vqlint [-rules floatcmp,lockbalance,...] [-list] [-j N]
//	       [-timing lint-timing.json] [patterns...]
//
// Patterns default to ./... and follow the go tool's shape. Findings print
// one per line as file:line:col: message [rule], relative to the working
// directory. The exit code is the gate: 0 clean, 1 findings, 2 a usage or
// load error. Suppress a finding with a trailing or preceding comment
// //vqlint:ignore <rule> <rationale>, or a //vqlint:ignore-start/-end block.
//
// Loading type-checks every in-module package once from source and reads
// the standard library from compiler export data, so the go command must be
// on PATH. Packages are then analyzed concurrently (-j bounds the workers,
// default one per CPU), and output order is deterministic regardless of
// worker count. -timing writes a JSON report of analysis wall time — per
// package, and per analyzer both within each package and totaled across the
// run — for CI artifact upload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vqlint", flag.ContinueOnError)
	rules := fs.String("rules", "", "comma-separated rule IDs to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	workers := fs.Int("j", runtime.NumCPU(), "number of packages analyzed concurrently")
	timingPath := fs.String("timing", "", "write per-package and per-analyzer timings (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc) //vqlint:ignore errdrop terminal output; the exit code is the result
		}
		return 0
	}

	analyzers := lint.All()
	if *rules != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "vqlint: unknown rule %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqlint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqlint: %v\n", err)
		return 2
	}
	diags, timings := lint.RunConcurrent(pkgs, analyzers, *workers)
	if *timingPath != "" {
		if err := saveTimings(*timingPath, timings); err != nil {
			fmt.Fprintf(os.Stderr, "vqlint: %v\n", err)
			return 2
		}
	}

	findings := toFindings(diags, cwd)
	for _, f := range findings {
		if _, err := fmt.Fprintln(stdout, f); err != nil {
			fmt.Fprintf(os.Stderr, "vqlint: %v\n", err)
			return 2
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vqlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
