package main

import (
	"errors"
	"fmt"
)

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within"
	verdictUnresolved = "unresolved"
)

// judge compares the new median with the old one. A move counts only beyond
// the old runs' own quartile spread; where that spread is wider than the
// bound the runs cannot resolve a regression of the bound's size, and the
// verdict says so instead of "within".
func judge(old, cur summary) (delta float64, verdict string) {
	if old.Median <= 0 {
		return 0, verdictUnresolved
	}
	delta = (cur.Median - old.Median) / old.Median
	worse := delta
	if old.Better == "higher" {
		worse = -delta
	}
	noise := (old.Q3 - old.Q1) / old.Median
	if noise < 0 {
		noise = -noise
	}
	switch {
	case noise > old.Bound:
		return delta, verdictUnresolved
	case worse > old.Bound:
		return delta, verdictWorse
	case worse < -noise && worse < 0:
		return delta, verdictBetter
	}
	return delta, verdictWithin
}

// compareMain prints OLD against NEW, benchstat-style, and fails on any
// worse verdict, a higher failed share, or a changed result digest.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare OLD.json NEW.json")
	}
	old, err := loadRecord(args[0])
	if err != nil {
		return err
	}
	cur, err := loadRecord(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("old: %s  commit %s  %d cores  %s\n", args[0], old.Host.Commit, old.Host.Cores, old.Host.GoVersion)
	fmt.Printf("new: %s  commit %s  %d cores  %s\n", args[1], cur.Host.Commit, cur.Host.Cores, cur.Host.GoVersion)

	var problems []string
	for _, ow := range old.Workloads {
		var nw *workloadRecord
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == ow.Name {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			problems = append(problems, fmt.Sprintf("%s: missing from the new record", ow.Name))
			continue
		}
		fmt.Printf("\n%s\n", ow.Name)
		fmt.Printf("  %-16s %-5s %14s %25s %14s %25s %8s %6s  %s\n",
			"metric", "unit", "old median", "[q1, q3]", "new median", "[q1, q3]", "delta", "bound", "verdict")
		for _, os := range ow.EndToEnd {
			for _, ns := range nw.EndToEnd {
				if ns.Name != os.Name {
					continue
				}
				delta, verdict := judge(os, ns)
				fmt.Printf("  %-16s %-5s %14.4f %25s %14.4f %25s %+7.2f%% %6.2f  %s\n",
					os.Name, os.Unit, os.Median, fmt.Sprintf("[%.4f, %.4f]", os.Q1, os.Q3),
					ns.Median, fmt.Sprintf("[%.4f, %.4f]", ns.Q1, ns.Q3), 100*delta, os.Bound, verdict)
				if verdict == verdictWorse {
					problems = append(problems, fmt.Sprintf("%s: %s is worse by %.2f%% (bound %.0f%%)", ow.Name, os.Name, 100*delta, 100*os.Bound))
				}
			}
		}
		fmt.Printf("  failed_share     old %.6f  new %.6f\n", ow.FailedShare, nw.FailedShare)
		if nw.FailedShare > ow.FailedShare {
			problems = append(problems, fmt.Sprintf("%s: failed_share rose from %.6f to %.6f", ow.Name, ow.FailedShare, nw.FailedShare))
		}
		sameInputs := old.Seed == cur.Seed && ow.Sizes == nw.Sizes
		switch {
		case !sameInputs:
			fmt.Printf("  result_digest    not comparable: the records differ in seed or sizes\n")
		case ow.Digest != nw.Digest:
			problems = append(problems, fmt.Sprintf("%s: result_digest changed from %s to %s on the same inputs", ow.Name, ow.Digest, nw.Digest))
		default:
			fmt.Printf("  result_digest    identical\n")
		}
	}
	if len(problems) > 0 {
		fmt.Println()
		for _, p := range problems {
			fmt.Println("FAIL", p)
		}
		return fmt.Errorf("%d regressions", len(problems))
	}
	return nil
}
