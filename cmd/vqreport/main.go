// Command vqreport regenerates the paper's evaluation: every figure and
// table (Figs. 1–2, 7–13; Tables 1–5), the ablations (threshold
// sensitivity, hierarchical-heavy-hitter baseline, hidden attribute), and
// the ground-truth validation that the synthetic setting makes possible.
//
// Usage:
//
//	vqreport                      # everything, default two-week dataset
//	vqreport -fig 11              # a single figure
//	vqreport -table 4             # a single table
//	vqreport -ablations           # ablations + validation only
//	vqreport -epochs 72 -sessions 2000 -seed 3   # smaller/quicker dataset
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/experiments"
	"repro/internal/metric"
	"repro/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, renders the selected part of the evaluation to stdout
// (or -out) and returns the exit code: 0 on success, 2 on a flag error, 1
// on any other failure. The timing line goes to stderr, so stdout is a pure
// function of the flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vqreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		epochs    = fs.Int("epochs", epoch.DefaultTraceEpochs, "trace length in one-hour epochs")
		sessions  = fs.Int("sessions", 4000, "mean sessions per epoch")
		seed      = fs.Uint64("seed", 1, "universe seed")
		fig       = fs.Int("fig", 0, "render only this figure (1,2,7,8,9,10,11,12,13)")
		table     = fs.Int("table", 0, "render only this table (1..5)")
		ablations = fs.Bool("ablations", false, "render ablations and ground-truth validation only")
		outPath   = fs.String("out", "", "write to file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		_, _ = fmt.Fprintf(stderr, "vqreport: %v\n", err)
		return 1
	}

	genCfg := synth.DefaultConfig()
	genCfg.Seed = *seed
	genCfg.Trace = epoch.Range{Start: 0, End: epoch.Index(*epochs)}
	genCfg.SessionsPerEpoch = *sessions
	genCfg.Events.Trace = genCfg.Trace

	start := time.Now()
	suite, err := experiments.NewSuite(genCfg, core.DefaultConfig(*sessions))
	if err != nil {
		return fail(err)
	}
	_, _ = fmt.Fprintf(stderr, "vqreport: generated and analysed %d epochs × ~%d sessions in %v\n",
		*epochs, *sessions, time.Since(start).Round(time.Millisecond))

	w := stdout
	var out *os.File
	if *outPath != "" {
		if out, err = os.Create(*outPath); err != nil {
			return fail(err)
		}
		defer out.Close() // for the error paths; success checks Close below
		w = out
	}
	if err := render(w, suite, *fig, *table, *ablations); err != nil {
		return fail(err)
	}
	if out != nil {
		if err := out.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}

// render writes the part of the evaluation the flags select: one figure,
// one table, the ablations, or (by default) everything.
func render(w io.Writer, suite *experiments.Suite, fig, table int, ablations bool) error {
	var err error
	switch {
	case fig > 0:
		switch fig {
		case 1:
			_, err = suite.Fig1(w)
		case 2:
			_, err = suite.Fig2(w)
		case 7:
			_, err = suite.Fig7(w)
		case 8:
			_, _, err = suite.Fig8(w)
		case 9:
			_, _, err = suite.Fig9(w)
		case 10:
			_, err = suite.Fig10(w)
		case 11:
			_, err = suite.Fig11(w)
		case 12:
			_, err = suite.Fig12(w)
		case 13:
			_, err = suite.Fig13(w)
		default:
			return fmt.Errorf("no figure %d in the paper's evaluation (have 1,2,7-13)", fig)
		}
	case table > 0:
		switch table {
		case 1:
			_, err = suite.Table1(w)
		case 2:
			_, err = suite.Table2(w)
		case 3:
			_, err = suite.Table3(w)
		case 4:
			_, err = suite.Table4(w)
		case 5:
			_, err = suite.Table5(w)
		default:
			return fmt.Errorf("no table %d (have 1-5)", table)
		}
	case ablations:
		return renderAblations(w, suite)
	default:
		if err := suite.All(w); err != nil {
			return err
		}
		return renderAblations(w, suite)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

// stabilitySeeds is the number of reduced datasets the robustness table
// redraws the generator for.
const stabilitySeeds = 3

func renderAblations(w io.Writer, suite *experiments.Suite) error {
	steps := []func() error{
		func() error { _, err := suite.Headlines(w); return err },
		func() error { _, err := suite.Validate(w); return err },
		func() error { _, err := suite.ThresholdSweep(w); return err },
		func() error { _, err := suite.CompareHHH(w); return err },
		func() error { _, err := suite.HideAttribute(w, attr.ConnType); return err },
		func() error { _, err := suite.CostBenefit(w, metric.JoinFailure); return err },
		func() error { _, err := suite.CriticalTemporalStats(w); return err },
		func() error { _, err := suite.WeeklyConsistency(w); return err },
		func() error { _, err := suite.Engagement(w); return err },
		func() error { _, err := suite.StabilityAcrossSeeds(w, stabilitySeeds); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
