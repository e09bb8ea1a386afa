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
	"log"
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
	log.SetFlags(0)
	log.SetPrefix("vqreport: ")
	var (
		epochs    = flag.Int("epochs", epoch.DefaultTraceEpochs, "trace length in one-hour epochs")
		sessions  = flag.Int("sessions", 4000, "mean sessions per epoch")
		seed      = flag.Uint64("seed", 1, "universe seed")
		fig       = flag.Int("fig", 0, "render only this figure (1,2,7,8,9,10,11,12,13)")
		table     = flag.Int("table", 0, "render only this table (1..5)")
		ablations = flag.Bool("ablations", false, "render ablations and ground-truth validation only")
		outPath   = flag.String("out", "", "write to file instead of stdout")
	)
	flag.Parse()

	genCfg := synth.DefaultConfig()
	genCfg.Seed = *seed
	genCfg.Trace = epoch.Range{Start: 0, End: epoch.Index(*epochs)}
	genCfg.SessionsPerEpoch = *sessions
	genCfg.Events.Trace = genCfg.Trace

	start := time.Now()
	suite, err := experiments.NewSuite(genCfg, core.DefaultConfig(*sessions))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "vqreport: generated and analysed %d epochs × ~%d sessions in %v\n",
		*epochs, *sessions, time.Since(start).Round(time.Millisecond))

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	run := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			log.Fatal(err)
		}
	}

	switch {
	case *fig > 0:
		switch *fig {
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
			log.Fatalf("no figure %d in the paper's evaluation (have 1,2,7-13)", *fig)
		}
		run(err)
	case *table > 0:
		switch *table {
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
			log.Fatalf("no table %d (have 1-5)", *table)
		}
		run(err)
	case *ablations:
		renderAblations(w, suite)
	default:
		if err := suite.All(w); err != nil {
			log.Fatal(err)
		}
		renderAblations(w, suite)
	}
}

// stabilitySeeds is the number of reduced datasets the robustness table
// redraws the generator for.
const stabilitySeeds = 3

func renderAblations(w io.Writer, suite *experiments.Suite) {
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
			log.Fatal(err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			log.Fatal(err)
		}
	}
}
