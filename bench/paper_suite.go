package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/experiments"
	"repro/internal/session"
	"repro/internal/synth"
)

// paperSuite is the reproduction itself: generate and analyse a dataset
// (epoch-parallel core.AnalyzeGenerator, serial within an epoch), then
// render every figure and table. One whole reproduction is one result
// unit. The suite regenerates its sessions from the generator
// configuration, so that configuration is the generated input here.
type paperSuite struct {
	env
	gen    *synth.Generator
	genCfg synth.Config
	cfg    core.Config
	// digest and reportBytes are the first pass's; every later pass must
	// reproduce them.
	digest      string
	reportBytes int64
	// suite is the last untraced pass's, kept for verification.
	suite *experiments.Suite
}

func (w *paperSuite) setup() error {
	w.genCfg = synthConfig(w.seed, w.sz.SuiteEpochs, w.sz.SuiteSessions)
	w.cfg = core.DefaultConfig(w.sz.SuiteSessions)
	var err error
	if w.gen, err = synth.New(w.genCfg); err != nil {
		return err
	}
	// A short untimed reproduction warms the table pools.
	warm, err := experiments.NewSuite(synthConfig(w.seed, w.sz.SuiteWarm, w.sz.SuiteSessions), w.cfg)
	if err != nil {
		return err
	}
	return warm.All(io.Discard)
}

// countWriter counts what the report renders and discards it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (w *paperSuite) run(tr *tracer) (*outcome, error) {
	out := &outcome{layer: values{}}
	root := tr.begin("bench.run", -1, 0)
	start := time.Now()
	for p := 0; p < w.sz.SuitePasses; p++ {
		passStart := time.Now()
		unit := int64(p)
		sp := tr.begin("experiments.analyze_generator", root, unit)
		suite, err := experiments.NewSuite(w.genCfg, w.cfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		var report countWriter
		sp = tr.begin("experiments.report", root, unit)
		err = suite.All(&report)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		took := ms(time.Since(passStart))

		dig := newDigester()
		sessions := 0
		for i := range suite.TR.Epochs {
			er := &suite.TR.Epochs[i]
			dig.epochResult(er)
			sessions += suite.Gen.EpochVolume(er.Epoch)
		}
		out.units = append(out.units, resultUnit{sessions, took, took})
		out.offered += sessions
		out.analysed += sessions
		out.digest = dig.sum()
		if w.digest == "" {
			w.digest, w.reportBytes = out.digest, report.n
		}
		if out.digest != w.digest || report.n != w.reportBytes || report.n == 0 {
			return nil, fmt.Errorf("paper-suite: pass %d (digest %s, %d report bytes) differs from the first pass (%s, %d)",
				p, out.digest, report.n, w.digest, w.reportBytes)
		}
		if tr == nil {
			w.suite = suite
		}
	}
	out.wall = time.Since(start)
	tr.end(root)
	return out, nil
}

// verify compares two sampled epochs with a serial analysis of the sessions
// the generator makes for them.
func (w *paperSuite) verify() error {
	if w.suite == nil {
		return fmt.Errorf("paper-suite: no untraced pass to verify")
	}
	n := len(w.suite.TR.Epochs)
	if n != w.sz.SuiteEpochs {
		return fmt.Errorf("paper-suite: analysed %d epochs of %d", n, w.sz.SuiteEpochs)
	}
	for _, i := range []int{n / 3, n - 1} {
		e := w.genCfg.Trace.Start + epoch.Index(i)
		sessions := w.suite.Gen.EpochSessions(e)
		want, err := serialEpoch(e, sessions, w.cfg)
		if err != nil {
			return err
		}
		got := &w.suite.TR.Epochs[i]
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("paper-suite: epoch %d differs from the serial analysis of the same sessions", i)
		}
	}
	return nil
}

func (w *paperSuite) probeEpoch() (*synth.Generator, []session.Session) {
	return w.gen, w.gen.EpochSessions(w.genCfg.Trace.Start)
}

func (w *paperSuite) close() error { return nil }
