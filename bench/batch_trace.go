package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/trace"
)

// batchTrace is offline re-analysis, the path vqanalyze takes:
// core.AnalyzeTrace over a gzip trace file at the default configuration
// (workers = GOMAXPROCS, sharded table builds, the engine pipeline). One
// pass over the file is one result unit.
type batchTrace struct {
	env
	gen  *synth.Generator
	cfg  core.Config
	path string
	// sessions and fileBytes size the trace file.
	sessions  int
	fileBytes int64
	// digest is the first pass's result digest; every later pass, traced
	// or not, must reproduce it.
	digest string
	// result is the last untraced pass's analysis, kept for verification.
	result *core.TraceResult
}

func (w *batchTrace) setup() error {
	gen, err := newGenerator(w.seed, w.sz.TraceEpochs, w.sz.TraceSessions)
	if err != nil {
		return err
	}
	w.gen = gen
	w.cfg = core.DefaultConfig(w.sz.TraceSessions)
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.path = filepath.Join(w.dir, "trace.vqt.gz")
	if w.sessions, err = w.writeTrace(w.path, w.sz.TraceEpochs); err != nil {
		return err
	}
	st, err := os.Stat(w.path)
	if err != nil {
		return err
	}
	w.fileBytes = st.Size()
	// One untimed pass warms the table pools.
	_, err = analyzeFile(w.path, w.cfg)
	return err
}

// writeTrace writes the first n epochs as a gzip trace and returns the
// session count.
func (w *batchTrace) writeTrace(path string, n int) (int, error) {
	tw, err := trace.Create(path, trace.HeaderFor(w.gen.World().Space(), n, w.seed))
	if err != nil {
		return 0, err
	}
	first := w.gen.Config().Trace.Start
	for e := first; e < first+epoch.Index(n); e++ {
		if err := tw.WriteAll(w.gen.EpochSessions(e)); err != nil {
			_ = tw.Close() // the write error is the one worth surfacing
			return 0, err
		}
	}
	count := int(tw.Count())
	return count, tw.Close()
}

func analyzeFile(path string, cfg core.Config) (*core.TraceResult, error) {
	r, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return core.AnalyzeTrace(r, cfg)
}

func (w *batchTrace) run(tr *tracer) (*outcome, error) {
	out := &outcome{layer: values{}}
	root := tr.begin("bench.run", -1, 0)
	start := time.Now()
	for p := 0; p < w.sz.TracePasses; p++ {
		passStart := time.Now()
		var (
			res *core.TraceResult
			err error
		)
		if tr != nil {
			res, err = w.composedPass(tr, root, int64(p))
		} else {
			res, err = analyzeFile(w.path, w.cfg)
		}
		if err != nil {
			return nil, err
		}
		took := ms(time.Since(passStart))
		out.units = append(out.units, resultUnit{w.sessions, took, took})
		out.offered += w.sessions
		dig := newDigester()
		for i := range res.Epochs {
			dig.epochResult(&res.Epochs[i])
			out.analysed += int(res.Epochs[i].Metrics[metric.JoinFailure].GlobalSessions)
		}
		out.digest = dig.sum()
		if w.digest == "" {
			w.digest = out.digest
		}
		if out.digest != w.digest {
			return nil, fmt.Errorf("batch-trace: pass %d digest %s differs from the first pass's %s", p, out.digest, w.digest)
		}
		if tr == nil {
			w.result = res
			out.layer["engine.submit_stalls"] += float64(res.Pipeline.SubmitStalls)
			out.layer["engine.input_waits"] += float64(res.Pipeline.InputWaits)
		}
	}
	out.wall = time.Since(start)
	tr.end(root)
	out.layer["trace.disk_bytes_per_session"] = per(float64(w.fileBytes), float64(w.sessions))
	return out, nil
}

// composedPass makes AnalyzeTrace's public calls itself, serially, with a
// span around each: read an epoch, digest it, build the sharded table,
// analyse it. The product overlaps reading with analysis; here nothing
// overlaps, so the shares are of the serial cost and the difference shows
// as tracing overhead.
func (w *batchTrace) composedPass(tr *tracer, root int, pass int64) (*core.TraceResult, error) {
	r, err := trace.Open(w.path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	parent := tr.begin("bench.pass", root, pass)
	defer tr.end(parent)

	res := &core.TraceResult{Thresholds: w.cfg.Thresholds}
	var (
		batch   []session.Session
		pending session.Session
		have    bool
		done    bool
	)
	for !done {
		sp := tr.begin("trace.read", parent, int64(len(res.Epochs)))
		batch = batch[:0]
		if have {
			batch = append(batch, pending)
			have = false
		}
		for {
			err := r.Next(&pending)
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				return nil, err
			}
			if len(batch) > 0 && pending.Epoch != batch[0].Epoch {
				have = true
				break
			}
			batch = append(batch, pending)
		}
		tr.end(sp)
		if len(batch) == 0 {
			break
		}
		e := batch[0].Epoch
		unit := int64(e)

		sp = tr.begin("cluster.digest", parent, unit)
		lites := digestAll(batch, w.cfg.Thresholds)
		tr.end(sp)

		sp = tr.begin("cluster.build", parent, unit)
		tbl := cluster.NewTableParallel(e, lites, w.cfg.MaxDims, w.cfg.Workers)
		tr.end(sp)
		sp = tr.begin("core.analyze_table", parent, unit)
		er, err := core.AnalyzeEpochTable(tbl, w.cfg)
		tr.end(sp)
		tbl.Release()
		if err != nil {
			return nil, err
		}
		res.Epochs = append(res.Epochs, *er)
	}
	first := w.gen.Config().Trace.Start
	res.Trace = epoch.Range{Start: first, End: first + epoch.Index(len(res.Epochs))}
	return res, nil
}

// verify compares three sampled epochs with a serial analysis of the
// sessions the generator made for them.
func (w *batchTrace) verify() error {
	if w.result == nil {
		return fmt.Errorf("batch-trace: no untraced pass to verify")
	}
	n := len(w.result.Epochs)
	if n != w.sz.TraceEpochs {
		return fmt.Errorf("batch-trace: analysed %d epochs of %d", n, w.sz.TraceEpochs)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		e := w.gen.Config().Trace.Start + epoch.Index(i)
		want, err := serialEpoch(e, w.gen.EpochSessions(e), w.cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(&w.result.Epochs[i], want) {
			return fmt.Errorf("batch-trace: epoch %d differs from the serial analysis of the same sessions", i)
		}
	}
	return nil
}

func (w *batchTrace) probeEpoch() (*synth.Generator, []session.Session) {
	return w.gen, w.gen.EpochSessions(w.gen.Config().Trace.Start)
}

func (w *batchTrace) close() error { return nil }
