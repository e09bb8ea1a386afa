package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/cktable"
	"repro/internal/critical"
	"repro/internal/heartbeat"
	"repro/internal/hhh"
	"repro/internal/ingest"
	"repro/internal/metric"
	"repro/internal/online"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/window"
)

// Stage probes time one layer's public function at a time over the
// workload's own first epoch, so each workload reports what a call costs on
// inputs of its shape (5000 or 20000 sessions per epoch). They run after
// the timed sections and never touch the system those measured.

const (
	// probeReps is how often a probe repeats at most; its cost is the
	// median. A probe stops repeating once it has used probeBudget, so the
	// heavy ones (a 20000-session table build) run once or twice.
	probeReps   = 3
	probeBudget = 300 * time.Millisecond
	// senderProbeSessions bounds the sender round-trip probe.
	senderProbeSessions = 2000
	// onlineProbeSessions bounds the streaming-detector probe, whose 60
	// tick evaluations cost far more than any other probe.
	onlineProbeSessions = 5000
)

// timed runs fn up to probeReps times and returns the median duration in
// nanoseconds with the allocation counters of the last repetition.
func timed(fn func() error) (float64, memDelta, error) {
	var (
		durs []float64
		mem  memDelta
	)
	began := time.Now()
	for i := 0; i < probeReps && (i == 0 || time.Since(began) < probeBudget); i++ {
		mark := markMem()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, mem, err
		}
		durs = append(durs, float64(time.Since(start).Nanoseconds()))
		mem = mark.since()
	}
	return median(durs), mem, nil
}

// prober accumulates probe results.
type prober struct {
	out      values
	gen      *synth.Generator
	sessions []session.Session
	lites    []cluster.Lite
	cfg      core.Config
	seed     uint64
	// tbl is the epoch's count table, shared by the probes that read one.
	tbl *cluster.Table
}

// perOp records a probe whose cost is reported per operation in ns.
func (p *prober) perOp(name string, ops int, fn func() error) error {
	ns, mem, err := timed(fn)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	n := float64(ops)
	p.out[name+"_ns"] = per(ns, n)
	p.out[name+"_b_per_op"] = per(mem.Bytes, n)
	p.out[name+"_allocs_per_op"] = per(mem.Allocs, n)
	return nil
}

// whole records a probe whose cost is reported per call in ms.
func (p *prober) whole(name string, fn func() error) error {
	ns, mem, err := timed(fn)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	p.out[name+"_ms"] = ns / 1e6
	p.out[name+"_b_per_op"] = mem.Bytes
	p.out[name+"_allocs_per_op"] = mem.Allocs
	return nil
}

// runProbes measures every stage over one epoch of sessions.
func runProbes(gen *synth.Generator, sessions []session.Session, seed uint64) (values, error) {
	if gen == nil || len(sessions) == 0 {
		return nil, fmt.Errorf("probes: no sessions to probe with")
	}
	p := &prober{
		out:      values{},
		gen:      gen,
		sessions: sessions,
		cfg:      core.DefaultConfig(len(sessions)),
		seed:     seed,
	}
	p.cfg.Workers = 1
	p.lites = digestAll(sessions, p.cfg.Thresholds)
	p.tbl = cluster.NewTable(sessions[0].Epoch, p.lites, 0)
	defer p.tbl.Release()
	for _, probe := range []func() error{
		p.codec, p.heartbeat, p.sender, p.ingest, p.traceIO,
		p.table, p.analysis, p.window, p.online, p.heavyHitters, p.synth,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *prober) codec() error {
	var (
		buf []byte
		s   session.Session
	)
	return p.perOp("session.codec", len(p.sessions), func() error {
		for i := range p.sessions {
			buf = session.AppendBinary(buf[:0], &p.sessions[i])
			if _, err := session.DecodeBinary(buf, &s); err != nil {
				return err
			}
		}
		return nil
	})
}

func (p *prober) heartbeat() error {
	msgs, err := heartbeatFrames(p.sessions)
	if err != nil {
		return err
	}
	var (
		frame []byte
		m     heartbeat.Message
	)
	err = p.perOp("heartbeat.protocol", len(msgs), func() error {
		for i := range msgs {
			var err error
			if frame, err = heartbeat.Append(frame[:0], &msgs[i]); err != nil {
				return err
			}
			// A frame is a length prefix, the payload and a checksum.
			if err := heartbeat.Decode(frame[4:len(frame)-4], &m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = p.perOp("heartbeat.assembler", len(msgs), func() error {
		asm := heartbeat.NewAssembler(func(session.Session) {})
		for i := range msgs {
			if err := asm.Handle(&msgs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return p.perOp("heartbeat.spool_emit", len(p.sessions), func() error {
		sp := heartbeat.NewSpool(len(p.sessions), func(session.Session) {})
		for i := range p.sessions {
			sp.Emit(p.sessions[i])
		}
		sp.Close()
		return nil
	})
}

// sender times EmitSession over loopback to a bare collector, including the
// wait for the acknowledgment.
func (p *prober) sender() error {
	col := heartbeat.NewCollector(func(session.Session) {})
	col.Logf = nil
	if err := col.Listen("127.0.0.1:0"); err != nil {
		return fmt.Errorf("probe heartbeat.sender_emit: %w", err)
	}
	snd := heartbeat.DialSender(col.Addr().String(), heartbeat.SenderConfig{AckMode: true, Seed: p.seed + 1})
	n := len(p.sessions)
	if n > senderProbeSessions {
		n = senderProbeSessions
	}
	us := make([]float64, 0, n)
	var sendErr error
	for i := 0; i < n && sendErr == nil; i++ {
		start := time.Now()
		sendErr = snd.EmitSession(&p.sessions[i], progressReports)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	closeErr := snd.Close()
	if err := col.Close(); err != nil && closeErr == nil {
		closeErr = err
	}
	if sendErr != nil {
		return fmt.Errorf("probe heartbeat.sender_emit: %w", sendErr)
	}
	p.out["heartbeat.sender_emit_us_p50"] = median(us)
	return closeErr
}

func (p *prober) ingest() error {
	ring := ingest.NewRing(0)
	ring.Add("node-1")
	ring.Add("node-2")
	err := p.perOp("ingest.ring_owner", len(p.sessions), func() error {
		for i := range p.sessions {
			if _, ok := ring.Owner(p.sessions[i].ID); !ok {
				return fmt.Errorf("empty ring")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	e := p.sessions[0].Epoch
	var ingestNs, sealMs []float64
	began := time.Now()
	for rep := 0; rep < probeReps && (rep == 0 || time.Since(began) < probeBudget); rep++ {
		agg, err := ingest.NewAggregator(ingest.AggregatorConfig{
			Analysis:    ringAnalysis(len(p.sessions)),
			ExpectNodes: ringNodes,
			Logf:        func(string, ...any) {},
		})
		if err != nil {
			return err
		}
		start := time.Now()
		for i := range p.sessions {
			agg.Ingest(uint64(1+i%ringNodes), &p.sessions[i])
		}
		ingestNs = append(ingestNs, per(float64(time.Since(start).Nanoseconds()), float64(len(p.sessions))))
		start = time.Now()
		if _, _, err := agg.Seal(e); err != nil {
			return fmt.Errorf("probe ingest.agg_seal: %w", err)
		}
		sealMs = append(sealMs, ms(time.Since(start)))
	}
	p.out["ingest.agg_ingest_ns"] = median(ingestNs)
	p.out["ingest.agg_seal_ms"] = median(sealMs)
	return nil
}

func (p *prober) traceIO() error {
	var file bytes.Buffer
	err := p.perOp("trace.write", len(p.sessions), func() error {
		file.Reset()
		tw, err := trace.NewWriter(&file, trace.HeaderFor(p.gen.World().Space(), 1, p.seed), true)
		if err != nil {
			return err
		}
		for i := range p.sessions {
			if err := tw.Write(&p.sessions[i]); err != nil {
				return err
			}
		}
		return tw.Close()
	})
	if err != nil {
		return err
	}
	var s session.Session
	return p.perOp("trace.read", len(p.sessions), func() error {
		rd, err := trace.NewReader(bytes.NewReader(file.Bytes()))
		if err != nil {
			return err
		}
		for {
			err := rd.Next(&s)
			if err == io.EOF {
				return rd.Close()
			}
			if err != nil {
				return err
			}
		}
	})
}

func (p *prober) table() error {
	th := p.cfg.Thresholds
	err := p.perOp("cluster.digest", len(p.sessions), func() error {
		for i := range p.sessions {
			p.lites[i] = cluster.Digest(&p.sessions[i], th)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e := p.sessions[0].Epoch
	err = p.whole("cluster.build", func() error {
		tbl := cluster.NewTable(e, p.lites, 0)
		p.out["cluster.keys_per_session"] = per(float64(tbl.Len()), float64(len(p.lites)))
		tbl.Release()
		return nil
	})
	if err != nil {
		return err
	}
	err = p.whole("cluster.build_parallel", func() error {
		cluster.NewTableParallel(e, p.lites, 0, 0).Release()
		return nil
	})
	if err != nil {
		return err
	}

	// One tick's table merged into, then taken out of, the epoch's table:
	// what the sliding window does on every advance.
	tickLites := p.lites[:len(p.lites)/ticksPerEpoch+1]
	tick := cktable.Acquire(len(tickLites), 0)
	defer tick.Release()
	for _, l := range tickLites {
		tick.AddSession(l.Attrs, l.Bits, l.Failed)
	}
	total := cktable.Acquire(len(p.lites), 0)
	defer total.Release()
	for _, l := range p.lites {
		total.AddSession(l.Attrs, l.Bits, l.Failed)
	}
	var mergeMs, unmergeMs []float64
	for rep := 0; rep < probeReps; rep++ {
		start := time.Now()
		total.Merge(tick)
		mergeMs = append(mergeMs, ms(time.Since(start)))
		start = time.Now()
		total.Unmerge(tick)
		unmergeMs = append(unmergeMs, ms(time.Since(start)))
	}
	p.out["cktable.merge_ms"] = median(mergeMs)
	p.out["cktable.unmerge_ms"] = median(unmergeMs)
	return nil
}

// analysis splits one epoch's analysis on one worker into its stages:
// views, detections, and what AnalyzeEpochTable adds on top (summarize).
func (p *prober) analysis() error {
	e := p.sessions[0].Epoch
	var views [metric.NumMetrics]*cluster.View
	err := p.whole("cluster.view", func() error {
		problems := 0
		for _, m := range metric.All() {
			v, err := cluster.BuildView(p.tbl, m, p.cfg.Thresholds)
			if err != nil {
				return err
			}
			views[m] = v
			problems += len(v.Problem)
		}
		p.out["cluster.problem_clusters_per_epoch"] = float64(problems)
		return nil
	})
	if err != nil {
		return err
	}
	err = p.whole("critical.detect", func() error {
		found := 0
		for _, m := range metric.All() {
			found += len(critical.DetectOpts(views[m], p.cfg.Options).Critical)
		}
		p.out["critical.clusters_per_epoch"] = float64(found)
		return nil
	})
	if err != nil {
		return err
	}
	err = p.whole("core.analyze_table", func() error {
		_, err := core.AnalyzeEpochTable(p.tbl, p.cfg)
		return err
	})
	if err != nil {
		return err
	}
	rest := p.out["core.analyze_table_ms"] - p.out["cluster.view_ms"] - p.out["critical.detect_ms"]
	if rest < 0 {
		rest = 0
	}
	p.out["core.summarize_ms"] = rest

	err = p.whole("core.analyze_epoch_w1", func() error {
		_, err := core.AnalyzeEpoch(e, p.lites, p.cfg)
		return err
	})
	if err != nil {
		return err
	}
	wide := p.cfg
	wide.Workers = 0
	return p.whole("core.analyze_epoch_wn", func() error {
		_, err := core.AnalyzeEpoch(e, p.lites, wide)
		return err
	})
}

// byTick buckets digests the way the streaming workload feeds them.
func byTick(sessions []session.Session, lites []cluster.Lite) [ticksPerEpoch][]int {
	var ticks [ticksPerEpoch][]int
	for i := range lites {
		t := window.SubTick(sessions[i].ID, ticksPerEpoch)
		ticks[t] = append(ticks[t], i)
	}
	return ticks
}

// window feeds the epoch through the sliding window twice, so that the
// second hour's advances both merge the entering tick and unmerge the
// expiring one; only the second hour is timed.
func (p *prober) window() error {
	eng, err := window.New(window.DefaultConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.Start(0); err != nil {
		return err
	}
	ticks := byTick(p.sessions, p.lites)
	var observeNs, advanceMs, snapshotMs []float64
	for t := 0; t < 2*ticksPerEpoch; t++ {
		steady := t >= ticksPerEpoch
		start := time.Now()
		for _, i := range ticks[t%ticksPerEpoch] {
			if err := eng.Observe(p.lites[i]); err != nil {
				return err
			}
		}
		if n := len(ticks[t%ticksPerEpoch]); steady && n > 0 {
			observeNs = append(observeNs, float64(time.Since(start).Nanoseconds())/float64(n))
		}
		start = time.Now()
		if _, err := eng.Advance(); err != nil {
			return err
		}
		if steady {
			advanceMs = append(advanceMs, ms(time.Since(start)))
		}
		start = time.Now()
		if _, err := eng.Snapshot(); err != nil {
			return err
		}
		if steady {
			snapshotMs = append(snapshotMs, ms(time.Since(start)))
		}
	}
	p.out["window.observe_ns"] = median(observeNs)
	p.out["window.advance_ms_p50"] = median(advanceMs)
	p.out["window.snapshot_ms_p50"] = median(snapshotMs)
	return nil
}

// online streams the first sessions of the epoch through the streaming
// detector: 60 tick evaluations while the first hour fills.
func (p *prober) online() error {
	n := len(p.sessions)
	if n > onlineProbeSessions {
		n = onlineProbeSessions
	}
	sessions := p.sessions[:n]
	det, err := online.NewDetector(core.DefaultConfig(n), nil)
	if err != nil {
		return err
	}
	if err := det.Streaming(online.StreamConfig{Window: window.DefaultConfig()}); err != nil {
		return err
	}
	ticks := byTick(sessions, p.lites[:n])
	first := window.Tick(int(sessions[0].Epoch) * ticksPerEpoch)
	var addNs, evalMs []float64
	for t := range ticks {
		for k, i := range ticks[t] {
			start := time.Now()
			if err := det.AddAt(first+window.Tick(t), &sessions[i]); err != nil {
				return err
			}
			d := time.Since(start)
			if k == 0 && t > 0 {
				evalMs = append(evalMs, ms(d))
			} else {
				addNs = append(addNs, float64(d.Nanoseconds()))
			}
		}
	}
	start := time.Now()
	if err := det.Flush(); err != nil {
		return err
	}
	evalMs = append(evalMs, ms(time.Since(start)))
	p.out["online.add_ns"] = median(addNs)
	p.out["online.eval_tick_ms_p50"] = median(evalMs)
	return nil
}

func (p *prober) heavyHitters() error {
	cfg := hhh.DefaultConfig()
	err := p.whole("hhh.detect", func() error {
		for _, m := range metric.All() {
			if _, err := hhh.Detect(p.lites, m, cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return p.whole("hhh.detect_from_table", func() error {
		for _, m := range metric.All() {
			if _, err := hhh.DetectFromTable(p.tbl, m, cfg); err != nil {
				return err
			}
		}
		return nil
	})
}

func (p *prober) synth() error {
	e := p.sessions[0].Epoch
	return p.whole("synth.epoch_gen", func() error {
		if got := len(p.gen.EpochSessions(e)); got != len(p.sessions) {
			return fmt.Errorf("generator made %d sessions, the probe epoch has %d", got, len(p.sessions))
		}
		return nil
	})
}
