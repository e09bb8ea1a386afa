package main

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/heartbeat"
	"repro/internal/ingest"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// TestDemoReportsGeneratorSessions runs the demo against an in-process
// collector and checks that it delivers the generator's first n sessions,
// at their own epochs and IDs, exactly as the heartbeat arithmetic rebuilds
// them from the same sessions without a network in between.
func TestDemoReportsGeneratorSessions(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()

	cfg := synth.DefaultConfig()
	cfg.Seed = 9
	cfg.SessionsPerEpoch = 100
	cfg.Trace = epoch.Range{Start: 0, End: 4}
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All of epoch 0 and half of epoch 1.
	n := g.EpochVolume(0) + g.EpochVolume(1)/2

	var mu sync.Mutex
	var got []session.Session
	c := heartbeat.NewCollector(func(s session.Session) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	c.Logf = nil
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := runDemo(c.Addr().String(), g, n); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseGrace(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })

	want := rebuilt(t, g, n)
	if len(got) != len(want) {
		t.Fatalf("collected %d sessions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("session %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if first, last := got[0].Epoch, got[len(got)-1].Epoch; first != 0 || last != 1 {
		t.Fatalf("demo spans epochs %d..%d, want 0..1", first, last)
	}

	// The collector's trace header cannot know that span in advance.
	if hdr := traceHeader(g, cfg.Seed); hdr.Epochs != 0 || hdr.Seed != cfg.Seed {
		t.Errorf("trace header epochs %d seed %d, want 0 (span unknown) and %d", hdr.Epochs, hdr.Seed, cfg.Seed)
	}
}

// TestRunNodeDemoMatchesAnalyzeEpoch runs node mode end to end: the demo's
// sessions cross the node's collector, spool and relay to an in-process
// aggregator, and every fully sent epoch seals to exactly what
// core.AnalyzeEpoch computes over the generator's sessions of that epoch.
func TestRunNodeDemoMatchesAnalyzeEpoch(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()

	cfg := synth.DefaultConfig()
	cfg.Seed = 5
	cfg.SessionsPerEpoch = 100
	cfg.Trace = epoch.Range{Start: 0, End: 4}
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 0 and 1 in full, and half of epoch 2.
	full := []epoch.Index{0, 1}
	n := g.EpochVolume(0) + g.EpochVolume(1) + g.EpochVolume(2)/2

	analysis := core.DefaultConfig(cfg.SessionsPerEpoch)
	sealed := make(map[epoch.Index]*core.EpochResult)
	agg, err := ingest.NewAggregator(ingest.AggregatorConfig{
		Analysis: analysis,
		OnSeal:   func(c ingest.Coverage, r *core.EpochResult) { sealed[c.Epoch] = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	code := runNode(nodeCfg{
		addr:        "127.0.0.1:0",
		aggregator:  agg.Addr().String(),
		nodeID:      1,
		spoolDir:    t.TempDir(),
		spoolCap:    1024,
		rotate:      64,
		maxSegments: 64,
		grace:       5 * time.Second,
		demo:        n,
		gen:         g,
	})
	if code != 0 {
		t.Fatalf("runNode exit code %d, want 0", code)
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := agg.SealAll(); err != nil {
		t.Fatal(err)
	}

	for _, e := range full {
		sessions := g.EpochSessions(e)
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
		lites := make([]cluster.Lite, len(sessions))
		for i := range sessions {
			lites[i] = cluster.Digest(&sessions[i], analysis.Thresholds)
		}
		want, err := core.AnalyzeEpoch(e, lites, analysis)
		if err != nil {
			t.Fatal(err)
		}
		if got := sealed[e]; !reflect.DeepEqual(got, want) {
			t.Errorf("epoch %d sealed\n got %+v\nwant %+v", e, got, want)
		}
	}
}

// rebuilt passes the generator's first n sessions through an Emitter and
// an Assembler in process, with the demo's progress cadence.
func rebuilt(t *testing.T, g *synth.Generator, n int) []session.Session {
	t.Helper()
	var wire bytes.Buffer
	em := &heartbeat.Emitter{W: heartbeat.NewWriter(&wire), ProgressEvery: 2}
	sent := 0
	err := g.ForEach(func(s *session.Session) error {
		if sent == n {
			return errDemoDone
		}
		sent++
		return em.EmitSession(s)
	})
	if !errors.Is(err, errDemoDone) {
		t.Fatalf("generator stopped after %d sessions: %v", sent, err)
	}

	var out []session.Session
	asm := heartbeat.NewAssembler(func(s session.Session) { out = append(out, s) })
	r := heartbeat.NewReader(&wire)
	for {
		var m heartbeat.Message
		if err := r.Read(&m); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if err := asm.Handle(&m); err != nil {
			t.Fatal(err)
		}
	}
	asm.Flush(true)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
