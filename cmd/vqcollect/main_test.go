package main

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/heartbeat"
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
