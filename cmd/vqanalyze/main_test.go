package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/trace"
)

func TestRunDrillScansOneEpoch(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 4
	cfg.SessionsPerEpoch = 300
	cfg.Trace = epoch.Range{Start: 0, End: 3}
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	space := g.World().Space()
	path := filepath.Join(t.TempDir(), "drill.vqt.gz")
	w, err := trace.Create(path, trace.HeaderFor(space, 3, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ForEach(func(s *session.Session) error { return w.Write(s) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	key := space.FormatKey(attr.NewKey(map[attr.Dim]int32{attr.CDN: 0}))
	acfg := core.DefaultConfig(cfg.SessionsPerEpoch)
	if err := runDrill(space, path, key, "BufRatio", 1, acfg); err != nil {
		t.Fatalf("drill into epoch 1: %v", err)
	}
	err = runDrill(space, path, key, "BufRatio", 3, acfg)
	if err == nil || !strings.Contains(err.Error(), "epoch 3 has no sessions") {
		t.Fatalf("drill into a missing epoch: err = %v, want the has-no-sessions error", err)
	}
}
