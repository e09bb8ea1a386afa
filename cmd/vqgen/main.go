// Command vqgen generates a synthetic video-session trace — the stand-in
// for the paper's proprietary dataset — and writes it as a trace container
// for later analysis with vqanalyze, or as JSON lines for outside tools.
// Both forms stream: one session is encoded as the generator yields it.
//
// Usage:
//
//	vqgen -out trace.vqt.gz [-epochs 336] [-sessions 4000] [-seed 1]
//	vqgen -out trace.jsonl -jsonl ...    # JSON lines, one per session
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/epoch"
	"repro/internal/prof"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vqgen: ")
	var (
		out      = flag.String("out", "trace.vqt.gz", "output path (.gz compresses the binary container)")
		epochs   = flag.Int("epochs", epoch.DefaultTraceEpochs, "number of one-hour epochs (paper: 336 = two weeks)")
		sessions = flag.Int("sessions", 4000, "mean sessions per epoch")
		seed     = flag.Uint64("seed", 1, "universe seed (identical seeds reproduce identical traces)")
		asJSONL  = flag.Bool("jsonl", false, "write JSON lines instead of the binary container")
		quiet    = flag.Bool("q", false, "suppress progress output")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopCPU, err := prof.StartCPU(*cpuprof)
	if err != nil {
		log.Fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := prof.WriteHeap(*memprof); err != nil {
			log.Print(err)
		}
	}()

	cfg := synth.DefaultConfig()
	cfg.Seed = *seed
	cfg.Trace = epoch.Range{Start: 0, End: epoch.Index(*epochs)}
	cfg.SessionsPerEpoch = *sessions
	cfg.Events.Trace = cfg.Trace

	g, err := synth.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	var count uint64
	if *asJSONL {
		counted := func(fn func(*session.Session) error) error {
			return g.ForEach(func(s *session.Session) error {
				count++
				return fn(s)
			})
		}
		if err := session.WriteJSONL(f, counted); err != nil {
			log.Fatal(err)
		}
	} else {
		hdr := trace.HeaderFor(g.World().Space(), *epochs, *seed)
		hdr.Comment = fmt.Sprintf("vqgen -epochs %d -sessions %d -seed %d", *epochs, *sessions, *seed)
		w, err := trace.NewWriter(f, hdr, len(*out) > 3 && (*out)[len(*out)-3:] == ".gz")
		if err != nil {
			log.Fatal(err)
		}
		if err := g.ForEach(func(s *session.Session) error { return w.Write(s) }); err != nil {
			log.Fatal(err)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		count = w.Count()
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		fmt.Printf("wrote %d sessions across %d epochs to %s (%d ground-truth events)\n",
			count, *epochs, *out, len(g.Schedule().Events))
	}
}
