package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host says where a record was measured.
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

// summary is one end-to-end metric over a workload's runs.
type summary struct {
	metricDef
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadRecord is everything measured on one workload.
type workloadRecord struct {
	workloadDef
	Sizes     sizes  `json:"sizes"`
	Digest    string `json:"result_digest"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// FailedShare is the worst run's.
	FailedShare float64   `json:"failed_share"`
	EndToEnd    []summary `json:"end_to_end"`
	Runs        []*report `json:"runs"`
	Traced      *report   `json:"traced,omitempty"`
}

// record is the schema-versioned file the suite writes. Claim is always
// null: a benchmark run claims no gain.
type record struct {
	Schema    string           `json:"schema"`
	Claim     *string          `json:"claim"`
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs_per_workload"`
	Workloads []workloadRecord `json:"workloads"`
}

func hostBlock(dir string) host {
	h := host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown",
	}
	// Best effort: a checkout without git metadata has no commit to name.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// suiteMain runs every workload `runs` times, each run in a child process
// so that peak RSS and pool state belong to one workload, and writes the
// record.
func suiteMain(runs int, seed uint64, seconds float64, traced, smoke bool, out string) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d: need at least one run", runs)
	}
	dir, err := benchDir()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(dir, "out", "record.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	rec := record{Schema: schemaVersion, Host: hostBlock(dir), Seed: seed, Seconds: seconds, Runs: runs}
	child := func(name string, trace int) (*report, error) {
		detail := filepath.Join(scratch, "detail.json")
		args := []string{
			"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
			"--trace", fmt.Sprint(trace), "--detail", detail,
		}
		if smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.Command(self, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w\n%s", name, err, stderr.String())
		}
		data, err := os.ReadFile(detail)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		return rep, json.Unmarshal(data, rep)
	}

	for _, def := range workloadDefs {
		wr := workloadRecord{workloadDef: def}
		for i := 0; i < runs; i++ {
			rep, err := child(def.Name, 0)
			if err != nil {
				return err
			}
			if i > 0 && rep.Digest != wr.Digest {
				return fmt.Errorf("%s: run %d digest %s differs from run 0's %s on one seed", def.Name, i, rep.Digest, wr.Digest)
			}
			wr.Sizes, wr.Digest, wr.Attempted, wr.Failed = rep.Sizes, rep.Digest, rep.Attempted, rep.Failed
			if share := per(float64(rep.Failed), float64(rep.Attempted)); share > wr.FailedShare {
				wr.FailedShare = share
			}
			wr.Runs = append(wr.Runs, rep)
		}
		for _, d := range endToEnd {
			s := summary{metricDef: d}
			for _, rep := range wr.Runs {
				s.Values = append(s.Values, rep.Metrics[d.Name])
			}
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			wr.EndToEnd = append(wr.EndToEnd, s)
		}
		if traced {
			if wr.Traced, err = child(def.Name, 1); err != nil {
				return err
			}
		}
		printWorkloadRecord(&wr)
		rec.Workloads = append(rec.Workloads, wr)
	}

	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("record written to %s (%d cores, GOMAXPROCS %d, %s, commit %s)\n",
		out, rec.Host.Cores, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Commit)
	return nil
}

func printWorkloadRecord(wr *workloadRecord) {
	fmt.Printf("%s  (%d runs)\n", wr.Name, len(wr.Runs))
	for _, s := range wr.EndToEnd {
		fmt.Printf("  %-16s median %14.4f %-4s  q1 %14.4f  q3 %14.4f  bound %.2f\n",
			s.Name, s.Median, s.Unit, s.Q1, s.Q3, s.Bound)
	}
	last := wr.Runs[len(wr.Runs)-1]
	fmt.Printf("  result units: %d samples, p%.0f %.3f ms\n",
		len(last.UnitMs), 100*last.ResultTailPercentile, last.ResultMsTail)
	fmt.Printf("  sessions attempted %d  failed %d  failed_share %.6f\n", wr.Attempted, wr.Failed, wr.FailedShare)
	fmt.Printf("  result_digest %s\n", wr.Digest)
	if wr.Traced == nil {
		return
	}
	fmt.Printf("  traced: coverage %.3f  overhead %.3f  spans in %s\n",
		wr.Traced.Metrics["bench.span_coverage"], wr.Traced.Metrics["bench.trace_overhead_share"], wr.Traced.TraceFile)
	for _, row := range wr.Traced.Ledger {
		fmt.Printf("    %-34s share %6.3f  self %10.1f ms  n %d\n", row.Stage, row.Share, row.SelfMs, row.Count)
	}
	for _, d := range perLayer {
		fmt.Printf("    %-40s %16.4f %s\n", d.Name, wr.Traced.Metrics[d.Name], d.Unit)
	}
}

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &record{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, this program reads %q", path, rec.Schema, schemaVersion)
	}
	return rec, nil
}
