package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Start and End are nanoseconds since the tracer began;
// Parent is the index of the span that caused this one (-1 for the root);
// Unit is the epoch or tick the work belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int64  `json:"unit"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so the timed run and the traced run share one code path where
// the product is driven the same way in both.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, unit int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Unit: unit})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// stageCost is one row of the per-stage ledger.
type stageCost struct {
	Stage   string  `json:"stage"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	// Share is the stage's self time as a share of the traced wall time.
	Share float64 `json:"share"`
}

// ledger sums the spans by name. A stage's self time is the time covered by
// its spans minus the part of it their child spans cover; spans that overlap
// (two players emitting at once) are counted once, so the shares of a run
// sum to 1. Coverage is the share of the root span its direct children
// cover: the part of the wall time the ledger can attribute.
func (t *tracer) ledger() (rows []stageCost, wallMs, coverage float64) {
	if t == nil {
		return nil, 0, 0
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	type stage struct {
		row         stageCost
		own, nested [][2]int64
	}
	byName := make(map[string]*stage)
	var (
		wall int64
		root *stage
	)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &stage{row: stageCost{Stage: s.Name}}
			byName[s.Name] = st
		}
		st.row.Count++
		st.row.TotalMs += float64(s.End-s.Start) / 1e6
		st.own = append(st.own, [2]int64{s.Start, s.End})
		if s.Parent < 0 {
			wall += s.End - s.Start
			root = st
			continue
		}
		// A parent begins before its children, so its stage exists unless
		// the parent never ended; such a span attributes nothing.
		if parent := byName[spans[s.Parent].Name]; parent != nil {
			parent.nested = append(parent.nested, [2]int64{s.Start, s.End})
		}
	}
	wallMs = float64(wall) / 1e6
	for _, st := range byName {
		self := unionLen(st.own) - unionLen(st.nested)
		st.row.SelfMs = float64(self) / 1e6
		st.row.Share = per(st.row.SelfMs, wallMs)
		rows = append(rows, st.row)
	}
	if root != nil {
		coverage = per(float64(unionLen(root.nested)), float64(wall))
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Stage < rows[j].Stage
	})
	return rows, wallMs, coverage
}

// unionLen is the total length the intervals cover, overlaps counted once.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// writeJSONL writes the spans one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the write error is the one worth surfacing
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write error is the one worth surfacing
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
