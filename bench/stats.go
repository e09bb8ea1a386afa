package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the middle of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so that the
// spreads printed here are the ones the driver computes. Fewer than two
// values have no spread: both quartiles are then the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it, and the value there. With fewer than eleven samples no
// percentile qualifies and the maximum is returned with percentile 1, which
// the printed sample count makes plain.
func tail(v []float64) (percentile, value float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return 1, s[n-1]
	}
	return float64(n-10) / float64(n), s[n-11]
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}

// resetPeakRSS returns freed memory to the kernel and asks it to restart the
// high-water mark, so that peak_rss_mb is the peak of the timed section and
// not of whatever garbage the repeated set-ups left behind. A kernel or
// sandbox that refuses the write leaves the mark counting from process
// start, which is still a valid (if noisier) peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memDelta is the change of the allocator's counters across a section.
type memDelta struct {
	Bytes   float64
	Allocs  float64
	PauseMs float64
	NumGC   float64
}

// memMark snapshots the allocator counters; since returns their growth.
type memMark struct{ ms runtime.MemStats }

func markMem() *memMark {
	m := &memMark{}
	runtime.ReadMemStats(&m.ms)
	return m
}

func (m *memMark) since() memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		Bytes:   float64(now.TotalAlloc - m.ms.TotalAlloc),
		Allocs:  float64(now.Mallocs - m.ms.Mallocs),
		PauseMs: float64(now.PauseTotalNs-m.ms.PauseTotalNs) / 1e6,
		NumGC:   float64(now.NumGC - m.ms.NumGC),
	}
}

// per divides a total by a count that may be zero.
func per(total, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return total / n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
