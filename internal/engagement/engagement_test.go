package engagement

import (
	"math"
	"testing"

	"repro/internal/metric"
)

func TestCleanSessionKeepsBaseline(t *testing.T) {
	m := Default()
	th := metric.Default()
	q := metric.QoE{JoinTimeMS: 1000, BufRatio: 0, BitrateKbps: 3000, DurationS: 600}
	if got := m.ExpectedMinutes(q, th); got != m.BaselineMinutes {
		t.Errorf("clean session minutes = %v, want %v", got, m.BaselineMinutes)
	}
}

func TestJoinFailureLosesEverything(t *testing.T) {
	m := Default()
	th := metric.Default()
	q := metric.QoE{JoinFailed: true}
	if m.ExpectedMinutes(q, th) != 0 {
		t.Error("failed join should watch nothing")
	}
}

// TestDobrianSlope encodes the paper's §2 citation: a 1% increase in
// buffering ratio costs 3–4 minutes of viewing (below the threshold).
func TestDobrianSlope(t *testing.T) {
	m := Default()
	th := metric.Default()
	base := metric.QoE{JoinTimeMS: 1000, BitrateKbps: 3000}
	at := func(buf float64) float64 {
		q := base
		q.BufRatio = buf
		return m.ExpectedMinutes(q, th)
	}
	slope := at(0.01) - at(0.02) // minutes lost per +1% buffering
	if slope < 3 || slope > 4 {
		t.Errorf("loss per 1%% buffering = %v minutes, want 3-4 (Dobrian)", slope)
	}
	// Beyond the 5% threshold the drop sharpens.
	steep := at(0.06) - at(0.07)
	if steep <= slope {
		t.Errorf("post-threshold slope %v should exceed pre-threshold %v", steep, slope)
	}
	// Monotone: worse buffering never watches longer.
	prev := at(0)
	for buf := 0.01; buf <= 0.5; buf += 0.01 {
		cur := at(buf)
		if cur > prev+1e-9 {
			t.Fatalf("non-monotone at %v", buf)
		}
		prev = cur
	}
}

func TestJoinAbandonment(t *testing.T) {
	m := Default()
	th := metric.Default()
	q := metric.QoE{BitrateKbps: 3000}
	q.JoinTimeMS = 2000 // at the grace boundary
	grace := m.ExpectedMinutes(q, th)
	q.JoinTimeMS = 12_000 // 10 seconds beyond
	slow := m.ExpectedMinutes(q, th)
	wantStay := 1 - 0.058*10
	if math.Abs(slow/grace-wantStay) > 1e-9 {
		t.Errorf("stay fraction = %v, want %v (Krishnan-Sitaraman)", slow/grace, wantStay)
	}
	// Extremely slow joins floor at zero, never negative.
	q.JoinTimeMS = 120_000
	if got := m.ExpectedMinutes(q, th); got != 0 {
		t.Errorf("2-minute join = %v minutes, want 0", got)
	}
}

func TestLowBitratePenalty(t *testing.T) {
	m := Default()
	th := metric.Default()
	hd := metric.QoE{JoinTimeMS: 1000, BitrateKbps: 3000}
	sd := hd
	sd.BitrateKbps = 400
	ratio := m.ExpectedMinutes(sd, th) / m.ExpectedMinutes(hd, th)
	if math.Abs(ratio-(1-m.LowBitratePenalty)) > 1e-9 {
		t.Errorf("low-bitrate ratio = %v, want %v", ratio, 1-m.LowBitratePenalty)
	}
}
