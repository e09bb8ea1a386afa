package metric

import (
	"math"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	for _, m := range All() {
		got, err := Parse(m.String())
		if err != nil || got != m {
			t.Errorf("Parse(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := Parse("latency"); err == nil {
		t.Error("Parse(latency) succeeded, want error")
	}
	if got, err := Parse("bufratio"); err != nil || got != BufRatio {
		t.Errorf("Parse is not case-insensitive: %v, %v", got, err)
	}
}

func TestDefaultThresholdsMatchPaper(t *testing.T) {
	th := Default()
	if th.BufRatio != 0.05 {
		t.Errorf("BufRatio threshold = %v, want 0.05 (paper §2)", th.BufRatio)
	}
	if th.BitrateKbps != 700 {
		t.Errorf("Bitrate threshold = %v, want 700 kbps (paper §2)", th.BitrateKbps)
	}
	if th.JoinTimeMS != 10_000 {
		t.Errorf("JoinTime threshold = %v, want 10s (paper §2)", th.JoinTimeMS)
	}
	if th.ProblemRatioFactor != 1.5 {
		t.Errorf("ProblemRatioFactor = %v, want 1.5 (paper §3.1)", th.ProblemRatioFactor)
	}
	if err := th.Validate(); err != nil {
		t.Errorf("Default().Validate() = %v", err)
	}
}

func TestScaleMinSessions(t *testing.T) {
	th := Default().ScaleMinSessions(900_000)
	if th.MinClusterSessions != 1000 {
		t.Errorf("at paper scale MinClusterSessions = %d, want 1000", th.MinClusterSessions)
	}
	th = Default().ScaleMinSessions(1000)
	if th.MinClusterSessions != 20 {
		t.Errorf("tiny-trace floor = %d, want 20", th.MinClusterSessions)
	}
	th = Default().ScaleMinSessions(90_000)
	if th.MinClusterSessions != 100 {
		t.Errorf("scaled MinClusterSessions = %d, want 100", th.MinClusterSessions)
	}
}

func TestThresholdsValidate(t *testing.T) {
	bad := []Thresholds{
		{BufRatio: 0, BitrateKbps: 700, JoinTimeMS: 1e4, ProblemRatioFactor: 1.5, MinClusterSessions: 10},
		{BufRatio: 0.05, BitrateKbps: 0, JoinTimeMS: 1e4, ProblemRatioFactor: 1.5, MinClusterSessions: 10},
		{BufRatio: 0.05, BitrateKbps: 700, JoinTimeMS: 0, ProblemRatioFactor: 1.5, MinClusterSessions: 10},
		{BufRatio: 0.05, BitrateKbps: 700, JoinTimeMS: 1e4, ProblemRatioFactor: 1, MinClusterSessions: 10},
		{BufRatio: 0.05, BitrateKbps: 700, JoinTimeMS: 1e4, ProblemRatioFactor: 1.5, MinClusterSessions: 0},
	}
	for i, th := range bad {
		if err := th.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
}

// TestThresholdsValidateRejectsNaN: a NaN in any float threshold is
// rejected, not read as in range because every comparison with it is false.
func TestThresholdsValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		set  func(*Thresholds)
	}{
		{"BufRatio", func(th *Thresholds) { th.BufRatio = nan }},
		{"BitrateKbps", func(th *Thresholds) { th.BitrateKbps = nan }},
		{"JoinTimeMS", func(th *Thresholds) { th.JoinTimeMS = nan }},
		{"ProblemRatioFactor", func(th *Thresholds) { th.ProblemRatioFactor = nan }},
		{"MinZScore", func(th *Thresholds) { th.MinZScore = nan }},
	} {
		th := Default()
		c.set(&th)
		if err := th.Validate(); err == nil {
			t.Errorf("NaN %s: Validate() = nil, want error", c.name)
		}
	}
}

func TestProblemClassification(t *testing.T) {
	th := Default()
	cases := []struct {
		name string
		q    QoE
		want [NumMetrics]bool // BufRatio, Bitrate, JoinTime, JoinFailure
	}{
		{
			name: "healthy HD session",
			q:    QoE{BufRatio: 0.01, BitrateKbps: 3000, JoinTimeMS: 1500, DurationS: 600},
			want: [NumMetrics]bool{false, false, false, false},
		},
		{
			name: "heavy buffering only",
			q:    QoE{BufRatio: 0.12, BitrateKbps: 3000, JoinTimeMS: 1500, DurationS: 600},
			want: [NumMetrics]bool{true, false, false, false},
		},
		{
			name: "low bitrate only",
			q:    QoE{BufRatio: 0.01, BitrateKbps: 400, JoinTimeMS: 1500, DurationS: 600},
			want: [NumMetrics]bool{false, true, false, false},
		},
		{
			name: "slow join only",
			q:    QoE{BufRatio: 0.01, BitrateKbps: 3000, JoinTimeMS: 15_000, DurationS: 600},
			want: [NumMetrics]bool{false, false, true, false},
		},
		{
			name: "join failure dominates",
			q:    QoE{JoinFailed: true},
			want: [NumMetrics]bool{false, false, false, true},
		},
		{
			name: "exactly at thresholds is not a problem",
			q:    QoE{BufRatio: 0.05, BitrateKbps: 700, JoinTimeMS: 10_000, DurationS: 600},
			want: [NumMetrics]bool{false, false, false, false},
		},
		{
			name: "multi-metric problems are independent",
			q:    QoE{BufRatio: 0.2, BitrateKbps: 200, JoinTimeMS: 20_000, DurationS: 600},
			want: [NumMetrics]bool{true, true, true, false},
		},
	}
	for _, c := range cases {
		for _, m := range All() {
			if got := c.q.Problem(m, th); got != c.want[m] {
				t.Errorf("%s: Problem(%v) = %v, want %v", c.name, m, got, c.want[m])
			}
		}
	}
}

// TestProblemBoundariesUlpTolerant pins the tolerance-aware boundary
// semantics at the paper's exact thresholds: a session whose metric value is
// mathematically on the 5% / 700 kbps / 10 s boundary but one ulp off —
// the normal outcome of computing the value arithmetically — must classify
// exactly like the boundary itself (not a problem).
func TestProblemBoundariesUlpTolerant(t *testing.T) {
	th := Default()
	cases := []struct {
		name string
		q    QoE
		m    Metric
		want bool
	}{
		{"buf ratio one ulp above 0.05", QoE{BufRatio: math.Nextafter(0.05, 1), BitrateKbps: 3000, JoinTimeMS: 100}, BufRatio, false},
		{"buf ratio derived by division", QoE{BufRatio: 5.0 / 100.0, BitrateKbps: 3000, JoinTimeMS: 100}, BufRatio, false},
		{"buf ratio clearly above", QoE{BufRatio: 0.051, BitrateKbps: 3000, JoinTimeMS: 100}, BufRatio, true},
		{"bitrate one ulp below 700", QoE{BufRatio: 0.01, BitrateKbps: math.Nextafter(700, 0), JoinTimeMS: 100}, Bitrate, false},
		{"bitrate clearly below", QoE{BufRatio: 0.01, BitrateKbps: 699, JoinTimeMS: 100}, Bitrate, true},
		{"join time one ulp above 10s", QoE{BufRatio: 0.01, BitrateKbps: 3000, JoinTimeMS: math.Nextafter(10_000, 20_000)}, JoinTime, false},
		{"join time clearly above", QoE{BufRatio: 0.01, BitrateKbps: 3000, JoinTimeMS: 10_001}, JoinTime, true},
	}
	for _, c := range cases {
		if got := c.q.Problem(c.m, th); got != c.want {
			t.Errorf("%s: Problem(%v) = %v, want %v", c.name, c.m, got, c.want)
		}
	}
}

func TestQoEValidate(t *testing.T) {
	good := QoE{BufRatio: 0.5, BitrateKbps: 100, JoinTimeMS: 10, DurationS: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	bad := []QoE{
		{BufRatio: -0.1},
		{BufRatio: 1.5},
		{BitrateKbps: -1},
		{JoinTimeMS: -1},
		{DurationS: -1},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v) = nil, want error", i, q)
		}
	}
	// A failed join skips the physical checks: the fields are undefined.
	if err := (QoE{JoinFailed: true, BufRatio: -1}).Validate(); err != nil {
		t.Errorf("failed-join Validate = %v, want nil", err)
	}
}

// TestQoEValidateRejectsNaN: a NaN in any measured field is rejected, not
// read as in range because every comparison with it is false.
func TestQoEValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, q := range []QoE{
		{BufRatio: nan, BitrateKbps: 100, JoinTimeMS: 10, DurationS: 5},
		{BufRatio: 0.5, BitrateKbps: nan, JoinTimeMS: 10, DurationS: 5},
		{BufRatio: 0.5, BitrateKbps: 100, JoinTimeMS: nan, DurationS: 5},
		{BufRatio: 0.5, BitrateKbps: 100, JoinTimeMS: 10, DurationS: nan},
	} {
		if err := q.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", q)
		}
	}
}
