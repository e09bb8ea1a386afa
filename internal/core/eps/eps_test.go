package eps

import (
	"math"
	"testing"
)

func TestEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{0.05, 0.05, true},
		// One ulp apart: must compare equal.
		{0.05, math.Nextafter(0.05, 1), true},
		{700, math.Nextafter(700, 0), true},
		// Arithmetic that famously misses exactness.
		{0.1 + 0.2, 0.3, true},
		{0.05 * 3, 0.15, true},
		// Near zero the absolute floor applies.
		{0, 1e-13, true},
		{0, 1e-9, false},
		// Physically meaningful differences stay different.
		{0.05, 0.0501, false},
		{700, 699.9, false},
		{1.5, 1.49, false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestZero(t *testing.T) {
	if !Zero(0) || !Zero(1e-13) || !Zero(-1e-13) {
		t.Error("Zero should accept values within the absolute floor")
	}
	if Zero(1e-6) || Zero(-1e-6) {
		t.Error("Zero should reject clearly nonzero values")
	}
}

// TestOrderedComparisons pins the semantics the classifier depends on: GT is
// "exceeds the threshold" (boundary excluded), GTE is "at least the
// threshold" (boundary included), each tolerant of one-ulp noise.
func TestOrderedComparisons(t *testing.T) {
	ulpAbove := math.Nextafter(0.05, 1)
	ulpBelow := math.Nextafter(0.05, 0)
	cases := []struct {
		name    string
		a, b    float64
		gt, gte bool
	}{
		{"clearly above", 0.06, 0.05, true, true},
		{"clearly below", 0.04, 0.05, false, false},
		{"exactly at", 0.05, 0.05, false, true},
		{"one ulp above", ulpAbove, 0.05, false, true},
		{"one ulp below", ulpBelow, 0.05, false, true},
	}
	for _, c := range cases {
		if got := GT(c.a, c.b); got != c.gt {
			t.Errorf("%s: GT(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.gt)
		}
		if got := GTE(c.a, c.b); got != c.gte {
			t.Errorf("%s: GTE(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.gte)
		}
		// LT mirrors GT with the operands swapped.
		if got := LT(c.b, c.a); got != c.gt {
			t.Errorf("%s: LT(%v, %v) = %v, want %v", c.name, c.b, c.a, got, c.gt)
		}
	}
}

// TestPaperBoundaries pins the three headline thresholds at their exact
// paper values: 5% buffering ratio, 700 kbps, and a 1.5× problem-ratio
// factor derived through division (the way cluster.IsProblemCounts computes
// it).
func TestPaperBoundaries(t *testing.T) {
	// A buffering ratio computed as 5 seconds of 100 must be "at" 0.05.
	if GT(5.0/100.0, 0.05) {
		t.Error("5/100 must not exceed the 0.05 threshold")
	}
	// A bitrate of exactly 700 kbps is not below the floor.
	if LT(700.0, 700.0) {
		t.Error("700 kbps must not be below the 700 kbps floor")
	}
	// A cluster ratio of exactly 1.5× the global ratio passes GTE even when
	// both sides come from division and multiplication.
	global := 1.0 / 3.0
	threshold := 1.5 * global
	ratio := 0.5 // 50 problems of 100 sessions
	if !GTE(ratio, threshold) {
		t.Errorf("ratio %v must pass the 1.5×global=%v threshold", ratio, threshold)
	}
}
