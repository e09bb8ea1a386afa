// Package eps centralises tolerant floating-point comparison for the
// analysis pipeline. Every threshold the paper's methodology turns on — the
// 5% buffering ratio, the 700 kbps bitrate floor, the 1.5× global
// problem-ratio factor — is derived arithmetically, so values that are
// mathematically on a boundary can sit one ulp off it. Exact ==/</> at
// those boundaries silently misclassifies sessions and clusters; the
// floatcmp lint rule forbids direct float equality, and this package is the
// sanctioned replacement.
//
// Eq uses a relative tolerance scaled to the operands' magnitude, with an
// absolute floor near zero (relative tolerance is meaningless there).
package eps

import "math"

const (
	// Rel is the relative comparison tolerance: roughly a thousand ulps at
	// unit scale, far above accumulated rounding noise and far below any
	// physically meaningful metric difference.
	Rel = 1e-12
	// Abs is the absolute floor used when both operands are near zero.
	Abs = 1e-12
)

// Eq reports whether a and b are equal within tolerance.
func Eq(a, b float64) bool {
	if a == b { //vqlint:ignore floatcmp fast path; the tolerance test below covers inexact inputs
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= Abs || diff <= Rel*scale
}

// Zero reports whether a is zero within the absolute tolerance.
func Zero(a float64) bool { return math.Abs(a) <= Abs }

// GT reports a > b beyond tolerance: boundary values (a ≈ b) are not
// greater. This is the comparison behind "exceeds the threshold" rules —
// a session at exactly the 5% buffering ratio is not a problem session.
func GT(a, b float64) bool { return a > b && !Eq(a, b) }

// GTE reports a > b or a ≈ b: boundary values pass. This is the comparison
// behind "at least the threshold" rules — a cluster at exactly 1.5× the
// global ratio is a problem cluster even if the product is one ulp low.
func GTE(a, b float64) bool { return a > b || Eq(a, b) }

// LT reports a < b beyond tolerance.
func LT(a, b float64) bool { return a < b && !Eq(a, b) }
