// Package epoch provides the discrete one-hour time base of the analysis.
// The paper divides its two-week dataset into one-hour epochs (§3.1); all
// clustering, prevalence, and persistence computations are per-epoch.
package epoch

import "time"

// Index is a zero-based hour index into the trace.
type Index int32

const (
	// HoursPerDay and HoursPerWeek define the calendar used when slicing
	// traces into training/test windows (paper §5.2).
	HoursPerDay  = 24
	HoursPerWeek = 7 * HoursPerDay

	// DefaultTraceEpochs is the paper's two-week span in hours.
	DefaultTraceEpochs = 2 * HoursPerWeek
)

// Duration is the length of one epoch.
const Duration = time.Hour

// Range is a half-open interval of epochs [Start, End).
type Range struct {
	Start Index
	End   Index
}

// Len returns the number of epochs in the range.
func (r Range) Len() int { return int(r.End - r.Start) }

// Contains reports whether e falls in the range.
func (r Range) Contains(e Index) bool { return e >= r.Start && e < r.End }

// Split partitions the range at an absolute epoch boundary, returning
// [Start, at) and [at, End). The boundary is clamped to the range.
func (r Range) Split(at Index) (Range, Range) {
	if at < r.Start {
		at = r.Start
	}
	if at > r.End {
		at = r.End
	}
	return Range{r.Start, at}, Range{at, r.End}
}

// Week returns the week-long sub-range starting at week w (zero-based),
// clamped to the range.
func (r Range) Week(w int) Range {
	start := r.Start + Index(w*HoursPerWeek)
	end := start + HoursPerWeek
	if start > r.End {
		start = r.End
	}
	if end > r.End {
		end = r.End
	}
	return Range{start, end}
}

// Epochs returns each index in the range, in order.
func (r Range) Epochs() []Index {
	out := make([]Index, 0, r.Len())
	for e := r.Start; e < r.End; e++ {
		out = append(out, e)
	}
	return out
}

// HourOfDay returns the hour-of-day (0–23) of epoch e, used by diurnal
// workload models.
func HourOfDay(e Index) int {
	h := int(e) % HoursPerDay
	if h < 0 {
		h += HoursPerDay
	}
	return h
}
