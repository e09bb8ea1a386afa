package critical

import "repro/internal/cluster"

// Test hooks.

// Detect runs the phase-transition search and attribution passes over a
// problem-cluster view using default options.
func Detect(v *cluster.View) *Result { return DetectOpts(v, DefaultOptions()) }

// CriticalCoverage returns the fraction of all problem sessions covered by
// critical clusters (Table 1, "Mean critical cluster coverage").
func (r *Result) CriticalCoverage() float64 {
	if r.View.GlobalProblems == 0 {
		return 0
	}
	return float64(r.CoveredProblems) / float64(r.View.GlobalProblems)
}

// ProblemCoverage returns the fraction of all problem sessions inside some
// problem cluster (Table 1, "Mean problem cluster coverage").
func (r *Result) ProblemCoverage() float64 {
	if r.View.GlobalProblems == 0 {
		return 0
	}
	return float64(r.ProblemsInProblemClusters) / float64(r.View.GlobalProblems)
}
