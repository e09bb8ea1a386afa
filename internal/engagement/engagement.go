// Package engagement models the quality→engagement relationship that
// motivates the paper (§1): quality problems cost viewing time and
// therefore subscription/advertising revenue. The model follows the two
// studies the paper leans on — Dobrian et al. (SIGCOMM'11: ~3–4 minutes of
// viewing lost per percentage point of buffering ratio, with a sharp drop
// past the 5% threshold) and Krishnan & Sitaraman (IMC'12: viewers abandon
// at roughly 6% per second of startup delay beyond two seconds) — and lets
// the what-if analyses express alleviated problem sessions in recovered
// viewing minutes.
package engagement

import "repro/internal/metric"

// Model prices engagement loss per session.
type Model struct {
	// BaselineMinutes is the expected viewing time of a problem-free
	// session.
	BaselineMinutes float64
	// LossPerBufPct is viewing minutes lost per percentage point of
	// buffering ratio (Dobrian et al.: 3–4 minutes).
	LossPerBufPct float64
	// AbandonPerJoinSecond is the probability of abandonment per second of
	// join time beyond JoinGraceSeconds (Krishnan & Sitaraman: ~5.8%).
	AbandonPerJoinSecond float64
	// JoinGraceSeconds is the startup delay viewers tolerate freely.
	JoinGraceSeconds float64
	// LowBitratePenalty is the fractional viewing-time reduction for
	// sessions stuck below the acceptable rendition.
	LowBitratePenalty float64
}

// Default returns the literature-calibrated model.
func Default() Model {
	return Model{
		BaselineMinutes:      40,
		LossPerBufPct:        3.5,
		AbandonPerJoinSecond: 0.058,
		JoinGraceSeconds:     2,
		LowBitratePenalty:    0.25,
	}
}

// ExpectedMinutes returns the modelled viewing time of a session with the
// given quality, in [0, BaselineMinutes].
func (m Model) ExpectedMinutes(q metric.QoE, th metric.Thresholds) float64 {
	if q.JoinFailed {
		return 0
	}
	minutes := m.BaselineMinutes

	// Startup abandonment scales the whole expectation.
	joinS := q.JoinTimeMS / 1000
	if extra := joinS - m.JoinGraceSeconds; extra > 0 {
		stay := 1 - m.AbandonPerJoinSecond*extra
		if stay < 0 {
			stay = 0
		}
		minutes *= stay
	}

	// Buffering bites linearly, with the paper's observation of a sharp
	// drop beyond the 5% threshold modelled by doubling the slope there.
	bufPct := q.BufRatio * 100
	cut := th.BufRatio * 100
	if bufPct <= cut {
		minutes -= m.LossPerBufPct * bufPct
	} else {
		minutes -= m.LossPerBufPct*cut + 2*m.LossPerBufPct*(bufPct-cut)
	}

	// Sub-threshold bitrate shaves a constant fraction.
	if q.BitrateKbps < th.BitrateKbps {
		minutes *= 1 - m.LowBitratePenalty
	}

	if minutes < 0 {
		minutes = 0
	}
	return minutes
}
