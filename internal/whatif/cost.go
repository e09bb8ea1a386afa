package whatif

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/core/eps"
	"repro/internal/metric"
)

// The paper's §6 ("Cost of remedial measures") notes that its improvement
// analysis ignores what fixing a critical cluster costs — infrastructure
// upgrades, new CDN contracts, extra encodes — and calls a cost-benefit
// treatment interesting future work. This file implements that extension: a
// simple per-cluster cost model keyed on the remedial action the cluster's
// attribute type implies, and a greedy benefit-per-cost selection compared
// against the paper's coverage-only ranking under a budget.

// CostModel prices the remedial action for a critical cluster. Costs are in
// arbitrary "effort units"; only their relative magnitudes matter.
type CostModel struct {
	// SiteFixed prices per-provider work (adding bitrate renditions,
	// contracting a second CDN): one-off engineering per site.
	SiteFixed float64
	// CDNFixed prices per-CDN work (capacity, new footprint): expensive
	// infrastructure.
	CDNFixed float64
	// ASNFixed prices per-ISP work (peering arrangements, local caches).
	ASNFixed float64
	// OtherFixed prices everything else (player/browser/connection-type
	// specific engineering).
	OtherFixed float64
	// PerSession prices disruption proportional to the traffic volume
	// touched (upgrades interrupt serving).
	PerSession float64
}

// DefaultCostModel reflects the paper's qualitative ordering: CDN
// infrastructure is the most expensive to change, provider-side fixes are
// moderate, ISP arrangements sit between, and there is a small volume-
// proportional disruption term.
func DefaultCostModel() CostModel {
	return CostModel{
		SiteFixed:  40,
		CDNFixed:   400,
		ASNFixed:   120,
		OtherFixed: 80,
		PerSession: 0.01,
	}
}

// validate reports the first invalid field.
func (c CostModel) validate() error {
	for _, v := range []float64{c.SiteFixed, c.CDNFixed, c.ASNFixed, c.OtherFixed, c.PerSession} {
		if v < 0 {
			return fmt.Errorf("whatif: negative cost component %v", v)
		}
	}
	if eps.Zero(c.SiteFixed + c.CDNFixed + c.ASNFixed + c.OtherFixed + c.PerSession) {
		return fmt.Errorf("whatif: zero cost model")
	}
	return nil
}

// cost prices fixing one critical cluster with the given total attributed
// session volume. Multi-attribute clusters price at the most expensive
// component they touch (the fix must reach that part of the path).
func (c CostModel) cost(k attr.Key, attributedSessions float64) float64 {
	fixed := 0.0
	pick := func(v float64) {
		if v > fixed {
			fixed = v
		}
	}
	any := false
	for _, d := range k.Mask.Dims() {
		any = true
		switch d {
		case attr.Site:
			pick(c.SiteFixed)
		case attr.CDN:
			pick(c.CDNFixed)
		case attr.ASN:
			pick(c.ASNFixed)
		default:
			pick(c.OtherFixed)
		}
	}
	if !any {
		pick(c.OtherFixed)
	}
	return fixed + c.PerSession*attributedSessions
}

// CostBenefitPoint is one sample of a budgeted alleviation curve.
type CostBenefitPoint struct {
	Budget float64
	// Selected is the number of clusters funded.
	Selected int
	// Alleviated is the fraction of all problem sessions alleviated.
	Alleviated float64
}

// CostBenefitResult compares two selection policies under the same budgets.
type CostBenefitResult struct {
	Metric metric.Metric
	// ByBenefitPerCost selects greedily by alleviation/cost.
	ByBenefitPerCost []CostBenefitPoint
	// ByCoverage selects by the paper's coverage ranking until the budget
	// is exhausted.
	ByCoverage []CostBenefitPoint
}

// CostBenefit runs the §6 extension over a trace: at each budget, pick
// critical clusters under the two policies and report the alleviation
// achieved. Budgets are fractions of the cost of fixing everything.
func CostBenefit(tr *core.TraceResult, m metric.Metric, model CostModel, budgetFracs []float64) (CostBenefitResult, error) {
	res := CostBenefitResult{Metric: m}
	if err := model.validate(); err != nil {
		return res, err
	}
	h := analysis.BuildHistory(tr, m)

	type cand struct {
		key     attr.Key
		benefit float64 // alleviated problem sessions (absolute)
		cost    float64
	}
	cands := make([]cand, 0, len(h.Critical))
	var totalCost, totalProblems float64
	for i := range tr.Epochs {
		totalProblems += float64(tr.Epochs[i].Metrics[m].GlobalProblems)
	}
	// Benefit of fixing key k everywhere it is critical. Keys are visited
	// in sorted order so the candidate list and the totalCost sum are
	// reproducible across runs.
	criticalKeys := make([]attr.Key, 0, len(h.Critical))
	for k := range h.Critical {
		criticalKeys = append(criticalKeys, k)
	}
	sort.Slice(criticalKeys, func(i, j int) bool { return analysis.KeyLess(criticalKeys[i], criticalKeys[j]) })
	for _, k := range criticalKeys {
		o := FixKeys(tr, m, map[attr.Key]bool{k: true}, tr.Trace)
		cost := model.cost(k, h.Critical[k].TotalSessions)
		cands = append(cands, cand{key: k, benefit: o.Alleviated, cost: cost})
		totalCost += cost
	}
	if eps.Zero(totalProblems) || eps.Zero(totalCost) {
		return res, fmt.Errorf("whatif: empty trace for cost-benefit")
	}

	runPolicy := func(order []cand) []CostBenefitPoint {
		pts := make([]CostBenefitPoint, 0, len(budgetFracs))
		for _, frac := range budgetFracs {
			budget := frac * totalCost
			var spent, alleviated float64
			selected := 0
			for _, c := range order {
				if spent+c.cost > budget {
					continue // greedy with skip: cheaper items may still fit
				}
				spent += c.cost
				alleviated += c.benefit
				selected++
			}
			pts = append(pts, CostBenefitPoint{
				Budget:     frac,
				Selected:   selected,
				Alleviated: alleviated / totalProblems,
			})
		}
		return pts
	}

	byBPC := append([]cand(nil), cands...)
	sort.SliceStable(byBPC, func(i, j int) bool {
		a, b := byBPC[i].benefit/byBPC[i].cost, byBPC[j].benefit/byBPC[j].cost
		if a != b {
			return a > b
		}
		return analysis.KeyLess(byBPC[i].key, byBPC[j].key)
	})
	byCov := append([]cand(nil), cands...)
	sort.SliceStable(byCov, func(i, j int) bool {
		if byCov[i].benefit != byCov[j].benefit {
			return byCov[i].benefit > byCov[j].benefit
		}
		return analysis.KeyLess(byCov[i].key, byCov[j].key)
	})

	res.ByBenefitPerCost = runPolicy(byBPC)
	res.ByCoverage = runPolicy(byCov)
	return res, nil
}

// DefaultBudgetFracs is the budget axis used by the cost-benefit report.
func DefaultBudgetFracs() []float64 {
	return []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}
}
