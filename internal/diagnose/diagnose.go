// Package diagnose implements the paper's §6 "more diagnostic capabilities"
// direction: given a detected critical cluster, drill into the epoch's data
// to characterise the problem — is the elevation uniform across every
// sub-population (the cause lives at this level) or concentrated in a few
// children (refine the investigation)? — and suggest the class of remedial
// action the paper's discussion associates with each attribute type
// (multiple CDNs and finer bitrate ladders for providers, local CDN
// contracts for remote ISPs, and so on).
package diagnose

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/metric"
)

// ChildStat is one sub-population of the diagnosed cluster.
type ChildStat struct {
	Value    int32
	Name     string
	Sessions int32
	Problems int32
	Ratio    float64
	// Elevated reports whether this child's ratio clears the epoch's
	// problem-cluster threshold.
	Elevated bool
}

// DimBreakdown decomposes the cluster along one free dimension.
type DimBreakdown struct {
	Dim attr.Dim
	// Children are the statistically sized sub-populations, worst first.
	Children []ChildStat
	// ElevatedShare is the session-weighted fraction of children that are
	// elevated: ~1 means the problem is uniform along this dimension.
	ElevatedShare float64
}

// Report is a full drill-down of one cluster in one epoch.
type Report struct {
	Epoch    int32
	Metric   metric.Metric
	Key      attr.Key
	Name     string
	Sessions int32
	Problems int32
	Ratio    float64
	// GlobalRatio and Threshold give the epoch context.
	GlobalRatio float64
	Threshold   float64
	// Problem reports whether the cluster is a problem cluster of the
	// epoch. Drill runs no critical-cluster detection, so it says nothing
	// about criticality.
	Problem bool
	// Dimensions hold the per-dimension decompositions, free dims only.
	Dimensions []DimBreakdown
	// Uniform reports whether every decomposition is near-uniform — the
	// signature of a cause anchored exactly at Key.
	Uniform bool
	// Remedies lists the remedial-action classes the paper's discussion
	// associates with this cluster's attribute types and metric.
	Remedies []string
}

// Drill analyses cluster key k of metric m against an epoch's view. The
// space (optional) names attribute values.
func Drill(v *cluster.View, k attr.Key, space *attr.Space) (*Report, error) {
	m := v.Metric
	c := v.Counts(k)
	if c.Total == 0 {
		return nil, fmt.Errorf("diagnose: cluster %v has no sessions in this epoch", k)
	}
	r := &Report{
		Epoch:       int32(v.Epoch),
		Metric:      m,
		Key:         k,
		Sessions:    c.Sessions(m),
		Problems:    c.Problems[m],
		Ratio:       c.Ratio(m),
		GlobalRatio: v.GlobalRatio,
		Threshold:   v.Threshold,
		Problem:     v.IsProblem(c),
		Uniform:     true,
	}
	if space != nil {
		r.Name = space.FormatKey(k)
	} else {
		r.Name = k.String()
	}

	// Gather children along each free dimension from the count table.
	type childAcc map[int32]cluster.Counts
	children := make(map[attr.Dim]childAcc)
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		if !k.Mask.Has(d) {
			children[d] = make(childAcc)
		}
	}
	v.Table().ForEach(func(key attr.Key, counts cluster.Counts) {
		if key.Mask.Size() != k.Size()+1 || !k.Subsumes(key) {
			return
		}
		for _, d := range key.Mask.Dims() {
			if !k.Mask.Has(d) {
				children[d][key.Vals[d]] = counts
			}
		}
	})

	for d := attr.Dim(0); d < attr.NumDims; d++ {
		acc, ok := children[d]
		if !ok {
			continue
		}
		bd := DimBreakdown{Dim: d}
		var sigSessions, elevatedSessions int64
		for val, counts := range acc {
			n := counts.Sessions(m)
			if n < v.MinSessions {
				continue
			}
			cs := ChildStat{
				Value:    val,
				Sessions: n,
				Problems: counts.Problems[m],
				Ratio:    counts.Ratio(m),
				Elevated: counts.Ratio(m) >= v.Threshold,
			}
			if space != nil {
				cs.Name = space.Name(d, val)
			} else {
				cs.Name = fmt.Sprintf("%s#%d", d, val)
			}
			bd.Children = append(bd.Children, cs)
			sigSessions += int64(n)
			if cs.Elevated {
				elevatedSessions += int64(n)
			}
		}
		if len(bd.Children) == 0 {
			continue
		}
		sort.Slice(bd.Children, func(i, j int) bool {
			if bd.Children[i].Ratio != bd.Children[j].Ratio {
				return bd.Children[i].Ratio > bd.Children[j].Ratio
			}
			return bd.Children[i].Value < bd.Children[j].Value
		})
		if sigSessions > 0 {
			bd.ElevatedShare = float64(elevatedSessions) / float64(sigSessions)
		}
		if bd.ElevatedShare < 0.6 {
			r.Uniform = false
		}
		r.Dimensions = append(r.Dimensions, bd)
	}

	r.Remedies = remedies(k, m)
	return r, nil
}

// remedies maps the cluster's attribute types and metric to the paper's
// discussed remedial-action classes (§1 and §4.3).
func remedies(k attr.Key, m metric.Metric) []string {
	var out []string
	add := func(s string) { out = append(out, s) }
	for _, d := range k.Mask.Dims() {
		switch d {
		case attr.Site:
			switch m {
			case metric.Bitrate, metric.BufRatio:
				add("offer a finer-grained bitrate ladder (single-bitrate sites cannot adapt)")
			case metric.JoinFailure:
				add("contract additional CDNs (single-CDN low-priority traffic fails under load)")
			default:
				add("serve player modules from nearby CDNs (remote bootstrap inflates join time)")
			}
		case attr.CDN:
			add("add capacity or re-balance the CDN footprint; consider multi-CDN switching for its sites")
		case attr.ASN:
			add("contract a local CDN operator or cache inside the ISP's region")
		case attr.ConnType:
			add("provision lower renditions and conservative startup for constrained access networks")
		case attr.PlayerType, attr.Browser:
			add("audit the client stack: player/browser-specific adaptation or decoding defects")
		case attr.VoDOrLive:
			add("separate live and VoD serving paths; live crowds overwhelm shared infrastructure")
		}
	}
	if len(out) == 0 {
		add("no attribute-specific remedy; investigate global infrastructure")
	}
	return out
}

// Summary renders a one-paragraph reading of the report.
func (r *Report) Summary() string {
	var b strings.Builder
	verdict := "is not"
	if r.Problem {
		verdict = "is"
	}
	fmt.Fprintf(&b, "%s %s a problem cluster for %s in epoch %d: %d of %d sessions are problems (ratio %.2f vs global %.2f). ",
		r.Name, verdict, r.Metric, r.Epoch, r.Problems, r.Sessions, r.Ratio, r.GlobalRatio)
	if r.Problem {
		if r.Uniform {
			b.WriteString("The elevation is uniform across every sub-population: the cause is anchored exactly at this combination. ")
		} else {
			worst := r.worstDim()
			if worst != nil && len(worst.Children) > 0 {
				fmt.Fprintf(&b, "The elevation concentrates along %s (worst: %s at ratio %.2f): refine the investigation there. ",
					worst.Dim, worst.Children[0].Name, worst.Children[0].Ratio)
			}
		}
	}
	b.WriteString("Suggested remedies: ")
	b.WriteString(strings.Join(r.Remedies, "; "))
	b.WriteString(".")
	return b.String()
}

func (r *Report) worstDim() *DimBreakdown {
	var worst *DimBreakdown
	for i := range r.Dimensions {
		d := &r.Dimensions[i]
		if len(d.Children) == 0 {
			continue
		}
		if worst == nil || d.ElevatedShare < worst.ElevatedShare {
			worst = d
		}
	}
	return worst
}
