package diagnose

import (
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/metric"
)

// buildView assembles an epoch where CDN 0 is uniformly bad across ASNs,
// while ASN 5 is bad only inside CDN 1.
func buildView(t *testing.T) *cluster.View {
	t.Helper()
	var sessions []cluster.Lite
	add := func(asn, cdn int32, n, p int) {
		for i := 0; i < n; i++ {
			var l cluster.Lite
			l.Attrs[attr.ASN] = asn
			l.Attrs[attr.CDN] = cdn
			if i < p {
				l.Bits |= 1 << metric.BufRatio
			}
			sessions = append(sessions, l)
		}
	}
	// CDN 0: every ASN elevated.
	add(1, 0, 100, 40)
	add(2, 0, 100, 38)
	add(3, 0, 100, 42)
	// CDN 1: only ASN 5 is bad.
	add(5, 1, 100, 50)
	add(6, 1, 300, 12)
	add(7, 1, 300, 12)
	// Healthy bulk, large enough that CDN 1 is itself a problem cluster.
	add(8, 2, 4000, 40)

	tbl := cluster.NewTable(3, sessions, 0)
	th := metric.Default()
	th.MinClusterSessions = 50
	th.MinZScore = 0
	v, err := cluster.BuildView(tbl, metric.BufRatio, th)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func key(pairs map[attr.Dim]int32) attr.Key { return attr.NewKey(pairs) }

func TestDrillUniformCause(t *testing.T) {
	v := buildView(t)
	r, err := Drill(v, key(map[attr.Dim]int32{attr.CDN: 0}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sessions != 300 || r.Problems != 120 {
		t.Errorf("counts = %d/%d", r.Problems, r.Sessions)
	}
	if !r.Uniform {
		t.Error("CDN 0 elevation is uniform across ASNs; report disagrees")
	}
	// The ASN decomposition must show all three children elevated.
	var asnBD *DimBreakdown
	for i := range r.Dimensions {
		if r.Dimensions[i].Dim == attr.ASN {
			asnBD = &r.Dimensions[i]
		}
	}
	if asnBD == nil || len(asnBD.Children) != 3 {
		t.Fatalf("ASN breakdown = %+v", asnBD)
	}
	if asnBD.ElevatedShare < 0.99 {
		t.Errorf("elevated share = %v, want ~1", asnBD.ElevatedShare)
	}
	if !strings.Contains(r.Summary(), "uniform") {
		t.Errorf("summary should call out uniformity: %s", r.Summary())
	}
	if len(r.Remedies) == 0 || !strings.Contains(r.Remedies[0], "CDN") {
		t.Errorf("CDN remedies missing: %v", r.Remedies)
	}
}

func TestDrillConcentratedCause(t *testing.T) {
	v := buildView(t)
	r, err := Drill(v, key(map[attr.Dim]int32{attr.CDN: 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Uniform {
		t.Error("CDN 1's problem concentrates in ASN 5; report claims uniform")
	}
	sum := r.Summary()
	if !strings.Contains(sum, "refine") {
		t.Errorf("summary should suggest refining: %s", sum)
	}
	// Worst child along ASN is ASN 5.
	for _, bd := range r.Dimensions {
		if bd.Dim == attr.ASN {
			if len(bd.Children) == 0 || bd.Children[0].Value != 5 {
				t.Errorf("worst ASN child = %+v, want ASN 5 first", bd.Children)
			}
		}
	}
}

// TestDrillHealthyCluster: a cluster below the problem threshold is
// reported as not a problem cluster, with no elevation sentence.
func TestDrillHealthyCluster(t *testing.T) {
	v := buildView(t)
	r, err := Drill(v, key(map[attr.Dim]int32{attr.CDN: 2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Problem {
		t.Errorf("healthy CDN 2 (ratio %.3f, threshold %.3f) reported as a problem cluster", r.Ratio, r.Threshold)
	}
	sum := r.Summary()
	if !strings.Contains(sum, "is not a problem cluster") || strings.Contains(sum, "critical") || strings.Contains(sum, "elevation") {
		t.Errorf("summary misreads a healthy cluster: %s", sum)
	}
	if u, err := Drill(v, key(map[attr.Dim]int32{attr.CDN: 0}), nil); err != nil || !u.Problem || !strings.Contains(u.Summary(), "is a problem cluster") {
		t.Errorf("CDN 0 should read as a problem cluster: %v", err)
	}
}

func TestDrillSmallChildrenSkipped(t *testing.T) {
	v := buildView(t)
	r, err := Drill(v, key(map[attr.Dim]int32{attr.CDN: 0}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range r.Dimensions {
		for _, c := range bd.Children {
			if c.Sessions < v.MinSessions {
				t.Errorf("statistically insignificant child reported: %+v", c)
			}
		}
	}
}

func TestDrillErrors(t *testing.T) {
	v := buildView(t)
	if _, err := Drill(v, key(map[attr.Dim]int32{attr.CDN: 9}), nil); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestRemediesByMetric(t *testing.T) {
	siteKey := key(map[attr.Dim]int32{attr.Site: 1})
	bitrate := remedies(siteKey, metric.Bitrate)
	joinfail := remedies(siteKey, metric.JoinFailure)
	if !strings.Contains(bitrate[0], "bitrate ladder") {
		t.Errorf("site+bitrate remedy = %v", bitrate)
	}
	if !strings.Contains(joinfail[0], "CDN") {
		t.Errorf("site+joinfail remedy = %v", joinfail)
	}
	if got := remedies(attr.Root, metric.BufRatio); len(got) != 1 || !strings.Contains(got[0], "global") {
		t.Errorf("root remedies = %v", got)
	}
}
