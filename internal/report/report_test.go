package report

import (
	"sort"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "Demo",
		Columns: []string{"Name", "Value", "Share"},
	}
	tbl.AddRow("alpha", 12.5, Pct(0.5))
	tbl.AddRow("beta-long-name", 3, "1.0%")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Name") || !strings.Contains(lines[1], "Value") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator = %q", lines[2])
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "12.50") {
		t.Errorf("row content missing: %q", out)
	}
	// Columns align: the Value column starts at the same offset in header
	// and data rows.
	hIdx := strings.Index(lines[1], "Value")
	rIdx := strings.Index(lines[3], "12.50")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := Table{Columns: []string{"A"}}
	tbl.AddRow(1)
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(sb.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestFigureRender(t *testing.T) {
	fig := NewFigure("Curve", "x", "s1", "s2")
	fig.AddPoint(0.1, 1, 2)
	fig.AddPoint(0.2, 3, 4)
	fig.AddPoint(0.3, 5) // ragged: s2 missing
	var sb strings.Builder
	if err := fig.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Curve") || !strings.Contains(out, "s2") {
		t.Errorf("figure output missing pieces: %q", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("missing-cell placeholder absent")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, sep, 3 points
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

// TestTableRenderDeterministic is the golden determinism check: a table
// whose rows come from a map (emitted in sorted key order, the repository
// convention enforced by vqlint's detorder rule) must render byte-for-byte
// identically on every pass. Two independent builds from the same map are
// rendered twice each and all four outputs compared.
func TestTableRenderDeterministic(t *testing.T) {
	src := map[string]float64{
		"cdn-03":       0.0712,
		"asn-17":       0.0555,
		"site-a":       0.0123,
		"conn-mobile":  0.1402,
		"geo-eu-west":  0.0998,
		"device-stick": 0.0417,
	}
	build := func() *Table {
		tbl := &Table{Title: "Problem ratio by cluster", Columns: []string{"Cluster", "Ratio"}}
		keys := make([]string, 0, len(src))
		for k := range src {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			tbl.AddRow(k, src[k])
		}
		return tbl
	}
	render := func(tbl *Table) string {
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render(build())
	for i := 0; i < 3; i++ {
		if got := render(build()); got != first {
			t.Fatalf("render %d differs from first:\n%q\nvs\n%q", i+2, got, first)
		}
	}
	// Sorted emission also pins the row order itself, not just stability.
	if a, b := strings.Index(first, "asn-17"), strings.Index(first, "site-a"); a == -1 || b == -1 || a > b {
		t.Errorf("rows not in sorted key order:\n%s", first)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{-3, "-3"},
		{1234.5, "1234"},
		{12.345, "12.35"},
		{0.5, "0.5000"},
		{0.0001, "0.0001"},
		{1e-7, "1e-07"},
	}
	for _, c := range cases {
		if got := formatFloat(c.v); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if Pct(0.5) != "50.0%" || Pct(0.123) != "12.3%" || Pct(0) != "0.0%" {
		t.Errorf("Pct output wrong: %q %q %q", Pct(0.5), Pct(0.123), Pct(0))
	}
}
