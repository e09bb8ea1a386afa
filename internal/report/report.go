// Package report renders tables and data series as aligned plain text, the
// output format of every reproduced figure and table. Figures are emitted
// as columnar series (x plus one column per line of the plot) so they can
// be eyeballed, diffed, or piped into a plotting tool.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells (stringified with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Figure is a titled multi-series plot emitted as columns.
type Figure struct {
	Title  string
	XLabel string
	// Series holds the y-column names in order.
	Series []string
	// X are the sample positions; Y[i][j] is series i at X[j]. Series may
	// be ragged (shorter than X); missing cells render as "-".
	X []float64
	Y [][]float64
}

// NewFigure builds a figure shell.
func NewFigure(title, xlabel string, series ...string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, Series: series, Y: make([][]float64, len(series))}
}

// AddPoint appends an x position with one y value per series.
func (f *Figure) AddPoint(x float64, ys ...float64) {
	f.X = append(f.X, x)
	for i := range f.Series {
		if i < len(ys) {
			f.Y[i] = append(f.Y[i], ys[i])
		}
	}
}

// Render writes the figure as an aligned column block.
func (f *Figure) Render(w io.Writer) error {
	t := Table{Title: f.Title, Columns: append([]string{f.XLabel}, f.Series...)}
	for j, x := range f.X {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, formatFloat(x))
		for i := range f.Series {
			if j < len(f.Y[i]) {
				row = append(row, formatFloat(f.Y[i][j]))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t.Render(w)
}

// formatFloat renders a float compactly: integers without decimals, small
// magnitudes with enough precision to be meaningful.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 { //vqlint:ignore floatcmp exact integrality test, not a tolerance comparison
		return strconv.FormatInt(int64(v), 10)
	}
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case abs >= 1:
		return strconv.FormatFloat(v, 'f', 2, 64)
	case abs >= 0.001:
		return strconv.FormatFloat(v, 'f', 4, 64)
	default:
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
}

// Pct renders a fraction as a percentage string.
func Pct(v float64) string {
	return strconv.FormatFloat(100*v, 'f', 1, 64) + "%"
}
