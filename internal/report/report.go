// Package report renders analysis results as aligned text tables and
// ASCII charts — the presentation layer for cmd/riskybiz and the
// benchmark harness.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table builder.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// CDFChart renders cumulative-fraction points as a coarse ASCII curve:
// one row per requested quantile.
func CDFChart(w io.Writer, name string, quantile func(p float64) int) {
	fmt.Fprintf(w, "%s\n", name)
	for _, p := range []float64{0.10, 0.25, 0.50, 0.70, 0.90, 0.95, 0.99} {
		v := quantile(p)
		bar := int(p * 50)
		fmt.Fprintf(w, "  p%02.0f %s %d days\n", p*100, strings.Repeat("#", bar), v)
	}
}

// Sparkline renders a count series as a one-line unicode sparkline,
// useful for eyeballing the monthly figures.
func Sparkline(values []int) string {
	if len(values) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	maxV := 1
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		idx := v * (len(levels) - 1) / maxV
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
