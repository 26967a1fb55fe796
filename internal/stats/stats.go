// Package stats provides the small numeric and rendering helpers the
// experiment harness uses to print the paper's tables and figures as
// fixed-width text.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median (0 for empty input).
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

// Quartiles returns the first quartile, the median and the third
// quartile, interpolating linearly between order statistics (all 0 for
// empty input).
func Quartiles(xs []float64) (q1, median, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	at := func(p float64) float64 {
		pos := p * float64(len(ys)-1)
		lo := int(pos)
		if lo == len(ys)-1 {
			return ys[lo]
		}
		return ys[lo] + (pos-float64(lo))*(ys[lo+1]-ys[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// Geomean returns the geometric mean (0 for empty or non-positive input).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Table is a fixed-width text table.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
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
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], cell)
			}
		}
		b.WriteString("\n")
	}
	line(t.Cols)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// F formats a float for table cells.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
