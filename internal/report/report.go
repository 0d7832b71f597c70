// Package report renders the experiment outputs as aligned text tables,
// sparkline-style figures, and CSV — one renderer per artifact shape in
// the paper (count tables, time-series figures, heatmaps).
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the aligned text form.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Series is one named time series for a Figure.
type Series struct {
	Name   string
	Points []float64
}

// Figure renders one or more aligned series as rows of values plus an
// ASCII sparkline, standing in for the paper's plots.
type Figure struct {
	Title  string
	XLabel string
	X      []string // shared x-axis labels (e.g. days or months)
	Series []Series
}

// sparkRunes are eight amplitude levels.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode sparkline normalized to the max.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	max := values[0]
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// Render returns the figure as text: one sparkline per series with first,
// last, and peak values annotated.
func (f *Figure) Render() string {
	var sb strings.Builder
	if f.Title != "" {
		sb.WriteString(f.Title)
		sb.WriteByte('\n')
	}
	if len(f.X) > 0 {
		sb.WriteString(fmt.Sprintf("x: %s .. %s (%d points, %s)\n", f.X[0], f.X[len(f.X)-1], len(f.X), f.XLabel))
	}
	nameW := 0
	for _, s := range f.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range f.Series {
		first, last, peak := 0.0, 0.0, 0.0
		if len(s.Points) > 0 {
			first, last = s.Points[0], s.Points[len(s.Points)-1]
			for _, v := range s.Points {
				if v > peak {
					peak = v
				}
			}
		}
		sb.WriteString(fmt.Sprintf("%-*s %s first=%.4g last=%.4g peak=%.4g\n",
			nameW, s.Name, Sparkline(s.Points), first, last, peak))
	}
	return sb.String()
}

// Heatmap renders a sparse matrix (rows × cols) with single-character
// intensity cells, like the paper's Figure 1c CA×log matrix.
type Heatmap struct {
	Title string
	Rows  []string
	Cols  []string
	// Value returns the cell value for (row, col).
	Value func(row, col string) float64
}

var heatRunes = []rune(" .:-=+*#%@")

// Render returns the heatmap as text. Intensity is normalized to the
// global maximum.
func (h *Heatmap) Render() string {
	max := 0.0
	for _, r := range h.Rows {
		for _, c := range h.Cols {
			if v := h.Value(r, c); v > max {
				max = v
			}
		}
	}
	rowW := 0
	for _, r := range h.Rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	var sb strings.Builder
	if h.Title != "" {
		sb.WriteString(h.Title)
		sb.WriteByte('\n')
	}
	// Column legend, numbered to keep the grid narrow.
	for i, c := range h.Cols {
		sb.WriteString(fmt.Sprintf("%*s col %2d: %s\n", rowW, "", i, c))
	}
	for _, r := range h.Rows {
		sb.WriteString(fmt.Sprintf("%-*s ", rowW, r))
		for _, c := range h.Cols {
			v := h.Value(r, c)
			idx := 0
			if max > 0 && v > 0 {
				idx = 1 + int(v/max*float64(len(heatRunes)-2))
				if idx >= len(heatRunes) {
					idx = len(heatRunes) - 1
				}
			}
			sb.WriteRune(heatRunes[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Humanize formats large counts the way the paper does (e.g. 8.6G, 5.7M,
// 303k).
func Humanize(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
