// Package metrics provides the evaluation arithmetic the experiments
// report: retrieval precision against ground truth (§6.1) and small
// aggregation helpers, plus a fixed-width text table used to print
// paper-style result rows.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Precision returns |rel ∩ ret| / |rel| — the paper's retrieval precision,
// where rel is the ground-truth top-K and ret the method's top-K.
func Precision(rel, ret []int) float64 {
	if len(rel) == 0 {
		return 0
	}
	in := make(map[int]bool, len(rel))
	for _, id := range rel {
		in[id] = true
	}
	hit := 0
	for _, id := range ret {
		if in[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(rel))
}

// Mean returns the average of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table is a titled fixed-width text table for experiment output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; cells are already formatted strings.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of values formatted with %v (floats get %.4g).
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) error {
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
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	// strings.Builder writes never fail.
	t.Fprint(&b)
	return b.String()
}
