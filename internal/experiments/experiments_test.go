package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vitri/internal/metrics"
)

// tinyConfig keeps experiment tests fast while exercising every stage.
func tinyConfig() Config {
	return Config{
		Scale:         0.002,
		Queries:       3,
		K:             10,
		Epsilon:       0.3,
		Seed:          1,
		ViTriCounts:   []int{800, 1600},
		Dims:          []int{8, 16},
		FixedViTris:   1500,
		InsertBatches: []int{800, 800},
		IndexQueries:  3,
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, tb *metrics.Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestTable2Shape(t *testing.T) {
	tabs, err := Table2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("expected 3 duration classes, got %d", len(tb.Rows))
	}
	for r := range tb.Rows {
		if cell(t, tb, r, 1) < 1 || cell(t, tb, r, 2) < 1 {
			t.Fatalf("row %d has empty class: %v", r, tb.Rows[r])
		}
	}
}

func TestTable3Trend(t *testing.T) {
	tabs, err := Table3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != len(epsilonSweep) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Cluster count must not increase with ε; average size must not
	// decrease.
	for r := 1; r < len(tb.Rows); r++ {
		if cell(t, tb, r, 1) > cell(t, tb, r-1, 1) {
			t.Fatalf("cluster count increased at row %d:\n%s", r, tb)
		}
		if cell(t, tb, r, 2) < cell(t, tb, r-1, 2) {
			t.Fatalf("avg cluster size decreased at row %d:\n%s", r, tb)
		}
	}
}

func TestFigure14Runs(t *testing.T) {
	tabs, err := Figure14(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != len(epsilonSweep) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for r := range tb.Rows {
		for c := 1; c <= 2; c++ {
			if v := cell(t, tb, r, c); v < 0 || v > 1 {
				t.Fatalf("precision out of range at (%d,%d): %v", r, c, v)
			}
		}
	}
}

func TestFigure15Runs(t *testing.T) {
	tabs, err := Figure15(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFigure16CompositionWins(t *testing.T) {
	tabs, err := Figure16(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	for r := range tb.Rows {
		naive, composed := cell(t, tb, r, 1), cell(t, tb, r, 2)
		if composed > naive {
			t.Fatalf("composed I/O %v above naive %v:\n%s", composed, naive, tb)
		}
	}
	// The I/O gap grows with database size.
	if len(tb.Rows) >= 2 {
		gap0 := cell(t, tb, 0, 1) - cell(t, tb, 0, 2)
		gapN := cell(t, tb, len(tb.Rows)-1, 1) - cell(t, tb, len(tb.Rows)-1, 2)
		if gapN < gap0 {
			t.Fatalf("composition gap shrank with database size:\n%s", tb)
		}
	}
}

func TestFigure17MethodOrdering(t *testing.T) {
	tabs, err := Figure17(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	io, cpu := tabs[0], tabs[1]
	// Columns: label, seqscan, space, data, optimal.
	for r := range io.Rows {
		if opt, seq := cell(t, io, r, 4), cell(t, io, r, 1); opt >= seq {
			t.Fatalf("optimal I/O %v not below seqscan %v:\n%s", opt, seq, io)
		}
		if opt, space := cell(t, cpu, r, 4), cell(t, cpu, r, 2); opt >= space {
			t.Fatalf("optimal CPU %v not below space-center %v:\n%s", opt, space, cpu)
		}
	}
	// Costs grow with database size.
	last := len(io.Rows) - 1
	if cell(t, io, last, 1) <= cell(t, io, 0, 1) {
		t.Fatalf("seqscan I/O did not grow with size:\n%s", io)
	}
}

func TestFigure18DimTrend(t *testing.T) {
	tabs, err := Figure18(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	io := tabs[0]
	last := len(io.Rows) - 1
	// I/O grows with dimensionality for every method (records get bigger).
	for c := 1; c <= 4; c++ {
		if cell(t, io, last, c) <= cell(t, io, 0, c) {
			t.Fatalf("column %d did not grow with dimensionality:\n%s", c, io)
		}
	}
}

func TestFigure19DynamicInsertion(t *testing.T) {
	tabs, err := Figure19(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	io := tabs[0]
	if len(io.Rows) != 2 {
		t.Fatalf("rows = %d", len(io.Rows))
	}
	for r := range io.Rows {
		dyn, oneOff := cell(t, io, r, 2), cell(t, io, r, 3)
		// Dynamic insertion may only degrade relative to a one-off
		// rebuild (within a small tolerance for page-boundary noise).
		if dyn < oneOff*0.8 {
			t.Fatalf("dynamic (%v) implausibly below one-off (%v):\n%s", dyn, oneOff, io)
		}
	}
	// Drift angle is reported and non-negative.
	if cell(t, io, 1, 4) < 0 {
		t.Fatalf("negative drift angle:\n%s", io)
	}
}

func TestRunAllProducesAllTables(t *testing.T) {
	var sb strings.Builder
	if err := RunAll(tinyConfig(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 2", "Table 3", "Figure 14", "Figure 15",
		"Figure 16", "Figure 17", "Figure 18", "Figure 19",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

// -update rewrites testdata/fig16-17-counts.golden from the current tree.
var update = flag.Bool("update", false, "rewrite the Figure 16-17 count golden")

// TestFigure16And17CountsGolden pins every page-access and
// similarity-count column of Figures 16 and 17 at tinyConfig: the whole
// Figure 16 table and Figure 17's I/O and CPU tables (the wall-time table
// is left out). Per-query PageReads counts one read per B+-tree node
// visited and SeqStore's one per data page, so any change to page layout
// or accounting beneath the index shows up here as a diff.
func TestFigure16And17CountsGolden(t *testing.T) {
	cfg := tinyConfig()
	fig16, err := Figure16(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig17, err := Figure17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, tb := range []*metrics.Table{fig16[0], fig17[0], fig17[1]} {
		if err := tb.Fprint(&got); err != nil {
			t.Fatal(err)
		}
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "fig16-17-counts.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Figure 16-17 counts differ from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
