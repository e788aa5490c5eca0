package vitri

import (
	"math/rand"
	"testing"

	"vitri/internal/btree"
	"vitri/internal/core"
	"vitri/internal/dataset"
	"vitri/internal/experiments"
	"vitri/internal/geometry"
	"vitri/internal/index"
	"vitri/internal/metrics"
	"vitri/internal/pager"
	"vitri/internal/refpoint"
)

// The Benchmark*_{Table,Figure}* benches below regenerate the paper's
// evaluation artifacts (one per table/figure). They run the experiment
// each iteration and report the headline numbers with b.ReportMetric; the
// full text tables print with -v via b.Log. Sizes are scaled down from the
// paper so the whole suite finishes in minutes — cmd/vitribench reaches
// paper scale (-paper).

// benchConfig scales the experiments for benchmarking.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:         0.01,
		Queries:       5,
		K:             50,
		Epsilon:       0.3,
		Seed:          1,
		ViTriCounts:   []int{5000, 10000, 20000},
		Dims:          []int{8, 16, 32, 64},
		FixedViTris:   10000,
		InsertBatches: []int{5000, 5000, 5000, 2500},
		IndexQueries:  5,
	}
}

// logTables prints experiment output when -v is set.
func logTables(b *testing.B, tables []*metrics.Table) {
	b.Helper()
	for _, t := range tables {
		b.Log("\n" + t.String())
	}
}

// cellF parses a numeric cell for metric reporting.
func cellF(b *testing.B, t *metrics.Table, row, col int) float64 {
	b.Helper()
	var v float64
	if _, err := fmtSscan(t.Rows[row][col], &v); err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

func BenchmarkTable2DataStats(b *testing.B) {
	cfg := benchConfig()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTables(b, tables)
	total := 0.0
	for r := range tables[0].Rows {
		total += cellF(b, tables[0], r, 2)
	}
	b.ReportMetric(total, "frames")
}

func BenchmarkTable3SummaryStats(b *testing.B) {
	cfg := benchConfig()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTables(b, tables)
	b.ReportMetric(cellF(b, tables[0], 1, 1), "clusters@eps0.3")
}

func BenchmarkFigure14PrecisionVsEpsilon(b *testing.B) {
	cfg := benchConfig()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Figure14(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTables(b, tables)
	b.ReportMetric(cellF(b, tables[0], 1, 1), "vitri-precision@0.3")
	b.ReportMetric(cellF(b, tables[0], 1, 2), "keyframe-precision@0.3")
}

func BenchmarkFigure15PrecisionVsK(b *testing.B) {
	cfg := benchConfig()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Figure15(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTables(b, tables)
	b.ReportMetric(cellF(b, tables[0], 4, 1), "vitri-precision@K50")
}

func BenchmarkFigure16QueryComposition(b *testing.B) {
	cfg := benchConfig()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Figure16(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTables(b, tables)
	last := len(tables[0].Rows) - 1
	b.ReportMetric(cellF(b, tables[0], last, 1), "naive-pages")
	b.ReportMetric(cellF(b, tables[0], last, 2), "composed-pages")
}

func BenchmarkFigure17NumViTris(b *testing.B) {
	cfg := benchConfig()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Figure17(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTables(b, tables)
	last := len(tables[0].Rows) - 1
	b.ReportMetric(cellF(b, tables[0], last, 1), "seqscan-pages")
	b.ReportMetric(cellF(b, tables[0], last, 4), "optimal-pages")
}

func BenchmarkFigure18Dimensionality(b *testing.B) {
	cfg := benchConfig()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Figure18(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTables(b, tables)
	last := len(tables[0].Rows) - 1
	b.ReportMetric(cellF(b, tables[0], last, 4), "optimal-pages@dim64")
}

func BenchmarkFigure19DynamicInsertion(b *testing.B) {
	cfg := benchConfig()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Figure19(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTables(b, tables)
	last := len(tables[0].Rows) - 1
	b.ReportMetric(cellF(b, tables[0], last, 2), "dynamic-pages")
	b.ReportMetric(cellF(b, tables[0], last, 3), "oneoff-pages")
	b.ReportMetric(cellF(b, tables[0], last, 4), "drift-rad")
}

// --- ablations (design choices called out in DESIGN.md) -----------------

// BenchmarkAblationRefpointOffset measures how far past the variance
// segment the optimal reference point should sit: query I/O as a function
// of the offset fraction.
func BenchmarkAblationRefpointOffset(b *testing.B) {
	sums, err := dataset.GenerateSummaries(dataset.DefaultSummaryConfig(10000, 1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	queries := make([]core.Summary, 5)
	for i := range queries {
		queries[i] = dataset.QuerySummary(&sums[rng.Intn(len(sums))], 10_000_000+i, 0.01, rng)
	}
	for _, off := range []float64{0.05, 0.25, 1.0, 4.0} {
		b.Run(fmtF("offset=%.2f", off), func(b *testing.B) {
			ix, err := index.Build(sums, index.Options{
				Epsilon: 0.3, RefKind: refpoint.Optimal, OffsetFraction: off,
			})
			if err != nil {
				b.Fatal(err)
			}
			var pages uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for qi := range queries {
					_, stats, err := ix.Search(&queries[qi], 50, index.Composed)
					if err != nil {
						b.Fatal(err)
					}
					pages += stats.PageReads
				}
			}
			b.ReportMetric(float64(pages)/float64(b.N*len(queries)), "pages/query")
		})
	}
}

// BenchmarkAblationCapVolume compares the paper's finite-series hypercap
// formula against the incomplete-beta form used in production.
func BenchmarkAblationCapVolume(b *testing.B) {
	b.Run("series", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			geometry.CapVolumeSeries(64, 0.15, 1.1)
		}
	})
	b.Run("beta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			geometry.CapVolume(64, 0.15, 1.1)
		}
	})
}

// --- microbenchmarks on the core paths -----------------------------------

func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	frames := make([]Vector, 750) // a 30s clip at 25fps
	for i := range frames {
		f := make(Vector, 64)
		f[rng.Intn(64)] = 1
		for j := 0; j < 8; j++ {
			f[rng.Intn(64)] += rng.Float64() * 0.2
		}
		frames[i] = f
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(0, frames, 0.3, int64(i))
	}
}

func BenchmarkSharedFrames(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	mk := func() core.ViTri {
		pos := make(Vector, 64)
		for j := 0; j < 8; j++ {
			pos[rng.Intn(64)] += rng.Float64()
		}
		return core.NewViTri(pos, 0.1+0.05*rng.Float64(), 40)
	}
	v1, v2 := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SharedFrames(&v1, &v2)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tr, err := btree.Create(pager.NewMem(), 64)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(rng.Float64(), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeRangeScan(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	entries := make([]btree.Entry, 100000)
	val := make([]byte, 64)
	for i := range entries {
		entries[i] = btree.Entry{Key: rng.Float64(), Val: val}
	}
	sortEntries(entries)
	tr, err := btree.BulkLoad(pager.NewMem(), 64, entries, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := tr.RangeScanStats(0.4, 0.41, nil, func(float64, []byte) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedSearch(b *testing.B) {
	sums, err := dataset.GenerateSummaries(dataset.DefaultSummaryConfig(20000, 10))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.Build(sums, index.Options{Epsilon: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	q := dataset.QuerySummary(&sums[rng.Intn(len(sums))], 30_000_000, 0.01, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(&q, 50, index.Composed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddBatch measures end-to-end batch ingest — parallel
// summarization plus the ordered single-lock merge. The worker pool is
// GOMAXPROCS wide, so compare widths with -cpu 1,2,4,8; the resulting
// database is byte-identical at every width (see TestAddBatchMatches-
// SequentialAdd).
func BenchmarkAddBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	videos := make([]Video, 32)
	for v := range videos {
		frames := make([]Vector, 200)
		for i := range frames {
			f := make(Vector, 64)
			f[rng.Intn(64)] = 1
			for j := 0; j < 8; j++ {
				f[rng.Intn(64)] += rng.Float64() * 0.2
			}
			frames[i] = f
		}
		videos[v] = Video{ID: v, Frames: frames}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := New(Options{Epsilon: 0.3, Seed: 1})
		itemErrs, err := db.AddBatch(videos)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range itemErrs {
			if e != nil {
				b.Fatal(e)
			}
		}
	}
	b.ReportMetric(float64(len(videos))*float64(b.N)/b.Elapsed().Seconds(), "videos/sec")
}

// BenchmarkSearchBatch measures the SearchBatch worker pool (throughput
// workload). The pool is GOMAXPROCS wide: -cpu 1 is the sequential query
// loop, -cpu 1,2,4,8 the comparison across widths.
func BenchmarkSearchBatch(b *testing.B) {
	sums, err := dataset.GenerateSummaries(dataset.DefaultSummaryConfig(20000, 10))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	queries := make([]core.Summary, 16)
	for i := range queries {
		queries[i] = dataset.QuerySummary(&sums[rng.Intn(len(sums))], 30_000_000+i, 0.01, rng)
	}
	db := New(Options{Epsilon: 0.3})
	for i := range sums {
		if err := db.AddSummary(sums[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.forceBuild(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := db.SearchBatch(queries, 50, Composed)
		if err != nil {
			b.Fatal(err)
		}
		for _, item := range items {
			if item.Err != nil {
				b.Fatal(item.Err)
			}
		}
	}
}
