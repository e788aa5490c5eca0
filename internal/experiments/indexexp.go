package experiments

import (
	"fmt"
	"math/rand"

	"vitri/internal/baseline"
	"vitri/internal/core"
	"vitri/internal/dataset"
	"vitri/internal/index"
	"vitri/internal/metrics"
	"vitri/internal/refpoint"
)

// indexEnv is one database instance for the index experiments.
type indexEnv struct {
	sums    []core.Summary
	queries []core.Summary
}

// newIndexEnv generates n ViTris (dim-dimensional) plus near-duplicate
// query summaries derived from random database videos.
func (cfg *Config) newIndexEnv(n, dim int, seed int64) (*indexEnv, error) {
	sc := dataset.DefaultSummaryConfig(n, seed)
	sc.Dim = dim
	sc.Epsilon = cfg.Epsilon
	if sc.ActiveBins > dim {
		sc.ActiveBins = dim / 2
	}
	sums, err := dataset.GenerateSummaries(sc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 5))
	queries := make([]core.Summary, cfg.IndexQueries)
	for i := range queries {
		src := &sums[rng.Intn(len(sums))]
		queries[i] = dataset.QuerySummary(src, 2_000_000+i, 0.01, rng)
	}
	return &indexEnv{sums: sums, queries: queries}, nil
}

// costRow aggregates per-query costs for one method at one configuration.
type costRow struct {
	pages float64 // avg physical page reads per query
	sims  float64 // avg ViTri similarity computations per query
	us    float64 // avg wall microseconds per query
}

// measureIndex runs all queries through an index in the given mode.
func (cfg *Config) measureIndex(ix *index.Index, queries []core.Summary, mode index.Mode) (costRow, error) {
	var row costRow
	for qi := range queries {
		var stats index.SearchStats
		us, err := timeIt(func() error {
			var e error
			_, stats, e = ix.Search(&queries[qi], cfg.K, mode)
			return e
		})
		if err != nil {
			return row, err
		}
		row.pages += float64(stats.PageReads)
		row.sims += float64(stats.SimilarityOps)
		row.us += us
	}
	n := float64(len(queries))
	row.pages /= n
	row.sims /= n
	row.us /= n
	return row, nil
}

// measureSeq runs all queries through a sequential-scan store.
func (cfg *Config) measureSeq(store *baseline.SeqStore, queries []core.Summary) (costRow, error) {
	var row costRow
	for qi := range queries {
		var stats index.SearchStats
		us, err := timeIt(func() error {
			var e error
			_, stats, e = store.Search(&queries[qi], cfg.K)
			return e
		})
		if err != nil {
			return row, err
		}
		row.pages += float64(stats.PageReads)
		row.sims += float64(stats.SimilarityOps)
		row.us += us
	}
	n := float64(len(queries))
	row.pages /= n
	row.sims /= n
	row.us /= n
	return row, nil
}

// buildIndex constructs an index over the summaries with the given
// reference-point strategy.
func (cfg *Config) buildIndex(sums []core.Summary, kind refpoint.Kind) (*index.Index, error) {
	return index.Build(sums, index.Options{
		Epsilon: cfg.Epsilon,
		RefKind: kind,
		SpaceLo: 0,
		SpaceHi: 1,
	})
}

// Figure16 reproduces the query-composition comparison: page accesses of
// naive vs composed KNN processing as the database grows.
func Figure16(cfg Config) ([]*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Figure 16: KNN processing methods (page accesses per query)",
		Columns: []string{"ViTris", "Naive I/O", "Composed I/O", "Naive ranges", "Composed ranges"},
	}
	for _, n := range cfg.ViTriCounts {
		cfg.logf("  figure 16: %d ViTris", n)
		env, err := cfg.newIndexEnv(n, 64, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		ix, err := cfg.buildIndex(env.sums, refpoint.Optimal)
		if err != nil {
			return nil, err
		}
		naive, err := cfg.measureIndex(ix, env.queries, index.Naive)
		if err != nil {
			return nil, err
		}
		composed, err := cfg.measureIndex(ix, env.queries, index.Composed)
		if err != nil {
			return nil, err
		}
		// Ranges per query for context: count once on the first query.
		var sn, sc index.SearchStats
		if len(env.queries) > 0 {
			if _, sn, err = ix.Search(&env.queries[0], cfg.K, index.Naive); err != nil {
				return nil, err
			}
			if _, sc, err = ix.Search(&env.queries[0], cfg.K, index.Composed); err != nil {
				return nil, err
			}
		}
		t.AddRowf(n, naive.pages, composed.pages, sn.Ranges, sc.Ranges)
	}
	return []*metrics.Table{t}, nil
}

// methodSweep runs seqscan plus the three reference-point indexes over a
// summary population and returns one row per method.
func (cfg *Config) methodSweep(sums []core.Summary, queries []core.Summary) (map[string]costRow, error) {
	out := make(map[string]costRow)
	store, err := baseline.NewSeqStore(sums, cfg.Epsilon, nil)
	if err != nil {
		return nil, err
	}
	if out["seqscan"], err = cfg.measureSeq(store, queries); err != nil {
		return nil, err
	}
	for _, kind := range []refpoint.Kind{refpoint.SpaceCenter, refpoint.DataCenter, refpoint.Optimal, refpoint.MultiRef} {
		ix, err := cfg.buildIndex(sums, kind)
		if err != nil {
			return nil, err
		}
		row, err := cfg.measureIndex(ix, queries, index.Composed)
		if err != nil {
			return nil, err
		}
		out[kind.String()] = row
	}
	return out, nil
}

// methodOrder lists the paper's four methods plus the full multi-partition
// iDistance scheme (an extension column: the paper's [15] comparator used
// single reference points).
var methodOrder = []string{"seqscan", "space-center", "data-center", "optimal", "idistance-multi"}

// Figure17 reproduces the effect of database size: I/O and CPU cost for
// sequential scan and the three reference-point transformations.
func Figure17(cfg Config) ([]*metrics.Table, error) {
	io := &metrics.Table{
		Title:   "Figure 17 (I/O): page accesses per query vs number of ViTris",
		Columns: append([]string{"ViTris"}, methodOrder...),
	}
	cpu := &metrics.Table{
		Title:   "Figure 17 (CPU): similarity computations per query vs number of ViTris",
		Columns: append([]string{"ViTris"}, methodOrder...),
	}
	wall := &metrics.Table{
		Title:   "Figure 17 (CPU time): microseconds per query vs number of ViTris",
		Columns: append([]string{"ViTris"}, methodOrder...),
	}
	for _, n := range cfg.ViTriCounts {
		cfg.logf("  figure 17: %d ViTris", n)
		env, err := cfg.newIndexEnv(n, 64, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		rows, err := cfg.methodSweep(env.sums, env.queries)
		if err != nil {
			return nil, err
		}
		addSweepRows(io, cpu, wall, fmt.Sprintf("%d", n), rows)
	}
	return []*metrics.Table{io, cpu, wall}, nil
}

// Figure18 reproduces the effect of dimensionality at a fixed database
// size.
func Figure18(cfg Config) ([]*metrics.Table, error) {
	io := &metrics.Table{
		Title:   fmt.Sprintf("Figure 18 (I/O): page accesses per query vs dimensionality (%d ViTris)", cfg.FixedViTris),
		Columns: append([]string{"dim"}, methodOrder...),
	}
	cpu := &metrics.Table{
		Title:   "Figure 18 (CPU): similarity computations per query vs dimensionality",
		Columns: append([]string{"dim"}, methodOrder...),
	}
	wall := &metrics.Table{
		Title:   "Figure 18 (CPU time): microseconds per query vs dimensionality",
		Columns: append([]string{"dim"}, methodOrder...),
	}
	for _, dim := range cfg.Dims {
		cfg.logf("  figure 18: dim=%d", dim)
		env, err := cfg.newIndexEnv(cfg.FixedViTris, dim, cfg.Seed+int64(dim)*31)
		if err != nil {
			return nil, err
		}
		rows, err := cfg.methodSweep(env.sums, env.queries)
		if err != nil {
			return nil, err
		}
		addSweepRows(io, cpu, wall, fmt.Sprintf("%d", dim), rows)
	}
	return []*metrics.Table{io, cpu, wall}, nil
}

func addSweepRows(io, cpu, wall *metrics.Table, label string, rows map[string]costRow) {
	ioRow := []interface{}{label}
	cpuRow := []interface{}{label}
	wallRow := []interface{}{label}
	for _, m := range methodOrder {
		ioRow = append(ioRow, rows[m].pages)
		cpuRow = append(cpuRow, rows[m].sims)
		wallRow = append(wallRow, rows[m].us)
	}
	io.AddRowf(ioRow...)
	cpu.AddRowf(cpuRow...)
	wall.AddRowf(wallRow...)
}

// Figure19 reproduces the dynamic-insertion experiment: the index is
// built on the first batch; further batches (with mildly drifting
// correlation) are inserted dynamically, measuring KNN cost after each,
// against sequential scan and a one-off rebuilt index.
func Figure19(cfg Config) ([]*metrics.Table, error) {
	io := &metrics.Table{
		Title:   "Figure 19 (I/O): page accesses per query after each insertion batch",
		Columns: []string{"ViTris", "seqscan", "dynamic", "one-off rebuild", "drift (rad)"},
	}
	cpu := &metrics.Table{
		Title:   "Figure 19 (CPU): similarity computations per query after each insertion batch",
		Columns: []string{"ViTris", "seqscan", "dynamic", "one-off rebuild"},
	}
	if len(cfg.InsertBatches) == 0 {
		return nil, fmt.Errorf("no insertion batches configured")
	}

	// Generate each batch with a growing gradient tilt so the dataset's
	// principal direction drifts as the paper describes.
	var batches [][]core.Summary
	firstID := 0
	total := 0
	for bi, n := range cfg.InsertBatches {
		sc := dataset.DefaultSummaryConfig(n, cfg.Seed+int64(bi)*917)
		sc.Epsilon = cfg.Epsilon
		sc.FirstVideoID = firstID
		sc.GradientTilt = 0.25 * float64(bi)
		if sc.GradientTilt > 0.9 {
			sc.GradientTilt = 0.9
		}
		sums, err := dataset.GenerateSummaries(sc)
		if err != nil {
			return nil, err
		}
		batches = append(batches, sums)
		firstID += len(sums) + 1000
		total += n
	}

	// Queries drawn from the first batch (stable targets across steps).
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	queries := make([]core.Summary, cfg.IndexQueries)
	for i := range queries {
		src := &batches[0][rng.Intn(len(batches[0]))]
		queries[i] = dataset.QuerySummary(src, 3_000_000+i, 0.01, rng)
	}

	dyn, err := cfg.buildIndex(batches[0], refpoint.Optimal)
	if err != nil {
		return nil, err
	}
	var all []core.Summary
	for bi, batch := range batches {
		cfg.logf("  figure 19: batch %d (%d ViTris)", bi+1, len(batch))
		if bi > 0 {
			for _, s := range batch {
				if err := dyn.Insert(s); err != nil {
					return nil, err
				}
			}
		}
		all = append(all, batch...)

		store, err := baseline.NewSeqStore(all, cfg.Epsilon, nil)
		if err != nil {
			return nil, err
		}
		seqRow, err := cfg.measureSeq(store, queries)
		if err != nil {
			return nil, err
		}
		dynRow, err := cfg.measureIndex(dyn, queries, index.Composed)
		if err != nil {
			return nil, err
		}
		oneOff, err := cfg.buildIndex(all, refpoint.Optimal)
		if err != nil {
			return nil, err
		}
		oneRow, err := cfg.measureIndex(oneOff, queries, index.Composed)
		if err != nil {
			return nil, err
		}
		io.AddRowf(dyn.Len(), seqRow.pages, dynRow.pages, oneRow.pages, dyn.DriftAngle())
		cpu.AddRowf(dyn.Len(), seqRow.sims, dynRow.sims, oneRow.sims)
	}
	return []*metrics.Table{io, cpu}, nil
}
