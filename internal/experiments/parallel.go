package experiments

import (
	"fmt"
	"runtime"

	"vitri/internal/core"
	"vitri/internal/index"
	"vitri/internal/metrics"
	"vitri/internal/refpoint"
)

// ParallelSearch benchmarks the concurrent query engine against the
// strictly sequential §5.2 baseline on one database: per-query latency
// with the disjoint range scans fanned across a worker pool
// (SearchParallelism), and whole-batch throughput with SearchBatch
// pipelining the query set through the same pool. Results are verified
// identical between the sequential and parallel runs before any number
// is reported — parallelism is a pure execution-strategy change.
func ParallelSearch(cfg Config) ([]*metrics.Table, error) {
	par := cfg.SearchParallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	env, err := cfg.newIndexEnv(cfg.FixedViTris, 64, cfg.Seed+404)
	if err != nil {
		return nil, err
	}
	ix, err := index.Build(env.sums, index.Options{
		Epsilon:           cfg.Epsilon,
		RefKind:           refpoint.Optimal,
		SearchParallelism: par,
	})
	if err != nil {
		return nil, err
	}

	lat := &metrics.Table{
		Title: fmt.Sprintf("Parallel KNN: per-query latency, sequential vs %d workers (%d ViTris)",
			par, cfg.FixedViTris),
		Columns: []string{"Mode", "Seq µs/query", "Par µs/query", "Speedup", "Pages/query", "Ranges/query"},
	}
	for _, mode := range []index.Mode{index.Naive, index.Composed} {
		cfg.logf("  parallel: %s latency", mode)
		seq, err := measureLatency(ix, env.queries, cfg.K, mode, 1)
		if err != nil {
			return nil, err
		}
		pp, err := measureLatency(ix, env.queries, cfg.K, mode, par)
		if err != nil {
			return nil, err
		}
		if err := resultsEqual(ix, env.queries, cfg.K, mode, par); err != nil {
			return nil, err
		}
		lat.AddRowf(mode.String(), fmt.Sprintf("%.0f", seq.us), fmt.Sprintf("%.0f", pp.us),
			fmt.Sprintf("%.2fx", seq.us/pp.us), fmt.Sprintf("%.1f", pp.pages), fmt.Sprintf("%.1f", pp.ranges))
	}

	thr := &metrics.Table{
		Title:   fmt.Sprintf("Parallel KNN: batch throughput over %d queries (composed mode)", len(env.queries)),
		Columns: []string{"Execution", "Total µs", "Queries/s"},
	}
	seqTotal, err := timeIt(func() error {
		for qi := range env.queries {
			if _, _, err := ix.SearchParallel(&env.queries[qi], cfg.K, index.Composed, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	batchTotal, err := timeIt(func() error {
		items := index.SearchBatch(len(env.queries), par, func(i int) index.BatchItem {
			res, stats, err := ix.SearchParallel(&env.queries[i], cfg.K, index.Composed, 1)
			return index.BatchItem{Results: res, Stats: stats, Err: err}
		})
		for _, item := range items {
			if item.Err != nil {
				return item.Err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	thr.AddRowf("sequential loop", fmt.Sprintf("%.0f", seqTotal), fmt.Sprintf("%.0f", qps(len(env.queries), seqTotal)))
	thr.AddRowf(fmt.Sprintf("SearchBatch ×%d", par), fmt.Sprintf("%.0f", batchTotal), fmt.Sprintf("%.0f", qps(len(env.queries), batchTotal)))
	return []*metrics.Table{lat, thr}, nil
}

// latRow aggregates one latency measurement.
type latRow struct {
	us     float64
	pages  float64
	ranges float64
}

// measureLatency averages per-query wall time at the given intra-query
// parallelism.
func measureLatency(ix *index.Index, queries []core.Summary, k int, mode index.Mode, par int) (latRow, error) {
	var row latRow
	for qi := range queries {
		var stats index.SearchStats
		us, err := timeIt(func() error {
			var e error
			_, stats, e = ix.SearchParallel(&queries[qi], k, mode, par)
			return e
		})
		if err != nil {
			return row, err
		}
		row.us += us
		row.pages += float64(stats.PageReads)
		row.ranges += float64(stats.Ranges)
	}
	n := float64(len(queries))
	row.us /= n
	row.pages /= n
	row.ranges /= n
	return row, nil
}

// resultsEqual asserts the parallel engine returns exactly the sequential
// results (same ranking, same floats, same deterministic stats).
func resultsEqual(ix *index.Index, queries []core.Summary, k int, mode index.Mode, par int) error {
	for qi := range queries {
		seqRes, seqStats, err := ix.SearchParallel(&queries[qi], k, mode, 1)
		if err != nil {
			return err
		}
		parRes, parStats, err := ix.SearchParallel(&queries[qi], k, mode, par)
		if err != nil {
			return err
		}
		if len(seqRes) != len(parRes) {
			return fmt.Errorf("parallel: query %d: %d results sequential, %d parallel", qi, len(seqRes), len(parRes))
		}
		for i := range seqRes {
			if seqRes[i] != parRes[i] {
				return fmt.Errorf("parallel: query %d result %d diverged: %+v vs %+v", qi, i, seqRes[i], parRes[i])
			}
		}
		if seqStats != parStats {
			return fmt.Errorf("parallel: query %d stats diverged: %+v vs %+v", qi, seqStats, parStats)
		}
	}
	return nil
}

// qps converts a query count and total microseconds to queries/second.
func qps(n int, totalUS float64) float64 {
	if totalUS <= 0 {
		return 0
	}
	return float64(n) / (totalUS / 1e6)
}
