package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"vitri/internal/core"
	"vitri/internal/pager"
	"vitri/internal/refpoint"
	"vitri/internal/vec"
)

// queriesFor derives near-duplicate queries from corpus videos.
func queriesFor(r *rand.Rand, videos [][]vec.Vector, n int) []core.Summary {
	out := make([]core.Summary, n)
	for i := range out {
		src := videos[r.Intn(len(videos))]
		out[i] = core.Summarize(-1, perturb(r, src, 0.01), core.Options{Epsilon: testEps, Seed: 7})
	}
	return out
}

// TestSearchParallelMatchesSequential: the parallel engine is an
// execution-strategy change only — results and stats must be
// byte-identical to the sequential path at every pool width, in both
// modes and for both single-reference and iDistance mappers.
func TestSearchParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	videos, sums, ix := buildCorpus(t, r, 40, 8)
	multi, err := Build(sums, Options{Epsilon: testEps, RefKind: refpoint.MultiRef, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesFor(r, videos, 5)
	for name, idx := range map[string]*Index{"optimal": ix, "idistance": multi} {
		for _, mode := range []Mode{Naive, Composed} {
			for _, par := range []int{2, 4, 16} {
				for qi := range queries {
					seqRes, seqStats, err := idx.SearchParallel(&queries[qi], 10, mode, 1)
					if err != nil {
						t.Fatal(err)
					}
					parRes, parStats, err := idx.SearchParallel(&queries[qi], 10, mode, par)
					if err != nil {
						t.Fatal(err)
					}
					if len(seqRes) == 0 {
						t.Fatalf("%s/%v: query %d returned no results", name, mode, qi)
					}
					if len(parRes) != len(seqRes) {
						t.Fatalf("%s/%v par=%d: %d results, sequential %d", name, mode, par, len(parRes), len(seqRes))
					}
					for i := range seqRes {
						if parRes[i] != seqRes[i] {
							t.Fatalf("%s/%v par=%d query %d result %d: %+v != %+v",
								name, mode, par, qi, i, parRes[i], seqRes[i])
						}
					}
					if parStats != seqStats {
						t.Fatalf("%s/%v par=%d query %d stats: %+v != %+v",
							name, mode, par, qi, parStats, seqStats)
					}
				}
			}
		}
	}
}

// TestSearchStatsExactUnderConcurrentSearches is the attribution
// regression test: on a file-backed pager (every read physical), two
// simultaneous searches must each report exactly the PageReads they
// report when run alone. The old implementation diffed the pager's
// shared counter and stole reads from whichever search overlapped.
func TestSearchStatsExactUnderConcurrentSearches(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	videos := make([][]vec.Vector, 40)
	for i := range videos {
		videos[i] = makeVideo(r, 8, 3, 30)
	}
	sums := summarizeAll(videos)
	dir := t.TempDir()
	n := 0
	ix, err := Build(sums, Options{
		Epsilon: testEps,
		RefKind: refpoint.Optimal,
		NewPager: func() pager.Pager {
			n++
			fp, err := pager.OpenFile(filepath.Join(dir, fmt.Sprintf("pages%d.db", n)))
			if err != nil {
				panic(err)
			}
			return fp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesFor(r, videos, 4)
	solo := make([]SearchStats, len(queries))
	for qi := range queries {
		_, stats, err := ix.Search(&queries[qi], 10, Composed)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PageReads == 0 {
			t.Fatalf("query %d performed no page reads; test is vacuous", qi)
		}
		solo[qi] = stats
	}
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*rounds)
	for qi := range queries {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, stats, err := ix.Search(&queries[qi], 10, Composed)
				if err != nil {
					errs <- err
					return
				}
				if stats != solo[qi] {
					errs <- fmt.Errorf("query %d under concurrency: %+v, alone: %+v", qi, stats, solo[qi])
					return
				}
			}
		}(qi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSearchBatchMatchesIndividualSearches: batch execution is a pure
// scheduling layer over Search.
func TestSearchBatchMatchesIndividualSearches(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	videos, sums, _ := buildCorpus(t, r, 30, 8)
	ix, err := Build(sums, Options{Epsilon: testEps, RefKind: refpoint.Optimal, SearchParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesFor(r, videos, 6)
	batch := func(qs []core.Summary) []BatchItem {
		return SearchBatch(len(qs), 4, func(i int) BatchItem {
			res, stats, err := ix.SearchParallel(&qs[i], 10, Composed, 1)
			return BatchItem{Results: res, Stats: stats, Err: err}
		})
	}
	items := batch(queries)
	if len(items) != len(queries) {
		t.Fatalf("%d batch items for %d queries", len(items), len(queries))
	}
	for qi := range queries {
		if items[qi].Err != nil {
			t.Fatal(items[qi].Err)
		}
		res, stats, err := ix.SearchParallel(&queries[qi], 10, Composed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(items[qi].Results) != len(res) {
			t.Fatalf("query %d: batch %d results, direct %d", qi, len(items[qi].Results), len(res))
		}
		for i := range res {
			if items[qi].Results[i] != res[i] {
				t.Fatalf("query %d result %d: batch %+v, direct %+v", qi, i, items[qi].Results[i], res[i])
			}
		}
		if items[qi].Stats != stats {
			t.Fatalf("query %d stats: batch %+v, direct %+v", qi, items[qi].Stats, stats)
		}
	}
	// Per-query validation errors land in their slot, not the whole batch.
	bad := make([]core.Summary, 1)
	bad[0] = queries[0]
	bad[0].Triplets = []core.ViTri{core.NewViTri(vec.Vector{0.1, 0.2}, 0.05, 3)} // wrong dim
	items = batch(bad)
	if items[0].Err == nil {
		t.Fatal("dimensionality mismatch did not surface in the batch item")
	}
	if empty := batch(nil); len(empty) != 0 {
		t.Fatalf("empty batch returned %d items", len(empty))
	}
}

// TestInsertFailureLeavesIndexUnchanged is the partial-insert regression
// test: a summary rejected on its i-th triplet (wrong dimensionality)
// must leave the tree, catalog, and drift accumulators exactly as they
// were — no orphaned records for scans to surface.
func TestInsertFailureLeavesIndexUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	_, _, ix := buildCorpus(t, r, 10, 8)
	lenBefore := ix.Len()
	videosBefore := ix.Videos()
	driftBefore := ix.DriftAngle()

	bad := core.Summary{VideoID: 999, FrameCount: 60}
	good := makeVideo(r, 8, 1, 30)
	gs := core.Summarize(999, good, core.Options{Epsilon: testEps, Seed: 5})
	bad.Triplets = append(bad.Triplets, gs.Triplets...)
	// The poisoned triplet comes *after* valid ones, so a non-atomic
	// insert would orphan the earlier records.
	bad.Triplets = append(bad.Triplets, core.NewViTri(vec.Vector{0.5, 0.5}, 0.05, 3))

	if err := ix.Insert(bad); err == nil {
		t.Fatal("insert of mixed-dimensionality summary succeeded")
	}
	if got := ix.Len(); got != lenBefore {
		t.Fatalf("tree has %d records after failed insert, want %d", got, lenBefore)
	}
	if got := ix.Videos(); got != videosBefore {
		t.Fatalf("catalog has %d videos after failed insert, want %d", got, videosBefore)
	}
	if got := ix.DriftAngle(); got != driftBefore {
		t.Fatalf("drift accumulators moved: %v -> %v", driftBefore, got)
	}
	if ix.Contains(999) {
		t.Fatal("failed insert left video 999 in the catalog")
	}
	if err := ix.CheckTree(); err != nil {
		t.Fatal(err)
	}
	// The same summary without the poisoned triplet inserts cleanly.
	if err := ix.Insert(gs); err != nil {
		t.Fatal(err)
	}
	if got := ix.Len(); got != lenBefore+len(gs.Triplets) {
		t.Fatalf("tree has %d records after clean insert, want %d", got, lenBefore+len(gs.Triplets))
	}
}
