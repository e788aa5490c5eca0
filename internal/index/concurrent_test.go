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
	ix, err := Build(sums, Options{Epsilon: testEps, RefKind: refpoint.Optimal})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesFor(r, videos, 6)
	batch := func(qs []core.Summary) []BatchItem {
		return SearchBatch(len(qs), func(i int) BatchItem {
			res, stats, err := ix.Search(&qs[i], 10, Composed)
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
		res, stats, err := ix.Search(&queries[qi], 10, Composed)
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
