package btree

import (
	"path/filepath"
	"sync"
	"testing"

	"vitri/internal/pager"
)

// buildTrackedTree inserts n sequential entries over the given pager.
func buildTrackedTree(t *testing.T, pg pager.Pager, n int) *Tree {
	t.Helper()
	tr, err := Create(pg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(float64(i), val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestRangeScanStatsMatchesPagerDiff: when a scan runs alone, the
// per-scan counter must equal the pager's own read delta — the
// attribution changes ownership of the count, not its meaning — over
// every page store the tree runs on.
func TestRangeScanStatsMatchesPagerDiff(t *testing.T) {
	pagers := map[string]func(t *testing.T) pager.Pager{
		"mem": func(t *testing.T) pager.Pager { return pager.NewMem() },
		"file": func(t *testing.T) pager.Pager {
			fp, err := pager.OpenFile(filepath.Join(t.TempDir(), "pages.db"))
			if err != nil {
				t.Fatal(err)
			}
			return fp
		},
		"faulty": func(t *testing.T) pager.Pager { return pager.NewFaulty(pager.NewMem(), 1) },
	}
	for name, mk := range pagers {
		t.Run(name, func(t *testing.T) {
			pg := mk(t)
			defer pg.Close()
			tr := buildTrackedTree(t, pg, 5000)
			for _, rng := range [][2]float64{{0, 4999}, {100, 250}, {4000, 4000}, {6000, 7000}} {
				before := pg.Stats().Reads
				var st pager.ScanStats
				visited := 0
				if err := tr.RangeScanStats(rng[0], rng[1], &st, func(float64, []byte) bool {
					visited++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				diff := pg.Stats().Reads - before
				if st.Reads != diff {
					t.Fatalf("range [%v,%v]: tracked %d reads, pager diff %d", rng[0], rng[1], st.Reads, diff)
				}
				if visited > 0 && st.Reads == 0 {
					t.Fatalf("range [%v,%v]: visited %d entries with zero tracked reads", rng[0], rng[1], visited)
				}
			}
			// Full scan attribution, same contract; it reads the leftmost
			// descent and every leaf exactly once.
			shape, err := tr.Stats()
			if err != nil {
				t.Fatal(err)
			}
			before := pg.Stats().Reads
			var st pager.ScanStats
			entries := 0
			if err := tr.ScanStats(&st, func(k float64, v []byte) bool {
				if decodeVal8(v) != uint64(k) {
					t.Fatalf("entry %v holds %d", k, decodeVal8(v))
				}
				entries++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if diff := pg.Stats().Reads - before; st.Reads != diff {
				t.Fatalf("scan: tracked %d reads, pager diff %d", st.Reads, diff)
			}
			if want := uint64(shape.Height - 1 + shape.LeafNodes); st.Reads != want {
				t.Fatalf("scan: tracked %d reads, want %d (height %d, %d leaves)", st.Reads, want, shape.Height, shape.LeafNodes)
			}
			if entries != 5000 {
				t.Fatalf("scan visited %d entries, want 5000", entries)
			}
		})
	}
}

// TestRangeScanStatsExactUnderConcurrency: overlapping scans on one tree
// must each report exactly the reads they would perform alone — the bug
// this API exists to fix is counter theft via shared-counter diffing.
func TestRangeScanStatsExactUnderConcurrency(t *testing.T) {
	tr := buildTrackedTree(t, pager.NewMem(), 5000)
	ranges := [][2]float64{{0, 1500}, {1000, 3000}, {2500, 4999}, {0, 4999}}
	solo := make([]uint64, len(ranges))
	for i, rng := range ranges {
		var st pager.ScanStats
		if err := tr.RangeScanStats(rng[0], rng[1], &st, func(float64, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		solo[i] = st.Reads
	}
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan string, len(ranges)*rounds)
	for i, rng := range ranges {
		wg.Add(1)
		go func(i int, lo, hi float64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var st pager.ScanStats
				if err := tr.RangeScanStats(lo, hi, &st, func(float64, []byte) bool { return true }); err != nil {
					errs <- err.Error()
					return
				}
				if st.Reads != solo[i] {
					errs <- "concurrent scan read count diverged from solo run"
					return
				}
			}
		}(i, rng[0], rng[1])
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
