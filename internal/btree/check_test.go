package btree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vitri/internal/pager"
)

func TestStats(t *testing.T) {
	tr := newMemTree(t, 8)
	buildRandom(t, tr, 5000, 42)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 5000 {
		t.Fatalf("Entries = %d", st.Entries)
	}
	if st.Height != tr.height {
		t.Fatalf("Height = %d vs %d", st.Height, tr.height)
	}
	if st.LeafNodes == 0 || st.InternalNodes == 0 {
		t.Fatalf("node counts: %+v", st)
	}
	if st.LeafFill <= 0 || st.LeafFill > 1 {
		t.Fatalf("LeafFill = %v", st.LeafFill)
	}
}

func TestCheckPassesOnHealthyTrees(t *testing.T) {
	// Random inserts.
	tr := newMemTree(t, 8)
	buildRandom(t, tr, 4000, 43)
	if err := tr.Check(); err != nil {
		t.Fatalf("random-insert tree: %v", err)
	}
	// Bulk loaded.
	r := rand.New(rand.NewSource(44))
	entries := make([]Entry, 3000)
	for i := range entries {
		entries[i] = Entry{Key: r.Float64(), Val: val8(uint64(i))}
	}
	sortEntriesByKey(entries)
	bulk, err := BulkLoad(pager.NewMem(), 8, entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.Check(); err != nil {
		t.Fatalf("bulk tree: %v", err)
	}
	// After deletions.
	for i := 0; i < 500; i++ {
		if _, err := tr.Delete(float64(r.Intn(1000)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("post-delete tree: %v", err)
	}
}

func TestCheckDetectsMetadataDrift(t *testing.T) {
	tr := newMemTree(t, 8)
	buildRandom(t, tr, 100, 45)
	tr.count += 7 // corrupt the in-memory count
	if err := tr.Check(); err == nil {
		t.Fatal("expected count mismatch")
	}
	tr.count -= 7
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// Property: any random interleaving of inserts and deletes leaves a tree
// that passes Check and agrees with a map-based model on total count.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, err := Create(pager.NewMem(), 8)
		if err != nil {
			return false
		}
		counts := map[float64]int{}
		total := 0
		for op := 0; op < 400; op++ {
			k := float64(r.Intn(40))
			if r.Float64() < 0.7 {
				if err := tr.Insert(k, val8(uint64(op))); err != nil {
					return false
				}
				counts[k]++
				total++
			} else {
				ok, err := tr.Delete(k, nil)
				if err != nil {
					return false
				}
				if ok != (counts[k] > 0) {
					return false
				}
				if ok {
					counts[k]--
					total--
				}
			}
		}
		if int64(total) != tr.Len() {
			return false
		}
		if err := tr.Check(); err != nil {
			return false
		}
		// Per-key counts agree.
		for k, want := range counts {
			got := 0
			if err := tr.RangeScanStats(k, k, nil, func(float64, []byte) bool { got++; return true }); err != nil {
				return false
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func sortEntriesByKey(entries []Entry) {
	for i := 1; i < len(entries); i++ {
		v := entries[i]
		j := i - 1
		for j >= 0 && entries[j].Key > v.Key {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = v
	}
}
