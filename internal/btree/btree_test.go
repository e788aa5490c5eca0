package btree

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"vitri/internal/pager"
)

// val8 packs a uint64 into an 8-byte value.
func val8(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func decodeVal8(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func newMemTree(t *testing.T, valSize int) *Tree {
	t.Helper()
	tr, err := Create(pager.NewMem(), valSize)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCreateRejectsHugeValues(t *testing.T) {
	if _, err := Create(pager.NewMem(), pager.PageSize); err == nil {
		t.Fatal("expected error for value larger than half a page")
	}
	if _, err := Create(pager.NewMem(), 0); err == nil {
		t.Fatal("expected error for zero value size")
	}
}

func TestCreateRequiresEmptyPager(t *testing.T) {
	pg := pager.NewMem()
	if _, err := pg.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(pg, 8); err == nil {
		t.Fatal("expected error on non-empty pager")
	}
}

func TestInsertAndScanSmall(t *testing.T) {
	tr := newMemTree(t, 8)
	keys := []float64{5, 1, 9, 3, 7}
	for i, k := range keys {
		if err := tr.Insert(k, val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []float64
	if err := tr.Scan(func(k float64, v []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order = %v", got)
		}
	}
}

func TestInsertRejectsWrongValueSize(t *testing.T) {
	tr := newMemTree(t, 8)
	if err := tr.Insert(1, []byte{1, 2}); err == nil {
		t.Fatal("expected size error")
	}
}

// buildRandom inserts n random keys (with duplicates) and returns the
// mirror model: a sorted multiset of (key, payload).
func buildRandom(t *testing.T, tr *Tree, n int, seed int64) []Entry {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	model := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		k := float64(r.Intn(n / 4)) // force duplicate keys
		v := val8(uint64(i))
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		model = append(model, Entry{Key: k, Val: v})
	}
	sort.SliceStable(model, func(i, j int) bool { return model[i].Key < model[j].Key })
	return model
}

func TestRandomInsertMatchesModel(t *testing.T) {
	tr := newMemTree(t, 8)
	model := buildRandom(t, tr, 5000, 1)
	if tr.Len() != int64(len(model)) {
		t.Fatalf("Len = %d want %d", tr.Len(), len(model))
	}
	if tr.height < 2 {
		t.Fatalf("tree did not grow: height %d", tr.height)
	}
	i := 0
	if err := tr.Scan(func(k float64, v []byte) bool {
		if k != model[i].Key {
			t.Fatalf("entry %d: key %v want %v", i, k, model[i].Key)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(model) {
		t.Fatalf("scan visited %d of %d", i, len(model))
	}
}

func TestRangeScanMatchesModel(t *testing.T) {
	tr := newMemTree(t, 8)
	model := buildRandom(t, tr, 3000, 2)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		lo := float64(r.Intn(800)) - 10
		hi := lo + float64(r.Intn(200))
		var want []float64
		for _, e := range model {
			if e.Key >= lo && e.Key <= hi {
				want = append(want, e.Key)
			}
		}
		var got []float64
		if err := tr.RangeScanStats(lo, hi, nil, func(k float64, v []byte) bool {
			got = append(got, k)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("[%v,%v]: got %d entries want %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%v,%v] entry %d: %v want %v", lo, hi, i, got[i], want[i])
			}
		}
	}
}

func TestRangeScanEmptyAndInverted(t *testing.T) {
	tr := newMemTree(t, 8)
	buildRandom(t, tr, 100, 4)
	calls := 0
	if err := tr.RangeScanStats(5, 1, nil, func(float64, []byte) bool { calls++; return true }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("inverted range visited entries")
	}
	if err := tr.RangeScanStats(1e9, 2e9, nil, func(float64, []byte) bool { calls++; return true }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("out-of-domain range visited entries")
	}
}

func TestRangeScanEarlyStop(t *testing.T) {
	tr := newMemTree(t, 8)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(float64(i), val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	visits := 0
	if err := tr.RangeScanStats(0, 99, nil, func(float64, []byte) bool {
		visits++
		return visits < 5
	}); err != nil {
		t.Fatal(err)
	}
	if visits != 5 {
		t.Fatalf("early stop visited %d", visits)
	}
}

func TestDuplicateKeysAllPreserved(t *testing.T) {
	tr := newMemTree(t, 8)
	const dups = 500 // span multiple leaves
	for i := 0; i < dups; i++ {
		if err := tr.Insert(42, val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Surround with other keys.
	for i := 0; i < 200; i++ {
		if err := tr.Insert(float64(i), val8(0)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	if err := tr.RangeScanStats(42, 42, nil, func(k float64, v []byte) bool {
		if k != 42 {
			t.Fatalf("range [42,42] returned key %v", k)
		}
		seen[decodeVal8(v)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != dups {
		t.Fatalf("found %d of %d duplicates", len(seen), dups)
	}
}

func TestDelete(t *testing.T) {
	tr := newMemTree(t, 8)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(float64(i%10), val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a specific duplicate by payload.
	ok, err := tr.Delete(3, func(v []byte) bool { return decodeVal8(v) == 53 })
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if tr.Len() != 99 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Confirm 53 is gone but other key-3 entries remain.
	count3 := 0
	if err := tr.RangeScanStats(3, 3, nil, func(k float64, v []byte) bool {
		if decodeVal8(v) == 53 {
			t.Fatal("payload 53 still present")
		}
		count3++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count3 != 9 {
		t.Fatalf("key 3 count = %d", count3)
	}
	// Deleting a missing key.
	ok, err = tr.Delete(777, nil)
	if err != nil || ok {
		t.Fatalf("missing delete: ok=%v err=%v", ok, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	mem := pager.NewMem()
	tr, err := Create(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Insert(float64(i), val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt a node page out-of-band (page 0 is the root leaf: 100
	// entries fit in one leaf).
	var p pager.Page
	if err := mem.Read(0, &p); err != nil {
		t.Fatal(err)
	}
	p[headerSize+3] ^= 0xFF
	if err := mem.Write(0, &p); err != nil {
		t.Fatal(err)
	}
	err = tr.Scan(func(float64, []byte) bool { return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	entries := make([]Entry, 10000)
	for i := range entries {
		entries[i] = Entry{Key: r.Float64() * 100, Val: val8(uint64(i))}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })

	bulk, err := BulkLoad(pager.NewMem(), 8, entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != int64(len(entries)) {
		t.Fatalf("bulk Len = %d", bulk.Len())
	}
	i := 0
	if err := bulk.Scan(func(k float64, v []byte) bool {
		if k != entries[i].Key {
			t.Fatalf("entry %d: %v want %v", i, k, entries[i].Key)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(entries) {
		t.Fatalf("visited %d", i)
	}
	// Bulk-loaded trees accept further inserts.
	if err := bulk.Insert(50, val8(999999)); err != nil {
		t.Fatal(err)
	}
	found := false
	if err := bulk.RangeScanStats(50, 50, nil, func(k float64, v []byte) bool {
		if decodeVal8(v) == 999999 {
			found = true
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("post-bulk insert not found")
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	entries := []Entry{{Key: 2, Val: val8(0)}, {Key: 1, Val: val8(1)}}
	if _, err := BulkLoad(pager.NewMem(), 8, entries, 0); err == nil {
		t.Fatal("expected error for unsorted entries")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(pager.NewMem(), 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Insert(1, val8(1)); err != nil {
		t.Fatal(err)
	}
}

func TestLargeValuesLowFanout(t *testing.T) {
	// ViTri-sized values: 64-dim position -> ~540-byte records, 7/leaf.
	const valSize = 540
	tr := newMemTree(t, valSize)
	val := make([]byte, valSize)
	r := rand.New(rand.NewSource(10))
	keys := make([]float64, 3000)
	for i := range keys {
		keys[i] = r.Float64()
		binary.LittleEndian.PutUint64(val, uint64(i))
		if err := tr.Insert(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(keys)
	i := 0
	if err := tr.Scan(func(k float64, v []byte) bool {
		if k != keys[i] {
			t.Fatalf("entry %d: %v want %v", i, k, keys[i])
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if tr.height < 3 {
		t.Fatalf("expected height >= 3 with low fanout, got %d", tr.height)
	}
}

func TestIOCountsReasonable(t *testing.T) {
	mem := pager.NewMem()
	tr, err := Create(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := tr.Insert(float64(i), val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A narrow range scan should touch O(height + pages-in-range) pages,
	// far fewer than the whole tree.
	before := mem.Stats().Reads
	if err := tr.RangeScanStats(100, 120, nil, func(float64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	reads := mem.Stats().Reads - before
	if reads == 0 || reads > 10 {
		t.Fatalf("narrow range scan cost %d page reads", reads)
	}
}
