package vitri

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vitri/internal/storefmt"
)

// ingestCorpus builds a deterministic batch of synthetic videos with
// ID-sorted input, so "input order" and "video id order" coincide.
func ingestCorpus(seed int64, n int) []Video {
	r := rand.New(rand.NewSource(seed))
	videos := make([]Video, n)
	for i := range videos {
		videos[i] = Video{ID: i, Frames: synthVideo(r, 8, 2+r.Intn(3), 4+r.Intn(6))}
	}
	return videos
}

// storeBytes serializes the database's summaries through the on-disk
// format, the strictest equality available: every float of every triplet,
// byte for byte.
func storeBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	sums, err := db.summaries()
	if err != nil {
		t.Fatalf("summaries: %v", err)
	}
	return encodeStore(t, db.opts.Epsilon, sums)
}

// encodeStore renders summaries in the on-disk format.
func encodeStore(t *testing.T, epsilon float64, sums []Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := storefmt.EncodeV3(&buf, &storefmt.Snapshot{Epsilon: epsilon, Summaries: sums}); err != nil {
		t.Fatalf("EncodeV3: %v", err)
	}
	return buf.Bytes()
}

// ingestWorkerCounts are the summarization pool widths the equivalence
// tests run at. The pool is sized from GOMAXPROCS, so that is what they
// vary (1 is the sequential loop; 8 oversubscribes any small machine).
var ingestWorkerCounts = []int{1, 2, 8}

// atGOMAXPROCS runs f with GOMAXPROCS set to n and restores it.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// The tentpole contract: AddBatch at any worker count is byte-identical
// to a sequential Add loop — same summaries, same index shape, same
// search results.
func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	videos := ingestCorpus(41, 24)
	query := synthVideo(rand.New(rand.NewSource(99)), 8, 2, 5)

	seq := New(Options{Epsilon: 0.3, Seed: 7})
	for _, v := range videos {
		if err := seq.Add(v.ID, v.Frames); err != nil {
			t.Fatalf("sequential Add(%d): %v", v.ID, err)
		}
	}
	wantMatches, err := seq.Search(query, 5)
	if err != nil {
		t.Fatalf("sequential Search: %v", err)
	}
	wantBytes := storeBytes(t, seq)
	wantStats, err := seq.Stats()
	if err != nil {
		t.Fatalf("sequential Stats: %v", err)
	}

	for _, par := range ingestWorkerCounts {
		db := New(Options{Epsilon: 0.3, Seed: 7})
		var (
			itemErrs []error
			err      error
		)
		atGOMAXPROCS(par, func() { itemErrs, err = db.AddBatch(videos) })
		if err != nil {
			t.Fatalf("parallelism %d: AddBatch: %v", par, err)
		}
		for i, e := range itemErrs {
			if e != nil {
				t.Fatalf("parallelism %d: item %d: %v", par, i, e)
			}
		}
		gotMatches, err := db.Search(query, 5)
		if err != nil {
			t.Fatalf("parallelism %d: Search: %v", par, err)
		}
		if !reflect.DeepEqual(gotMatches, wantMatches) {
			t.Errorf("parallelism %d: search results diverge:\n got %+v\nwant %+v", par, gotMatches, wantMatches)
		}
		if got := storeBytes(t, db); !bytes.Equal(got, wantBytes) {
			t.Errorf("parallelism %d: summaries are not byte-identical to the sequential path", par)
		}
		gotStats, err := db.Stats()
		if err != nil {
			t.Fatalf("parallelism %d: Stats: %v", par, err)
		}
		if gotStats != wantStats {
			t.Errorf("parallelism %d: index shape %+v, want %+v", par, gotStats, wantStats)
		}
	}
}

// AddBatch into a live index (post first search) must equal sequential
// Adds into a live index.
func TestAddBatchIntoLiveIndexMatchesSequential(t *testing.T) {
	first, second := ingestCorpus(43, 20), ingestCorpus(57, 12)
	for i := range second {
		second[i].ID += 1000
	}
	query := synthVideo(rand.New(rand.NewSource(98)), 8, 2, 5)

	build := func(batched bool) *DB {
		db := New(Options{Epsilon: 0.3, Seed: 5})
		for _, v := range first {
			if err := db.Add(v.ID, v.Frames); err != nil {
				t.Fatalf("Add(%d): %v", v.ID, err)
			}
		}
		if _, err := db.Search(query, 3); err != nil { // force index build
			t.Fatalf("warm-up Search: %v", err)
		}
		if batched {
			itemErrs, err := db.AddBatch(second)
			if err != nil {
				t.Fatalf("AddBatch: %v", err)
			}
			for i, e := range itemErrs {
				if e != nil {
					t.Fatalf("item %d: %v", i, e)
				}
			}
		} else {
			for _, v := range second {
				if err := db.Add(v.ID, v.Frames); err != nil {
					t.Fatalf("Add(%d): %v", v.ID, err)
				}
			}
		}
		return db
	}

	seq := build(false)
	wantM, err := seq.Search(query, 5)
	if err != nil {
		t.Fatalf("post-load Search: %v", err)
	}
	for _, workers := range ingestWorkerCounts {
		var par *DB
		atGOMAXPROCS(workers, func() { par = build(true) })
		if !bytes.Equal(storeBytes(t, seq), storeBytes(t, par)) {
			t.Errorf("%d workers: live-index AddBatch diverged from sequential Adds", workers)
		}
		gotM, err := par.Search(query, 5)
		if err != nil {
			t.Fatalf("%d workers: post-load Search: %v", workers, err)
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Errorf("%d workers: post-load search diverged:\n got %+v\nwant %+v", workers, gotM, wantM)
		}
	}
}

func TestAddBatchPerItemErrors(t *testing.T) {
	db := New(Options{Epsilon: 0.3})
	if err := db.Add(5, synthVideo(rand.New(rand.NewSource(1)), 8, 2, 5)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	videos := []Video{
		{ID: 10, Frames: synthVideo(r, 8, 2, 5)},
		{ID: 11, Frames: nil},                    // no frames
		{ID: -3, Frames: synthVideo(r, 8, 1, 4)}, // negative id
		{ID: 5, Frames: synthVideo(r, 8, 1, 4)},  // duplicate of existing
		{ID: 12, Frames: synthVideo(r, 8, 2, 5)}, // fine
		{ID: 10, Frames: synthVideo(r, 8, 1, 4)}, // duplicate within batch
	}
	itemErrs, err := db.AddBatch(videos)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if itemErrs[0] != nil || itemErrs[4] != nil {
		t.Fatalf("valid items failed: %v, %v", itemErrs[0], itemErrs[4])
	}
	if itemErrs[1] == nil || itemErrs[2] == nil {
		t.Fatal("missing per-item errors for no-frames / negative-id items")
	}
	if !errors.Is(itemErrs[3], ErrDuplicateID) {
		t.Fatalf("duplicate of existing: got %v, want ErrDuplicateID", itemErrs[3])
	}
	if !errors.Is(itemErrs[5], ErrDuplicateID) {
		t.Fatalf("duplicate within batch: got %v, want ErrDuplicateID", itemErrs[5])
	}
	if db.Len() != 3 { // videos 5, 10, 12
		t.Fatalf("Len = %d, want 3", db.Len())
	}
}

func TestAddBatchEmpty(t *testing.T) {
	db := New(Options{Epsilon: 0.3})
	itemErrs, err := db.AddBatch(nil)
	if itemErrs != nil || err != nil {
		t.Fatalf("empty batch: %v %v", itemErrs, err)
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	videos := ingestCorpus(61, 16)
	query := synthVideo(rand.New(rand.NewSource(97)), 8, 2, 5)

	seq := New(Options{Epsilon: 0.3, Seed: 3})
	for _, v := range videos {
		if err := seq.Add(v.ID, v.Frames); err != nil {
			t.Fatal(err)
		}
	}
	wantM, err := seq.Search(query, 4)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range ingestWorkerCounts {
		var db *DB
		atGOMAXPROCS(workers, func() { db, err = BuildParallel(videos, Options{Epsilon: 0.3, Seed: 3}) })
		if err != nil {
			t.Fatalf("%d workers: BuildParallel: %v", workers, err)
		}
		defer db.Close()
		if db.Triplets() == 0 {
			t.Fatalf("%d workers: BuildParallel did not build the index eagerly", workers)
		}
		gotM, err := db.Search(query, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Errorf("%d workers: BuildParallel search diverged:\n got %+v\nwant %+v", workers, gotM, wantM)
		}
		if !bytes.Equal(storeBytes(t, seq), storeBytes(t, db)) {
			t.Errorf("%d workers: BuildParallel summaries diverged from sequential path", workers)
		}
	}
}

func TestBuildParallelReportsItemErrors(t *testing.T) {
	videos := []Video{{ID: 1, Frames: synthVideo(rand.New(rand.NewSource(1)), 8, 2, 5)}, {ID: 2, Frames: nil}}
	if _, err := BuildParallel(videos, Options{Epsilon: 0.3}); err == nil {
		t.Fatal("BuildParallel accepted a video with no frames")
	}
	if db, err := BuildParallel(nil, Options{Epsilon: 0.3}); err != nil || db == nil {
		t.Fatalf("BuildParallel(nil) = %v, %v; want empty db", db, err)
	}
}

// The drift policy fires once per batch: a batch that moves the principal
// component far enough triggers exactly one rebuild at merge time.
func TestAddBatchAppliesDriftPolicy(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	db := New(Options{Epsilon: 0.3, MaxDriftAngle: 0.1})
	for id := 0; id < 8; id++ {
		frames := make([]Vector, 12)
		for i := range frames {
			frames[i] = Vector{0.5 + r.NormFloat64()*0.3, 0.5 + r.NormFloat64()*0.01, 0.5 + r.NormFloat64()*0.01}
		}
		if err := db.Add(id, frames); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Search(synthVideo(r, 3, 1, 4), 2); err != nil {
		t.Fatal(err)
	}
	// Load a batch whose variance lies along another axis.
	var batch []Video
	for id := 100; id < 140; id++ {
		frames := make([]Vector, 12)
		for i := range frames {
			frames[i] = Vector{0.5 + r.NormFloat64()*0.01, 0.5 + r.NormFloat64()*0.3, 0.5 + r.NormFloat64()*0.01}
		}
		batch = append(batch, Video{ID: id, Frames: frames})
	}
	itemErrs, err := db.AddBatch(batch)
	if err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	for _, e := range itemErrs {
		if e != nil {
			t.Fatal(e)
		}
	}
	if got := db.DriftAngle(); got > 0.1 {
		t.Fatalf("drift %v radians still above threshold after batch merge", got)
	}
}
