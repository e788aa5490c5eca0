package vitri

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"vitri/internal/journal"
	"vitri/internal/storefmt"
	"vitri/internal/vfs"
)

// TestDurableLifecycle exercises the durable store on the real
// filesystem: open empty, mutate, close, reopen, verify; checkpoint,
// mutate more, reopen, verify.
func TestDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if !db.Durable() {
		t.Fatal("Durable() = false")
	}
	for i := 1; i <= 6; i++ {
		if err := db.AddSummary(crashSummary(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Remove(2); err != nil {
		t.Fatal(err)
	}
	st := db.DurabilityStats()
	if !st.Enabled || st.Journal.Depth != 7 || st.Journal.LastSeq != 7 || st.Journal.DurableSeq != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: journal replays over the (absent) snapshot.
	db2, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if db2.Epsilon() != 0.3 {
		t.Fatalf("epsilon not adopted: %v", db2.Epsilon())
	}
	want := map[int]bool{1: true, 3: true, 4: true, 5: true, 6: true}
	got := dbContents(t, db2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d videos, want %d", len(got), len(want))
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Fatalf("video %d missing after replay", id)
		}
	}

	// Checkpoint folds the journal; a reopen must replay nothing and see
	// the same contents.
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st = db2.DurabilityStats()
	if st.Journal.Depth != 0 || st.SnapshotVersion != storefmt.Version3 || st.Checkpoints != 1 {
		t.Fatalf("post-checkpoint stats = %+v", st)
	}
	if err := db2.AddSummary(crashSummary(50)); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := OpenDurable(dir, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	got3 := dbContents(t, db3)
	if len(got3) != 6 {
		t.Fatalf("after checkpoint+add: %d videos, want 6", len(got3))
	}
	if _, ok := got3[50]; !ok {
		t.Fatal("post-checkpoint add lost")
	}
	if st := db3.DurabilityStats(); st.Journal.Depth != 1 {
		t.Fatalf("replayed depth = %d, want 1 (only the post-checkpoint add)", st.Journal.Depth)
	}
}

// TestDurableSearchable: a recovered durable database answers queries.
func TestDurableSearchable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]Vector, 8)
	for i := range frames {
		frames[i] = Vector{float64(i) * 0.01, 0.5, 0.25}
	}
	if err := db.Add(1, frames); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	matches, err := db2.Search(frames, 1)
	if err != nil {
		t.Fatalf("Search after recovery: %v", err)
	}
	if len(matches) != 1 || matches[0].VideoID != 1 {
		t.Fatalf("matches = %+v", matches)
	}
}

// legacyGolden returns a storefmt golden: the frozen bytes of a store
// written by an earlier release (v1, v2, or v3 with the signatures
// section), which nothing in the tree can write any more, or the current
// v3 layout.
func legacyGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("internal", "storefmt", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// migrateGolden drops a golden into a fresh durable directory as its
// snapshot and checks the migration end to end: Load and OpenDurable see
// identical contents; the store reports the file's version until its
// first checkpoint, which rewrites it as exactly the v3 encoding of the
// same store; and Load and a durable reopen of the result see the same
// contents again. Returns the golden and the checkpointed bytes.
func migrateGolden(t *testing.T, name string, version uint32) (legacy, migrated []byte) {
	t.Helper()
	dir := t.TempDir()
	legacy = legacyGolden(t, name)
	snapPath := filepath.Join(dir, snapshotFile)
	if err := os.WriteFile(snapPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(snapPath, Options{})
	if err != nil {
		t.Fatalf("Load %s: %v", name, err)
	}
	want := dbContents(t, loaded)
	if len(want) == 0 {
		t.Fatalf("%s loaded empty", name)
	}

	db, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatalf("OpenDurable over %s: %v", name, err)
	}
	if db.Epsilon() != loaded.Epsilon() {
		t.Fatalf("epsilon = %v, Load says %v", db.Epsilon(), loaded.Epsilon())
	}
	if st := db.DurabilityStats(); st.SnapshotVersion != version {
		t.Fatalf("pre-migration SnapshotVersion = %d, want %d", st.SnapshotVersion, version)
	}
	if !reflect.DeepEqual(dbContents(t, db), want) {
		t.Fatal("durable open and Load disagree on the legacy contents")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("migrating checkpoint: %v", err)
	}
	if st := db.DurabilityStats(); st.SnapshotVersion != storefmt.Version3 {
		t.Fatalf("post-migration SnapshotVersion = %d, want %d", st.SnapshotVersion, storefmt.Version3)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The file on disk is now exactly the v3 encoding of the legacy store:
	// same epsilon, same LastSeq, byte-identical summaries.
	old, err := storefmt.Decode(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := storefmt.EncodeV3(&enc, old); err != nil {
		t.Fatal(err)
	}
	if migrated, err = os.ReadFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(migrated, enc.Bytes()) {
		t.Fatalf("checkpoint wrote %d bytes that are not the v3 encoding of %s (%d bytes)", len(migrated), name, enc.Len())
	}
	reloaded, err := Load(snapPath, Options{})
	if err != nil {
		t.Fatalf("Load of migrated store: %v", err)
	}
	if !reflect.DeepEqual(dbContents(t, reloaded), want) {
		t.Fatal("migration changed contents")
	}
	db2, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !reflect.DeepEqual(dbContents(t, db2), want) {
		t.Fatal("durable reopen of migrated store changed contents")
	}
	return legacy, migrated
}

// TestV1MigratesOnCheckpoint: a legacy v1 store (unchecksummed, as DB.Save
// wrote it before v3) dropped into a durable directory opens, serves, and
// upgrades to v3 on its next Checkpoint, preserving contents
// byte-for-byte.
func TestV1MigratesOnCheckpoint(t *testing.T) {
	migrateGolden(t, "store-v1.golden", storefmt.Version1)
}

// TestV2MigratesOnCheckpoint: a durable DB opened over a v2 snapshot loads
// it as-is and upgrades the file to v3 at its next checkpoint — the same
// bytes the codec's current golden pins for the same store.
func TestV2MigratesOnCheckpoint(t *testing.T) {
	_, migrated := migrateGolden(t, "store-v2.golden", storefmt.Version2)
	if !bytes.Equal(migrated, legacyGolden(t, "store-v3.golden")) {
		t.Fatal("migrated v2 store differs from store-v3.golden")
	}
}

// TestV3SigSectionMigratesOnCheckpoint: a v3 store written with the
// signatures section opens with that section skipped, and its first
// checkpoint rewrites it strictly smaller — summaries byte-identical,
// nothing derived stored — as exactly the current v3 layout.
func TestV3SigSectionMigratesOnCheckpoint(t *testing.T) {
	legacy, migrated := migrateGolden(t, "store-v3-sigsection.golden", storefmt.Version3)
	if len(migrated) >= len(legacy) {
		t.Fatalf("checkpoint wrote %d bytes, the signature-carrying store had %d", len(migrated), len(legacy))
	}
	if !bytes.Equal(migrated, legacyGolden(t, "store-v3.golden")) {
		t.Fatal("migrated store differs from store-v3.golden")
	}
}

func TestDurableErrors(t *testing.T) {
	// Checkpoint on a non-durable DB.
	db := New(Options{Epsilon: 0.3})
	if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on plain DB: %v, want ErrNotDurable", err)
	}
	if db.Durable() {
		t.Fatal("plain DB claims durability")
	}
	if st := db.DurabilityStats(); st.Enabled {
		t.Fatal("plain DB has enabled durability stats")
	}

	// Empty durable store without an epsilon.
	if _, err := OpenDurable(t.TempDir(), Options{}); err == nil {
		t.Fatal("OpenDurable with no epsilon on an empty store succeeded")
	}

	// Epsilon conflict with an existing store.
	dir := t.TempDir()
	db2, err := OpenDurable(dir, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.AddSummary(crashSummary(1)); err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, Options{Epsilon: 0.5}); err == nil {
		t.Fatal("conflicting epsilon accepted")
	}

	// Duplicate and missing ids still fail cleanly on a durable DB, and
	// failures are not journaled (depth unchanged).
	db3, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	depth := db3.DurabilityStats().Journal.Depth
	if err := db3.AddSummary(crashSummary(1)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := db3.Remove(777); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	if got := db3.DurabilityStats().Journal.Depth; got != depth {
		t.Fatalf("failed ops changed journal depth %d -> %d", depth, got)
	}
}

// TestCloseRacesDurabilityAccess is a regression test for the unlocked
// db.dur reads Close used to race: mutations and DurabilityStats must
// snapshot the durable state under db.mu, so a concurrent Close (which
// nils db.dur under the write lock) can neither panic them nor skip the
// fsync of an acknowledged mutation. Run under -race; errors from losing
// the race to Close are tolerated, panics and race reports are not.
func TestCloseRacesDurabilityAccess(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				db.AddSummary(crashSummary(base*1000 + i))
				db.DurabilityStats()
				db.Durable()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		db.Close()
	}()
	close(start)
	wg.Wait()
}

// TestCloseEndsDurabilityReporting: a closed store no longer persists
// anything, so Durable() and DurabilityStats().Enabled must drop to false
// at every shard count — not only on a one-shard store — and a Checkpoint
// must refuse with ErrNotDurable rather than touch closed journals.
func TestCloseEndsDurabilityReporting(t *testing.T) {
	for _, n := range []int{1, 3} {
		n := n
		t.Run(shardName(n), func(t *testing.T) {
			db, err := OpenDurable("db", Options{Epsilon: 0.3, Shards: n, Durable: &DurableOptions{FS: vfs.NewMemFS()}})
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < 6; id++ {
				if err := db.AddSummary(crashSummary(id)); err != nil {
					t.Fatal(err)
				}
			}
			if !db.Durable() || !db.DurabilityStats().Enabled {
				t.Fatal("open store does not report itself durable")
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if db.Durable() {
				t.Error("Durable() still true after Close")
			}
			if ds := db.DurabilityStats(); !reflect.DeepEqual(ds, DurabilityStats{}) {
				t.Errorf("DurabilityStats after Close = %+v, want the zero value", ds)
			}
			if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
				t.Errorf("Checkpoint after Close: %v, want ErrNotDurable", err)
			}
		})
	}
}

// toggleFailFS fails every file fsync while fail is set.
type toggleFailFS struct {
	vfs.FS
	fail atomic.Bool
}

func (f *toggleFailFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &toggleFailFile{File: file, fs: f}, nil
}

type toggleFailFile struct {
	vfs.File
	fs *toggleFailFS
}

func (f *toggleFailFile) Sync() error {
	if f.fs.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestAddBatchCommitFailureMarksItems: when the batch's single group
// commit fails, every journaled item's error slot must carry the failure
// — a nil slot means "durably inserted", and callers inspecting itemErrs
// per item (the documented pattern) must not see non-durable inserts as
// acknowledged. Items that already failed per-item keep their own error.
func TestAddBatchCommitFailureMarksItems(t *testing.T) {
	fsys := &toggleFailFS{FS: vfs.NewMemFS()}
	db, err := OpenDurable("db", Options{Epsilon: 0.3, Durable: &DurableOptions{FS: fsys}})
	if err != nil {
		t.Fatal(err)
	}
	frames := func(seed int) []Vector {
		out := make([]Vector, 6)
		for i := range out {
			out[i] = Vector{float64(seed) * 0.1, float64(i) * 0.02, 0.5}
		}
		return out
	}
	fsys.fail.Store(true)
	videos := []Video{
		{ID: 1, Frames: frames(1)},
		{ID: 2, Frames: nil}, // per-item failure, independent of the commit
		{ID: 3, Frames: frames(3)},
	}
	itemErrs, batchErr := db.AddBatch(videos)
	if batchErr == nil {
		t.Fatal("AddBatch reported no batch error despite failed group commit")
	}
	if itemErrs[0] == nil || itemErrs[2] == nil {
		t.Fatalf("journaled items not marked failed: %v", itemErrs)
	}
	if !errors.Is(itemErrs[0], batchErr) && itemErrs[0].Error() != batchErr.Error() {
		t.Fatalf("item error %v does not reflect commit error %v", itemErrs[0], batchErr)
	}
	if itemErrs[1] == nil || itemErrs[1].Error() == batchErr.Error() {
		t.Fatalf("per-item failure overwritten: %v", itemErrs[1])
	}
}

// TestAddBatchPoisonedWriterShortCircuits: once the journal reports its
// sticky failure mid-batch, the remaining items must not churn through
// apply → append → rollback each — they short-circuit to the sticky
// error. The probe is a duplicate-id item placed after the poisoning
// point: the old loop would apply it first and report ErrDuplicateID;
// the short-circuit never touches the index and reports ErrPoisoned.
func TestAddBatchPoisonedWriterShortCircuits(t *testing.T) {
	fsys := &toggleFailFS{FS: vfs.NewMemFS()}
	db, err := OpenDurable("db", Options{Epsilon: 0.3, Durable: &DurableOptions{FS: fsys}})
	if err != nil {
		t.Fatal(err)
	}
	frames := func(seed int) []Vector {
		out := make([]Vector, 6)
		for i := range out {
			out[i] = Vector{float64(seed) * 0.1, float64(i) * 0.02, 0.5}
		}
		return out
	}
	if err := db.Add(1, frames(1)); err != nil {
		t.Fatal(err)
	}
	// Poison the writer: a failed group commit is sticky.
	fsys.fail.Store(true)
	if err := db.Add(2, frames(2)); err == nil {
		t.Fatal("Add succeeded despite injected fsync failure")
	}
	videos := []Video{
		{ID: 3, Frames: frames(3)}, // hits the sticky error at its append
		{ID: 1, Frames: frames(1)}, // duplicate — must short-circuit, not apply
		{ID: 4, Frames: frames(4)},
	}
	itemErrs, batchErr := db.AddBatch(videos)
	if batchErr != nil {
		// No item was journaled, so there is nothing the group commit
		// could fail over; the failure belongs to the item slots.
		t.Fatalf("batch error = %v", batchErr)
	}
	for i, ierr := range itemErrs {
		if !errors.Is(ierr, journal.ErrPoisoned) {
			t.Fatalf("item %d error = %v, want ErrPoisoned", i, ierr)
		}
	}
	if errors.Is(itemErrs[1], ErrDuplicateID) {
		t.Fatal("duplicate item was applied against a poisoned writer — short-circuit missing")
	}
	// A single Add after the poisoning fails at its journal append, and
	// the in-memory apply is rolled back: nothing unjournaled is served.
	n := db.Len()
	if err := db.Add(5, frames(5)); !errors.Is(err, journal.ErrPoisoned) {
		t.Fatalf("Add on a poisoned writer: %v, want ErrPoisoned", err)
	}
	if got := db.Len(); got != n {
		t.Fatalf("Len = %d after a failed Add, want %d: the unjournaled video was kept", got, n)
	}
}

// TestDurableAddBatch: the batch path journals every accepted video and
// group-commits once; recovery sees all of them.
func TestDurableAddBatch(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	frames := func(seed int) []Vector {
		out := make([]Vector, 6)
		for i := range out {
			out[i] = Vector{float64(seed) * 0.1, float64(i) * 0.02, 0.5}
		}
		return out
	}
	videos := []Video{
		{ID: 1, Frames: frames(1)},
		{ID: 2, Frames: frames(2)},
		{ID: 2, Frames: frames(2)}, // duplicate: must fail per-item, not journal
		{ID: 3, Frames: frames(3)},
	}
	itemErrs, err := db.AddBatch(videos)
	if err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if itemErrs[0] != nil || itemErrs[1] != nil || itemErrs[3] != nil {
		t.Fatalf("itemErrs = %v", itemErrs)
	}
	if !errors.Is(itemErrs[2], ErrDuplicateID) {
		t.Fatalf("duplicate item: %v", itemErrs[2])
	}
	st := db.DurabilityStats()
	if st.Journal.Depth != 3 || st.Journal.DurableSeq != 3 {
		t.Fatalf("stats after batch = %+v", st.Journal)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dbContents(t, db2); len(got) != 3 {
		t.Fatalf("recovered %d videos, want 3", len(got))
	}
}
