package storefmt

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vitri/internal/core"
	"vitri/internal/vec"
	"vitri/internal/vfs"
)

// -update regenerates store-v3.golden from the canonical test snapshot.
// The golden pins the one written format: an accidental format change
// fails TestGolden until the golden is deliberately refreshed.
var update = flag.Bool("update", false, "rewrite the generated golden file")

// The goldens under testdata/. store-v3.golden is what EncodeV3 writes
// today; the others are frozen bytes written by earlier releases — v1,
// v2, and v3 with the signatures section — which no encoder in the tree
// can produce any more. -update never touches them: they are the
// compatibility contract that stores already on disk keep loading.
const currentGolden = "store-v3.golden"

var frozenGoldens = []string{"store-v1.golden", "store-v2.golden", "store-v3-sigsection.golden"}

// golden returns the bytes of a testdata golden.
func golden(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatalf("read golden %s: %v", name, err)
	}
	return b
}

// testSummaries is the canonical fixture: a handful of small summaries
// with varying triplet counts and dimensionalities exercised by every
// codec test and pinned by the goldens.
func testSummaries() []core.Summary {
	var sums []core.Summary
	for id := 0; id < 5; id++ {
		nt := 1 + id%3
		ts := make([]core.ViTri, 0, nt)
		for t := 0; t < nt; t++ {
			pos := vec.Vector{float64(id) + 0.125, float64(t) + 0.25, 1.5 - float64(id)*0.0625}
			ts = append(ts, core.NewViTri(pos, 0.25+float64(t)*0.125, 1+id+t))
		}
		sums = append(sums, core.Summary{VideoID: id * 3, FrameCount: 10 + id, Triplets: ts})
	}
	return sums
}

func testSnapshot() *Snapshot {
	return &Snapshot{Version: Version3, Epsilon: 0.3, LastSeq: 42, Summaries: testSummaries()}
}

// checkLegacyGolden decodes a frozen legacy golden, checks its header
// and contents, and re-encodes it as v3: the codec-level migration.
func checkLegacyGolden(t *testing.T, file string, version uint32, lastSeq uint64) {
	t.Helper()
	snap, err := Decode(bytes.NewReader(golden(t, file)))
	if err != nil {
		t.Fatalf("Decode %s: %v", file, err)
	}
	if snap.Version != version || snap.Epsilon != 0.3 || snap.LastSeq != lastSeq {
		t.Fatalf("%s header = (%d, %v, %d), want (%d, 0.3, %d)", file, snap.Version, snap.Epsilon, snap.LastSeq, version, lastSeq)
	}
	if !reflect.DeepEqual(snap.Summaries, testSummaries()) {
		t.Fatalf("%s: summaries differ from the fixture", file)
	}
	var buf bytes.Buffer
	if err := EncodeV3(&buf, snap); err != nil {
		t.Fatalf("EncodeV3: %v", err)
	}
	again, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode re-encoded %s: %v", file, err)
	}
	if again.Version != Version3 || again.Epsilon != snap.Epsilon || again.LastSeq != snap.LastSeq ||
		!reflect.DeepEqual(again.Summaries, snap.Summaries) {
		t.Fatalf("%s: v3 re-encode did not preserve the store", file)
	}
}

func TestRoundTripV1(t *testing.T) { checkLegacyGolden(t, "store-v1.golden", Version1, 0) }

func TestRoundTripV2(t *testing.T) { checkLegacyGolden(t, "store-v2.golden", Version2, 42) }

func TestRoundTripEmpty(t *testing.T) {
	snap := &Snapshot{Epsilon: 0.5, LastSeq: 7}
	var buf bytes.Buffer
	if err := EncodeV3(&buf, snap); err != nil {
		t.Fatalf("EncodeV3: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Summaries) != 0 || got.LastSeq != 7 || got.Epsilon != 0.5 {
		t.Fatalf("got %+v", got)
	}
}

// requireFlipsDetected flips every byte of a sectioned store in turn;
// the checksums must reject each one. This is the property the whole
// durability design leans on: a sectioned snapshot is either valid or
// loudly rejected, never silently wrong.
func requireFlipsDetected(t *testing.T, valid []byte) {
	t.Helper()
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(valid))
		}
	}
}

// requirePrefixesRejected tries every proper prefix of a sectioned store:
// it is sealed by its footer, so a torn write can't masquerade as a
// shorter valid store.
func requirePrefixesRejected(t *testing.T, valid []byte) {
	t.Helper()
	for n := 0; n < len(valid); n++ {
		if _, err := Decode(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes went undetected", n, len(valid))
		}
	}
}

func TestV2DetectsCorruption(t *testing.T) { requireFlipsDetected(t, golden(t, "store-v2.golden")) }

func TestV2DetectsTruncation(t *testing.T) { requirePrefixesRejected(t, golden(t, "store-v2.golden")) }

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
		bytes.Repeat([]byte{0xab}, 64),
	}
	for i, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestSortSummaries(t *testing.T) {
	sums := []core.Summary{{VideoID: 9}, {VideoID: 1}, {VideoID: 4}}
	SortSummaries(sums)
	for i, want := range []int{1, 4, 9} {
		if sums[i].VideoID != want {
			t.Fatalf("order %v", []int{sums[0].VideoID, sums[1].VideoID, sums[2].VideoID})
		}
	}
}

// TestGolden pins the written format byte-for-byte and the read side
// against every format ever written: all four goldens must decode to the
// canonical fixture at the same epsilon — the v1→v2→v3 migration
// invariant at the codec level.
func TestGolden(t *testing.T) {
	var v3 bytes.Buffer
	if err := EncodeV3(&v3, testSnapshot()); err != nil {
		t.Fatalf("EncodeV3: %v", err)
	}
	path := filepath.Join("testdata", currentGolden)
	if *update {
		if err := os.WriteFile(path, v3.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := golden(t, currentGolden); !bytes.Equal(v3.Bytes(), want) {
		t.Fatalf("%s: encoder output diverged from golden (%d vs %d bytes)", currentGolden, v3.Len(), len(want))
	}
	for _, file := range append([]string{currentGolden}, frozenGoldens...) {
		snap, err := Decode(bytes.NewReader(golden(t, file)))
		if err != nil {
			t.Fatalf("decode %s: %v", file, err)
		}
		if snap.Epsilon != 0.3 || !reflect.DeepEqual(snap.Summaries, testSummaries()) {
			t.Fatalf("%s decodes to different contents", file)
		}
	}
}

// failSyncFS fails every file Sync.
type failSyncFS struct{ vfs.FS }

func (f failSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return failSyncFile{file}, nil
}

type failSyncFile struct{ vfs.File }

func (failSyncFile) Sync() error { return errors.New("injected fsync failure") }

// TestWriteFileAtomic: a snapshot round-trips through the filesystem
// with no temp file left behind, and one whose fsync fails is never
// renamed into place — the write reports the failure, the previous
// snapshot stays readable, and the temp file is removed.
func TestWriteFileAtomic(t *testing.T) {
	fsys := vfs.NewMemFS()
	snap := testSnapshot()
	if err := WriteSnapshotFile(fsys, "dir/store.vitri", snap); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	got, err := ReadSnapshotFile(fsys, "dir/store.vitri")
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if got.Version != Version3 || !reflect.DeepEqual(got.Summaries, snap.Summaries) {
		t.Fatal("snapshot did not round-trip through the filesystem")
	}
	// The temp file must not linger.
	for _, name := range fsys.Names() {
		if name != "dir/store.vitri" {
			t.Fatalf("unexpected leftover file %q", name)
		}
	}
	if _, err := ReadSnapshotFile(fsys, "dir/absent"); !IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want IsNotExist", err)
	}

	next := testSnapshot()
	next.Summaries = next.Summaries[:1]
	if err := WriteSnapshotFile(failSyncFS{fsys}, "dir/store.vitri", next); err == nil {
		t.Fatal("WriteSnapshotFile succeeded although its fsync failed")
	}
	if got, err = ReadSnapshotFile(fsys, "dir/store.vitri"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Summaries, snap.Summaries) {
		t.Fatal("an unsynced snapshot replaced the previous one")
	}
	if names := fsys.Names(); len(names) != 1 {
		t.Fatalf("files after a failed write: %q, want only dir/store.vitri", names)
	}
}
