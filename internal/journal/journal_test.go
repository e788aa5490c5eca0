package journal

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vitri/internal/core"
	"vitri/internal/vec"
	"vitri/internal/vfs"
)

func testSummary(id int) core.Summary {
	return core.Summary{
		VideoID:    id,
		FrameCount: 5 + id,
		Triplets: []core.ViTri{
			core.NewViTri(vec.Vector{float64(id), 0.5, -1.25}, 0.25, 2),
			core.NewViTri(vec.Vector{float64(id) * 2, 1.5, 0.75}, 0.5, 3),
		},
	}
}

// collect returns an apply func recording entries into dst.
func collect(dst *[]Entry) func(Entry) error {
	return func(e Entry) error {
		*dst = append(*dst, e)
		return nil
	}
}

func TestAppendCommitReplay(t *testing.T) {
	fsys := vfs.NewMemFS()
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s1, s2 := testSummary(1), testSummary(2)
	seq1, err := w.AppendAdd(&s1)
	if err != nil {
		t.Fatalf("AppendAdd: %v", err)
	}
	seq2, err := w.AppendAdd(&s2)
	if err != nil {
		t.Fatalf("AppendAdd: %v", err)
	}
	seq3, err := w.AppendRemove(1)
	if err != nil {
		t.Fatalf("AppendRemove: %v", err)
	}
	if seq1 != 1 || seq2 != 2 || seq3 != 3 {
		t.Fatalf("seqs = %d,%d,%d", seq1, seq2, seq3)
	}
	if err := w.Commit(seq3); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	st := w.Stats()
	if st.Depth != 3 || st.LastSeq != 3 || st.DurableSeq != 3 || st.Fsyncs == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var got []Entry
	w2, err := Open(fsys, "j.wal", Config{StartSeq: 1}, collect(&got))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(got))
	}
	if got[0].Kind != KindAdd || got[0].Summary.VideoID != 1 ||
		got[1].Kind != KindAdd || got[1].Summary.VideoID != 2 ||
		got[2].Kind != KindRemove || got[2].VideoID != 1 {
		t.Fatalf("entries = %+v", got)
	}
	if got[0].Seq != 1 || got[2].Seq != 3 {
		t.Fatalf("seqs = %d..%d", got[0].Seq, got[2].Seq)
	}
	if w2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d", w2.LastSeq())
	}
	// New appends continue the sequence.
	if seq, err := w2.AppendRemove(2); err != nil || seq != 4 {
		t.Fatalf("append after replay: seq=%d err=%v", seq, err)
	}
}

// TestTornTailTruncated verifies recovery chops a torn final record and
// that subsequent appends are visible to the next replay.
func TestTornTailTruncated(t *testing.T) {
	fsys := vfs.NewMemFS()
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(7)
	if _, err := w.AppendAdd(&s); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append: garbage beyond the valid prefix.
	img := fsys.Snapshot()["j.wal"]
	torn := append(append([]byte(nil), img...), 0x99, 0x01, 0x00, 0x00, 0x55)
	fsys.SetFile("j.wal", torn)

	var got []Entry
	w2, err := Open(fsys, "j.wal", Config{StartSeq: 1}, collect(&got))
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d, want 1", len(got))
	}
	// The tail must be gone from disk and a fresh append must be durable
	// and visible on the next replay.
	if _, err := w2.AppendRemove(7); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(2); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	w3, err := Open(fsys, "j.wal", Config{StartSeq: 1}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if len(got) != 2 || got[1].Kind != KindRemove || got[1].VideoID != 7 {
		t.Fatalf("after truncate+append: %+v", got)
	}
}

// TestKeepCorruptTail proves the torn-tail truncation matters: with it
// disabled, appends after a torn tail land beyond garbage and the next
// replay never sees them.
func TestKeepCorruptTail(t *testing.T) {
	fsys := vfs.NewMemFS()
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(7)
	if _, err := w.AppendAdd(&s); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	img := fsys.Snapshot()["j.wal"]
	fsys.SetFile("j.wal", append(append([]byte(nil), img...), 0xde, 0xad, 0xbe, 0xef, 0x01))

	w2, err := Open(fsys, "j.wal", Config{StartSeq: 1, KeepCorruptTail: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.AppendRemove(7); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Entry
	w3, err := Open(fsys, "j.wal", Config{StartSeq: 1}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	for _, e := range got {
		if e.Kind == KindRemove {
			t.Fatal("append beyond a kept corrupt tail was visible to replay — truncation would not matter")
		}
	}
}

func TestRotate(t *testing.T) {
	fsys := vfs.NewMemFS()
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(3)
	for i := 0; i < 4; i++ {
		s.VideoID = i
		if _, err := w.AppendAdd(&s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(4); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(5); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	st := w.Stats()
	if st.Depth != 0 || st.LastSeq != 4 {
		t.Fatalf("stats after rotate = %+v", st)
	}
	// Appends continue after rotation and survive reopen; pre-rotation
	// records are gone.
	if seq, err := w.AppendRemove(0); err != nil || seq != 5 {
		t.Fatalf("append after rotate: seq=%d err=%v", seq, err)
	}
	if err := w.Commit(5); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	w2, err := Open(fsys, "j.wal", Config{StartSeq: 5}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 1 || got[0].Seq != 5 || got[0].Kind != KindRemove {
		t.Fatalf("after rotate replay: %+v", got)
	}
	if _, err := fsys.Stat("j.wal.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("rotation temp file leaked")
	}
}

// gatedSyncFS blocks the next file Sync after arm: it signals entered,
// then waits for release before delegating. It freezes a Commit leader
// exactly between capturing the descriptor and fsyncing it — the window
// the Rotate descriptor-swap race lives in.
type gatedSyncFS struct {
	vfs.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (f *gatedSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gatedSyncFile{File: file, fs: f}, nil
}

type gatedSyncFile struct {
	vfs.File
	fs *gatedSyncFS
}

func (f *gatedSyncFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestRotateWaitsForInflightCommit is a deterministic regression test for
// the descriptor-swap race: a Commit leader syncs w.f after releasing
// w.mu, and Rotate used to take only w.mu, so a rotation concurrent with
// the in-flight fsync swapped and closed the descriptor mid-sync — the
// sync hit a closed fd and permanently poisoned the writer. Rotate must
// instead wait for the leader (on syncMu) and leave the writer healthy.
func TestRotateWaitsForInflightCommit(t *testing.T) {
	fsys := &gatedSyncFS{FS: vfs.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(1)
	seq, err := w.AppendAdd(&s)
	if err != nil {
		t.Fatal(err)
	}
	fsys.armed.Store(true)
	commitDone := make(chan error, 1)
	go func() { commitDone <- w.Commit(seq) }()
	<-fsys.entered // the leader holds the old descriptor, mid-fsync
	rotateDone := make(chan error, 1)
	go func() { rotateDone <- w.Rotate(seq + 1) }()
	select {
	case rerr := <-rotateDone:
		t.Fatalf("Rotate completed while a commit fsync was in flight (err=%v); it would have closed the descriptor under the sync", rerr)
	case <-time.After(50 * time.Millisecond):
	}
	close(fsys.release)
	if err := <-commitDone; err != nil {
		t.Fatalf("Commit poisoned by concurrent rotation: %v", err)
	}
	if err := <-rotateDone; err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	// The writer must still be usable end to end.
	if seq, err = w.AppendAdd(&s); err != nil {
		t.Fatalf("append after rotation: %v", err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatalf("commit after rotation: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRotateDuringCommit stress-tests the same interleaving under -race,
// mirroring vitri.DB's real locking — Append and Rotate serialize on an
// outer lock (db.mu), Commit runs outside it.
func TestRotateDuringCommit(t *testing.T) {
	fsys := vfs.NewMemFS()
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dbMu sync.Mutex // stands in for vitri.DB's write lock
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := testSummary(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				dbMu.Lock()
				seq, aerr := w.AppendAdd(&s)
				dbMu.Unlock()
				if aerr != nil {
					errCh <- aerr
					return
				}
				if cerr := w.Commit(seq); cerr != nil {
					errCh <- cerr
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		dbMu.Lock()
		last := w.LastSeq()
		rerr := w.Rotate(last + 1)
		dbMu.Unlock()
		if rerr != nil {
			t.Errorf("Rotate #%d: %v", i, rerr)
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("concurrent append/commit failed: %v", err)
	default:
	}
	// The writer must still be usable end to end.
	s := testSummary(99)
	seq, err := w.AppendAdd(&s)
	if err != nil {
		t.Fatalf("append after rotations: %v", err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatalf("commit after rotations: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// failReopenFS fails any OpenFile without O_CREATE once armed — exactly
// the reopen of the live journal name inside Rotate.
type failReopenFS struct {
	vfs.FS
	armed bool
}

func (f *failReopenFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	if f.armed && flag&os.O_CREATE == 0 {
		return nil, errors.New("injected reopen failure")
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestRotateFailureAfterRenamePoisons: once Rotate has renamed the fresh
// journal over the live name, a failure to reopen it leaves the writer
// holding the replaced, unlinked inode. The writer must poison itself so
// later appends fail loudly instead of being acknowledged against a file
// recovery will never read.
func TestRotateFailureAfterRenamePoisons(t *testing.T) {
	fsys := &failReopenFS{FS: vfs.NewMemFS()}
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(1)
	seq, err := w.AppendAdd(&s)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatal(err)
	}
	fsys.armed = true
	if err := w.Rotate(seq + 1); err == nil {
		t.Fatal("Rotate succeeded despite injected reopen failure")
	}
	if _, err := w.AppendAdd(&s); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed rotation: %v, want ErrPoisoned", err)
	}
	if err := w.Commit(seq + 1); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit after failed rotation: %v, want ErrPoisoned", err)
	}
}

// failAfterFS injects an fsync failure after a set number of Sync calls.
type failAfterFS struct {
	vfs.FS
	remaining int
}

func (f *failAfterFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failAfterFile{File: file, fs: f}, nil
}

type failAfterFile struct {
	vfs.File
	fs *failAfterFS
}

func (f *failAfterFile) Sync() error {
	if f.fs.remaining <= 0 {
		return errors.New("injected fsync failure")
	}
	f.fs.remaining--
	return f.File.Sync()
}

// TestFsyncFailurePoisons verifies a failed Commit disables the writer:
// no later append or commit can succeed, so nothing is ever acknowledged
// on top of an unknowable durable prefix. Each sticky-error return must
// also release the writer's lock: Err and Close still answer afterwards.
func TestFsyncFailurePoisons(t *testing.T) {
	fsys := &failAfterFS{FS: vfs.NewMemFS(), remaining: 1} // one sync for Open's header
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(1)
	seq, err := w.AppendAdd(&s)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(seq); err == nil {
		t.Fatal("Commit succeeded despite fsync failure")
	}
	if _, err := w.AppendAdd(&s); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failure: %v, want ErrPoisoned", err)
	}
	if err := w.Commit(seq); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit after failure: %v, want ErrPoisoned", err)
	}
	done := make(chan error, 2)
	go func() {
		done <- w.Err()
		done <- w.Close()
	}()
	for _, name := range []string{"Err", "Close"} {
		select {
		case err := <-done:
			if !errors.Is(err, ErrPoisoned) {
				t.Fatalf("%s on a poisoned writer: %v, want ErrPoisoned", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung on a poisoned writer: a sticky-error return kept the writer's lock", name)
		}
	}
}

// TestScanStopsAtNonMonotonicSeq builds a journal whose tail record
// repeats an earlier sequence number; the scan must end before it.
func TestScanStopsAtNonMonotonicSeq(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(encodeHeader(1))
	encodeRecord(&buf, KindRemove, 1, removePayload(10))
	encodeRecord(&buf, KindRemove, 2, removePayload(11))
	encodeRecord(&buf, KindRemove, 2, removePayload(12)) // stale duplicate
	res, err := Scan(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || res.LastSeq != 2 {
		t.Fatalf("res = %+v, want 2 records", res)
	}
}

func TestOpenEmptyAndHeaderCorrupt(t *testing.T) {
	fsys := vfs.NewMemFS()
	// Fresh file.
	w, err := Open(fsys, "j.wal", Config{StartSeq: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.LastSeq() != 8 {
		t.Fatalf("LastSeq on fresh journal = %d, want 8", w.LastSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the header: open must rewrite it, not fail.
	img := fsys.Snapshot()["j.wal"]
	img[3] ^= 0xff
	fsys.SetFile("j.wal", img)
	var got []Entry
	w2, err := Open(fsys, "j.wal", Config{StartSeq: 9}, collect(&got))
	if err != nil {
		t.Fatalf("open over corrupt header: %v", err)
	}
	defer w2.Close()
	if len(got) != 0 || w2.LastSeq() != 8 {
		t.Fatalf("replayed %d, LastSeq %d", len(got), w2.LastSeq())
	}
}

// TestRotateRetain: records appended after the cut must survive the
// rotation byte-for-byte and replay with their original sequence
// numbers — the invariant the non-blocking checkpoint leans on.
func TestRotateRetain(t *testing.T) {
	fsys := vfs.NewMemFS()
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(0)
	for i := 0; i < 4; i++ {
		s.VideoID = i
		if _, err := w.AppendAdd(&s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(4); err != nil {
		t.Fatal(err)
	}
	cut, err := w.CutPoint()
	if err != nil {
		t.Fatalf("CutPoint: %v", err)
	}
	if cut.LastSeq != 4 || cut.Depth != 4 {
		t.Fatalf("cut = %+v", cut)
	}
	// Mutations land while the checkpoint writes its snapshot.
	for i := 10; i < 12; i++ {
		s.VideoID = i
		if _, err := w.AppendAdd(&s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(6); err != nil {
		t.Fatal(err)
	}
	if err := w.RotateRetain(cut); err != nil {
		t.Fatalf("RotateRetain: %v", err)
	}
	st := w.Stats()
	if st.Depth != 2 || st.LastSeq != 6 || st.DurableSeq != 6 {
		t.Fatalf("stats after retained rotation = %+v", st)
	}
	if _, err := fsys.Stat("j.wal.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("rotation temp file leaked")
	}
	// Appends continue the sequence on the rotated journal.
	if seq, err := w.AppendRemove(10); err != nil || seq != 7 {
		t.Fatalf("append after retained rotation: seq=%d err=%v", seq, err)
	}
	if err := w.Commit(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	w2, err := Open(fsys, "j.wal", Config{StartSeq: cut.LastSeq + 1}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d entries, want 3: %+v", len(got), got)
	}
	if got[0].Seq != 5 || got[0].Summary.VideoID != 10 ||
		got[1].Seq != 6 || got[1].Summary.VideoID != 11 ||
		got[2].Seq != 7 || got[2].Kind != KindRemove {
		t.Fatalf("retained replay = %+v", got)
	}
}

// TestRotateRetainEmptySuffix: with no appends past the cut a retained
// rotation degenerates to the plain rotate-to-empty.
func TestRotateRetainEmptySuffix(t *testing.T) {
	fsys := vfs.NewMemFS()
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(1)
	if _, err := w.AppendAdd(&s); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(1); err != nil {
		t.Fatal(err)
	}
	cut, err := w.CutPoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RotateRetain(cut); err != nil {
		t.Fatalf("RotateRetain: %v", err)
	}
	st := w.Stats()
	if st.Depth != 0 || st.LastSeq != 1 {
		t.Fatalf("stats = %+v", st)
	}
	var got []Entry
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(fsys, "j.wal", Config{StartSeq: 2}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d entries from an empty rotation, want 0", len(got))
	}
}

// TestRotateRetainUncommitted: records appended after the cut but not
// yet committed must still be carried across the rotation — the flush
// inside RotateRetain makes them part of the suffix, and the pre-rename
// fsync makes them durable.
func TestRotateRetainUncommitted(t *testing.T) {
	fsys := vfs.NewMemFS()
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := w.CutPoint()
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(5)
	if _, err := w.AppendAdd(&s); err != nil {
		t.Fatal(err)
	}
	// No Commit: the record sits in the bufio layer.
	if err := w.RotateRetain(cut); err != nil {
		t.Fatalf("RotateRetain: %v", err)
	}
	st := w.Stats()
	if st.Depth != 1 || st.DurableSeq != 1 {
		t.Fatalf("stats = %+v; the retained record must be durable after rotation", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	w2, err := Open(fsys, "j.wal", Config{StartSeq: 1}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 1 || got[0].Seq != 1 || got[0].Summary.VideoID != 5 {
		t.Fatalf("replay = %+v", got)
	}
}

// TestRotateTmpRemovedOnError: a rotation that fails before the rename
// (here: the temp file's fsync) must not leave journal.wal.tmp behind,
// and must not poison the writer — the live journal is untouched.
func TestRotateTmpRemovedOnError(t *testing.T) {
	fsys := &failAfterFS{FS: vfs.NewMemFS(), remaining: 1} // one sync for Open's header
	w, err := Open(fsys, "j.wal", Config{StartSeq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := testSummary(1)
	if _, err := w.AppendAdd(&s); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(2); err == nil {
		t.Fatal("Rotate succeeded despite injected tmp fsync failure")
	}
	if _, err := fsys.Stat("j.wal.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("failed rotation leaked its temp file")
	}
	// The failure happened before the rename; the writer must stay usable.
	if _, err := w.AppendAdd(&s); err != nil {
		t.Fatalf("append after pre-rename rotation failure: %v", err)
	}
}
