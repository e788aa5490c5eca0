package storefmt

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"vitri/internal/core"
	"vitri/internal/vfs"
)

// WriteFileAtomic writes a file so the previous contents of path are
// never damaged, whatever the crash point:
//
//  1. write to path+".tmp" (created fresh),
//  2. fsync the temp file — its data is durable before any name changes,
//  3. rename over path — readers see old-complete or new-complete, never
//     a mix,
//  4. fsync the parent directory — the rename itself is durable.
//
// A crash before step 3 leaves path untouched; a crash between 3 and 4
// leaves either the old or the new file, both complete. The temp file is
// removed on error, best-effort.
//
// Large files are additionally synced every syncEvery bytes while being
// written. Step 2's final fsync would otherwise flush the whole file's
// dirty pages at once, and on a journaling filesystem a concurrent
// fsync — the WAL commit of a mutation acknowledged while a checkpoint
// writes its snapshot — can be made to wait behind that entire backlog.
// Incremental syncs bound the backlog, which bounds the mutation's tail
// latency; files smaller than syncEvery never hit the threshold and pay
// nothing extra.
func WriteFileAtomic(fsys vfs.FS, path string, write func(io.Writer) error) error {
	return WriteFileAtomicGated(fsys, path, nil, write)
}

// A SyncGate serializes this writer's storage syncs against a
// foreground commit stream — every fsync-like operation (file creation,
// chunk and final syncs, rename, directory sync) runs inside gate(fn).
// vitri's checkpoint passes the journal writer's WithSyncSlot so
// snapshot syncs and WAL commits never run concurrently: on one
// journaling filesystem they would serialize anyway, but through the
// filesystem journal's commit batching, stalling acknowledged-mutation
// fsyncs for tens of milliseconds. With the gate, a WAL commit waits at
// most one syncEvery-sized chunk. A nil gate syncs directly.
type SyncGate func(func() error) error

// WriteFileAtomicGated is WriteFileAtomic with every storage sync
// routed through gate (when non-nil).
func WriteFileAtomicGated(fsys vfs.FS, path string, gate SyncGate, write func(io.Writer) error) (err error) {
	if gate == nil {
		gate = func(fn func() error) error { return fn() }
	}
	tmp := path + ".tmp"
	var f vfs.File
	if err = gate(func() (oerr error) {
		f, oerr = fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		return oerr
	}); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			// Best-effort cleanup; the original error is surfaced.
			fsys.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(&chunkSyncWriter{f: f, gate: gate})
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = gate(f.Sync); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = gate(func() error { return fsys.Rename(tmp, path) }); err != nil {
		return err
	}
	return gate(func() error { return fsys.SyncDir(filepath.Dir(path)) })
}

// syncEvery is WriteFileAtomic's incremental-sync interval: at most
// this many bytes are ever dirty at once while a large file is written,
// and at most this many bytes of flushing ever stand between a gated
// foreground fsync and the device.
const syncEvery = 64 << 10

// chunkSyncWriter counts bytes through to the file and fsyncs each time
// syncEvery of them accumulate since the last sync.
type chunkSyncWriter struct {
	f       vfs.File
	gate    SyncGate
	pending int
}

func (w *chunkSyncWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.pending += n
	if err == nil && w.pending >= syncEvery {
		w.pending = 0
		err = w.gate(w.f.Sync)
	}
	return n, err
}

// WriteSnapshotFile writes snap as v3 via the atomic discipline.
func WriteSnapshotFile(fsys vfs.FS, path string, snap *Snapshot) error {
	return WriteSnapshotFileGated(fsys, path, snap, nil)
}

// WriteSnapshotFileGated is WriteSnapshotFile with the storage syncs
// routed through gate — the checkpoint's variant, see SyncGate.
func WriteSnapshotFileGated(fsys vfs.FS, path string, snap *Snapshot, gate SyncGate) error {
	return WriteFileAtomicGated(fsys, path, gate, func(w io.Writer) error {
		return EncodeV3(w, snap)
	})
}

// ReadSnapshotFile reads a store of any version. A missing file reports
// fs.ErrNotExist (callers treat it as an empty store).
func ReadSnapshotFile(fsys vfs.FS, path string) (*Snapshot, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(bufio.NewReader(f))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// IsNotExist reports whether err is a missing-file error from any FS.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// SortSummaries orders summaries by video id in place — the canonical
// order snapshots are written in, which is what makes two stores of the
// same logical contents byte-identical.
func SortSummaries(sums []core.Summary) {
	sort.Slice(sums, func(i, j int) bool { return sums[i].VideoID < sums[j].VideoID })
}
