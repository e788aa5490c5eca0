package journal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vitri/internal/core"
	"vitri/internal/metrics"
	"vitri/internal/vfs"
)

// ErrPoisoned reports a writer disabled by an earlier flush or fsync
// failure. Once storage has failed mid-stream the durable prefix is
// unknowable, so every later operation fails loudly instead of
// acknowledging writes that may never reach disk (the "fsyncgate"
// lesson: retrying fsync can silently drop the failed pages).
var ErrPoisoned = errors.New("journal: writer poisoned by earlier write failure")

// Config tunes Open.
type Config struct {
	// StartSeq is the sequence number a fresh journal starts at — the
	// snapshot's LastSeq+1. Ignored when the journal already has records
	// with higher sequence numbers.
	StartSeq uint64
	// KeepCorruptTail disables the truncation of a torn tail at open.
	// It exists ONLY so the crash-simulation suite can prove the
	// truncation matters (appends after a kept tail land beyond garbage
	// and are invisible to the next replay). Production code must leave
	// it false.
	KeepCorruptTail bool
}

// Writer is an open journal accepting appends. Safe for concurrent use:
// Append serializes on an internal mutex (callers needing a specific
// interleaving with their in-memory state hold their own lock around
// Append, as vitri.DB does), and Commit group-commits across goroutines.
type Writer struct {
	fsys vfs.FS // immutable after Open
	path string // immutable after Open

	mu          sync.Mutex    // guards f, bw, seq, counters, err
	f           vfs.File      // guarded by mu
	bw          *bufio.Writer // guarded by mu
	seq         uint64        // last assigned sequence number. guarded by mu
	baseRecords int           // records replayed at open. guarded by mu
	records     int           // records appended since open/rotation. guarded by mu
	bytes       int64         // valid length incl. buffered appends. guarded by mu
	err         error         // sticky storage failure. guarded by mu

	syncMu     sync.Mutex // serializes group-commit leaders
	durableSeq atomic.Uint64

	fsyncs       metrics.Counter    // internally synchronized
	fsyncLatency *metrics.Histogram // internally synchronized
}

// Open opens (creating if absent) the journal at path, replays every
// valid record through apply, truncates any torn tail, and returns a
// writer positioned after the last valid record.
//
// Replay stops cleanly at the first invalid record: a power cut can tear
// the final record or drop unsynced bytes, and everything from that
// point on was never acknowledged. apply's error aborts the open — a
// record that passed its checksum must apply, or the store is genuinely
// inconsistent.
func Open(fsys vfs.FS, path string, cfg Config, apply func(Entry) error) (*Writer, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{fsys: fsys, path: path, f: f, fsyncLatency: newFsyncHistogram()}
	if err := w.recover(cfg, apply); err != nil {
		f.Close()
		return nil, err
	}
	w.bw = bufio.NewWriter(f)
	w.durableSeq.Store(w.seq)
	return w, nil
}

// recover scans the file, replays valid records and positions the writer.
func (w *Writer) recover(cfg Config, apply func(Entry) error) error {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	size, err := fileSize(w.f)
	if err != nil {
		return err
	}
	res, err := scan(bufio.NewReader(io.LimitReader(w.f, size)), apply)
	if err != nil {
		return err
	}
	w.baseRecords = res.records
	startSeq := cfg.StartSeq
	if startSeq == 0 {
		startSeq = 1
	}
	w.seq = startSeq - 1
	if res.headerOK && res.startSeq > startSeq {
		w.seq = res.startSeq - 1
	}
	if res.lastSeq > w.seq {
		w.seq = res.lastSeq
	}

	if !res.headerOK {
		// Empty or header-corrupt file: rewrite from scratch. The header
		// is synced, and the name is made durable, before any append can
		// be acknowledged on top of it.
		if err := w.f.Truncate(0); err != nil {
			return err
		}
		if _, err := w.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if _, err := w.f.Write(encodeHeader(startSeq)); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.fsys.SyncDir(filepath.Dir(w.path)); err != nil {
			return err
		}
		w.bytes = headerSize
		return nil
	}

	w.bytes = res.valid
	if res.valid < size && !cfg.KeepCorruptTail {
		// Torn tail: drop it so future appends extend the valid prefix.
		// Without this, appends land beyond the garbage and the next
		// replay — which stops at the garbage — never sees them.
		if err := w.f.Truncate(res.valid); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	at := res.valid
	if cfg.KeepCorruptTail {
		at = size
		w.bytes = size
	}
	if _, err := w.f.Seek(at, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// AppendAdd journals an added summary and returns its sequence number.
// The record is buffered; it is durable only once Commit(seq) returns.
func (w *Writer) AppendAdd(s *core.Summary) (uint64, error) {
	payload, err := addPayload(s)
	if err != nil {
		return 0, err
	}
	return w.append(KindAdd, payload)
}

// AppendRemove journals a removed video id.
func (w *Writer) AppendRemove(videoID int) (uint64, error) {
	if videoID < 0 {
		return 0, fmt.Errorf("journal: negative video id %d", videoID)
	}
	return w.append(KindRemove, removePayload(videoID))
}

func (w *Writer) append(kind Kind, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	w.seq++
	var buf bytes.Buffer
	buf.Grow(len(payload) + recOverhead)
	encodeRecord(&buf, kind, w.seq, payload)
	if _, err := w.bw.Write(buf.Bytes()); err != nil {
		return 0, w.poisonLocked(err)
	}
	w.records++
	w.bytes += int64(buf.Len())
	return w.seq, nil
}

// Commit makes every record up to and including seq durable. Multiple
// goroutines committing concurrently share fsyncs: a caller whose seq is
// already covered returns immediately; otherwise one leader flushes and
// syncs for everyone waiting.
func (w *Writer) Commit(seq uint64) error {
	if w.durableSeq.Load() >= seq {
		return w.stickyErr()
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.durableSeq.Load() >= seq {
		return w.stickyErr()
	}
	w.mu.Lock()
	// Capture the sticky error under the lock: reading w.err after the
	// unlock would race a concurrent poison.
	if err := w.err; err != nil {
		w.mu.Unlock()
		return err
	}
	target := w.seq
	if err := w.bw.Flush(); err != nil {
		err = w.poisonLocked(err)
		w.mu.Unlock()
		return err
	}
	f := w.f
	w.mu.Unlock()

	// Syncing outside w.mu keeps appends flowing during the fsync; the
	// descriptor stays valid because Rotate and Close, the only swappers/
	// closers, serialize on w.syncMu, which this leader holds.
	start := time.Now()
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		err = w.poisonLocked(err)
		w.mu.Unlock()
		return err
	}
	w.observeFsync(start)
	w.durableSeq.Store(target)
	return nil
}

func (w *Writer) stickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Err reports the writer's sticky failure (wrapping ErrPoisoned), or nil
// on a healthy writer. Batch callers use it to stop feeding a poisoned
// writer: after the first failed append every further operation can only
// return this same error.
func (w *Writer) Err() error { return w.stickyErr() }

// poisonLocked records err as the writer's sticky failure and returns the
// original err. Caller holds w.mu.
func (w *Writer) poisonLocked(err error) error {
	w.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
	return err
}

// Cut is a consistent capture of the journal's position, taken while the
// caller excludes appends (vitri.DB holds its write or read lock — either
// keeps mutators out, since appends run under the write lock). Every
// record at a byte offset below Offset has seq <= LastSeq; every record
// appended after the cut lands beyond Offset with seq > LastSeq. A Cut is
// what makes the retained-suffix rotation O(appends since the cut): the
// suffix is a contiguous byte range, never a full-journal rescan.
type Cut struct {
	// LastSeq is the last assigned sequence number at the cut.
	LastSeq uint64
	// Offset is the journal's valid byte length at the cut (header plus
	// every record with seq <= LastSeq, including still-buffered ones).
	Offset int64
	// Depth is the live record count at the cut (replayed + appended).
	Depth int
}

// CutPoint captures the journal's current cut. The caller must hold its
// own append exclusion (vitri.DB's mutex) so the cut is consistent with
// the in-memory state captured under the same hold.
func (w *Writer) CutPoint() (Cut, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return Cut{}, w.err
	}
	return Cut{LastSeq: w.seq, Offset: w.bytes, Depth: w.baseRecords + w.records}, nil
}

// WithSyncSlot runs fn while holding the writer's group-commit fsync
// slot: no journal fsync, rotation, or close runs concurrently with fn.
// Background writers syncing OTHER files on the same filesystem use it
// to keep their fsyncs from entangling with journal commits — on a
// journaling filesystem two concurrent fsync streams serialize anyway,
// but through the filesystem journal's commit batching, which can cost
// tens of milliseconds per commit; an explicit slot costs one fn. fn
// must not call back into the Writer or the slot deadlocks.
func (w *Writer) WithSyncSlot(fn func() error) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return fn()
}

// Rotate atomically replaces the journal with a fresh, empty one
// starting at startSeq — the checkpoint's LastSeq+1. The caller must
// guarantee every record in the journal is covered by the snapshot it
// just wrote (vitri.DB used to hold its write lock across the whole
// checkpoint for this; the non-blocking checkpoint uses RotateRetain
// instead). A concurrent Commit is fine — Rotate serializes with the
// in-flight leader on syncMu.
func (w *Writer) Rotate(startSeq uint64) error {
	// syncMu before mu, the same order as Close: a Commit leader syncs
	// w.f after releasing w.mu, so taking only w.mu here could swap and
	// close the descriptor mid-sync — the sync would hit a closed fd and
	// poison the writer for no real storage failure.
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.rotateLocked(startSeq, nil, 0)
}

// RotateRetain replaces the journal with a fresh one that retains every
// record appended after c — the records with seq > c.LastSeq that
// mutators appended while a checkpoint was writing its snapshot outside
// the lock. The new journal's header starts at c.LastSeq+1 (the
// snapshot's fold point), followed by the retained suffix byte-for-byte.
// Appends are blocked only while the suffix — proportional to mutations
// since the cut, not to journal depth — is copied.
//
// Crash safety: the retained records were fsynced into the old journal
// before their operations were acknowledged, and the replacement file is
// fsynced before the rename, so a power cut at any boundary leaves a
// journal (old or new) that still carries every acknowledged record past
// the cut. The crash suite enumerates these windows with inserts in
// flight mid-checkpoint.
func (w *Writer) RotateRetain(c Cut) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	// Flush buffered appends so the suffix is readable from the file. A
	// flush failure leaves the durable prefix unknowable: poison.
	if err := w.bw.Flush(); err != nil {
		return w.poisonLocked(err)
	}
	var suffix []byte
	if w.bytes > c.Offset {
		suffix = make([]byte, w.bytes-c.Offset)
		// A failed seek or short read leaves the descriptor at an unknown
		// position; later appends would interleave into the middle of the
		// file. Poison rather than guess.
		if _, err := w.f.Seek(c.Offset, io.SeekStart); err != nil {
			return w.poisonLocked(err)
		}
		if _, err := io.ReadFull(w.f, suffix); err != nil {
			return w.poisonLocked(err)
		}
	}
	return w.rotateLocked(c.LastSeq+1, suffix, w.baseRecords+w.records-c.Depth)
}

// rotateLocked writes header(startSeq)+suffix as the replacement journal
// via the atomic discipline (temp file + fsync + rename + directory
// sync), then swaps the writer onto it. Caller holds syncMu and mu. A
// crash at any point leaves either the old journal or the new one,
// both complete: the temp file's bytes are durable before the rename.
func (w *Writer) rotateLocked(startSeq uint64, suffix []byte, retained int) error {
	tmp := w.path + ".tmp"
	tf, err := w.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// Before the rename a failure is recoverable — the live journal is
	// untouched — but the temp file must not linger: the next rotation
	// truncates it, yet an orphan between failed checkpoints is dead
	// weight a recovery scan has to step around.
	abort := func(err error) error {
		tf.Close()
		// Best-effort cleanup of a never-read temp file; the original error
		// is surfaced.
		w.fsys.Remove(tmp)
		return err
	}
	if _, err := tf.Write(encodeHeader(startSeq)); err != nil {
		return abort(err)
	}
	if len(suffix) > 0 {
		if _, err := tf.Write(suffix); err != nil {
			return abort(err)
		}
	}
	if err := tf.Sync(); err != nil {
		return abort(err)
	}
	if err := tf.Close(); err != nil {
		// Best-effort cleanup; the close error is surfaced.
		w.fsys.Remove(tmp)
		return err
	}
	if err := w.fsys.Rename(tmp, w.path); err != nil {
		// Best-effort cleanup; the rename error is surfaced.
		w.fsys.Remove(tmp)
		return err
	}
	// Past the rename the live name is the fresh journal while w.f still
	// references the replaced, unlinked inode. A failure from here on
	// must poison the writer: returning a plain error would leave later
	// appends acknowledged against (fsynced to) the dead inode and
	// silently lost at the next recovery.
	if err := w.fsys.SyncDir(filepath.Dir(w.path)); err != nil {
		return w.poisonLocked(err)
	}
	// Swap handles: the old descriptor still points at the replaced
	// inode; reopen the live name.
	nf, err := w.fsys.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return w.poisonLocked(err)
	}
	end := headerSize + int64(len(suffix))
	if _, err := nf.Seek(end, io.SeekStart); err != nil {
		nf.Close()
		return w.poisonLocked(err)
	}
	old := w.f
	w.f = nf
	w.bw = bufio.NewWriter(nf)
	w.baseRecords, w.records = retained, 0
	w.bytes = end
	if startSeq > 0 && startSeq-1 > w.seq {
		w.seq = startSeq - 1
	}
	// Everything in the replacement file was fsynced before the rename,
	// and the rename itself is dir-synced: the whole journal — retained
	// suffix included — is durable.
	w.durableSeq.Store(w.seq)
	return old.Close()
}

// Close flushes, syncs and closes the journal. Safe to call once; the
// writer is unusable afterwards.
func (w *Writer) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		err := w.f.Close()
		if err == nil {
			err = w.err
		}
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	w.durableSeq.Store(w.seq)
	return w.f.Close()
}

// LastSeq returns the last assigned sequence number.
func (w *Writer) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Stats snapshots the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	depth := w.baseRecords + w.records
	bytes := w.bytes
	seq := w.seq
	w.mu.Unlock()
	return Stats{
		Depth:        depth,
		Bytes:        bytes,
		LastSeq:      seq,
		DurableSeq:   w.durableSeq.Load(),
		Fsyncs:       w.fsyncs.Value(),
		FsyncLatency: w.fsyncLatency.Snapshot(),
	}
}

// fileSize reports f's size without Stat (vfs.File carries no Stat).
func fileSize(f vfs.File) (int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	return size, nil
}
