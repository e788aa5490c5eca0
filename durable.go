package vitri

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"vitri/internal/core"
	"vitri/internal/journal"
	"vitri/internal/shard"
	"vitri/internal/storefmt"
	"vitri/internal/vfs"
)

// Durability: every shard of a durable DB pairs an atomic snapshot with
// an append-only delta journal in its own directory (shardDir), so a
// power cut at any write boundary loses nothing that was acknowledged.
//
//   - The snapshot (<dir>/snapshot.vitri, store format v3) is only ever
//     replaced via temp-file + fsync + rename + directory sync; the
//     previous snapshot is never damaged.
//   - Every Add/Remove/AddBatch appends a checksummed record to the
//     journal (<dir>/journal.wal) and returns only after fsync; batches
//     and concurrent mutators share fsyncs (group commit).
//   - Checkpoint folds the journal into a fresh snapshot and rotates the
//     journal, bounding recovery time and disk growth.
//   - OpenDurable verifies snapshot checksums, replays the journal
//     (skipping records the snapshot already contains, by sequence
//     number) and truncates a torn journal tail at the first invalid
//     record instead of failing.
//
// The recovery invariant — every acknowledged operation survives, every
// unacknowledged one is absent or applied atomically, never partially —
// is enforced by the exhaustive crash-simulation suite in crash_test.go,
// which enumerates a simulated power cut at every write/sync boundary.

// ErrNotDurable reports a durability operation (Checkpoint) on a DB that
// was not opened with OpenDurable.
var ErrNotDurable = errors.New("vitri: database is not durable (use OpenDurable)")

// Snapshot and journal file names inside a durable directory.
const (
	snapshotFile = "snapshot.vitri"
	journalFile  = "journal.wal"
)

// DurableOptions configures the durable store.
type DurableOptions struct {
	// Dir is the directory holding the snapshot and journal. Created if
	// absent. Set by OpenDurable's dir argument.
	Dir string
	// FS overrides the filesystem — the crash-simulation harness
	// substitutes its recorder here. Nil selects the real disk.
	FS vfs.FS
	// keepCorruptTail disables torn-tail truncation at recovery. It is
	// settable only from this package's tests: the crash suite uses it
	// to prove the truncation has teeth.
	keepCorruptTail bool
}

// durableState is one shard's open journal plus snapshot bookkeeping.
type durableState struct {
	fs       vfs.FS          // immutable after OpenDurable
	snapPath string          // immutable after OpenDurable
	wal      *journal.Writer // immutable after OpenDurable; internally synchronized
	// snapLastSeq is the journal seq folded into the on-disk snapshot.
	// guarded by engine.mu
	snapLastSeq uint64
	snapVersion uint32 // on-disk snapshot format (0 = none). guarded by engine.mu
}

// storeState is a durable DB's router-level bookkeeping. The snapshot +
// journal state lives in each shard's own durableState; the router owns
// only the manifest — a multi-shard store's commit record — and the
// checkpoint count.
type storeState struct {
	fs  vfs.FS // immutable after OpenDurable
	dir string // immutable after OpenDurable
	// manifestPath is empty on a one-shard store, which has no manifest.
	manifestPath string // immutable after OpenDurable
	// epoch mirrors the committed manifest's checkpoint epoch.
	// guarded by db.ckptMu
	epoch       uint64
	checkpoints atomic.Uint64
}

// shardDir maps shard i of an n-shard store rooted at dir to its
// directory — the one place the on-disk layout is chosen. A one-shard
// store's shard directory is the root itself, so the flat snapshot +
// journal layout of earlier versions is exactly the n = 1 case; it
// carries no manifest because there is no cross-shard cut to commit and
// nothing recovery would read from one.
func shardDir(dir string, i, n int) string {
	if n == 1 {
		return dir
	}
	return filepath.Join(dir, shard.DirName(i))
}

// OpenDurable opens (creating if needed) a durable database in dir:
// each shard's snapshot is loaded and checksum-verified, its journal is
// replayed on top of it, and any torn journal tail is truncated.
// opts.Epsilon must match a non-empty store's epsilon (or be zero to
// adopt it), the same contract as Load. The returned DB persists every
// mutation; see Checkpoint for folding the journals down.
//
// With opts.Shards > 1 a fresh directory becomes a sharded store: a
// manifest records the shard count and each shard keeps its own snapshot
// + journal in a subdirectory. A store of one shard keeps them in dir
// itself and has no manifest. An existing store's layout wins — its
// manifest (or its absence) decides, and opts.Shards must agree with it
// or be 0 to adopt. The shard count is fixed at creation because routing
// is baked into which journal holds which video.
func OpenDurable(dir string, opts Options) (*DB, error) {
	d := DurableOptions{Dir: dir}
	if opts.Durable != nil {
		d = *opts.Durable
		d.Dir = dir
	}
	fsys := d.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	d.FS = fsys
	opts.Durable = &d
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vitri: open durable: %w", err)
	}
	st := &storeState{fs: fsys, dir: dir}
	manPath := filepath.Join(dir, shard.ManifestFile)
	//lint:ignore droppederr best-effort cleanup of a never-read temp file
	fsys.Remove(manPath + ".tmp")
	n := max(opts.Shards, 1)
	man, merr := shard.ReadManifest(fsys, manPath)
	switch {
	case merr == nil:
		if opts.Shards > 1 && opts.Shards != man.Shards {
			return nil, fmt.Errorf("vitri: open durable: store has %d shards; Options.Shards requests %d (pass 0 to adopt)", man.Shards, opts.Shards)
		}
		if man.Shards < 2 {
			return nil, fmt.Errorf("vitri: open durable: manifest shard count %d (a store with a manifest has at least 2)", man.Shards)
		}
		n, st.epoch, st.manifestPath = man.Shards, man.Epoch, manPath
	case !storefmt.IsNotExist(merr):
		return nil, fmt.Errorf("vitri: open durable: %w", merr)
	case n > 1:
		// No manifest yet: a store of more than one shard starts by
		// committing one, unless dir already holds a one-shard store.
		if flatStoreExists(fsys, dir) {
			return nil, fmt.Errorf("vitri: open durable: %s holds a single-shard store, which cannot be reopened with Options.Shards = %d", dir, n)
		}
		fresh := &shard.Manifest{Shards: n, Cuts: make([]uint64, n)}
		if err := shard.WriteManifest(fsys, manPath, fresh); err != nil {
			return nil, fmt.Errorf("vitri: open durable: manifest: %w", err)
		}
		st.manifestPath = manPath
	}
	opts.Shards = n

	db := &DB{store: st}
	for i := 0; i < n; i++ {
		// Later shards must agree with the epsilon the first shard resolved
		// (possibly adopted from its snapshot); each shard's own open
		// enforces the match, turning divergence into an error.
		e, err := openEngine(shardDir(dir, i, n), opts)
		if err == nil {
			db.shards = append(db.shards, e)
			opts.Epsilon = e.opts.Epsilon
			// Every recovered video must still route to the shard holding it.
			err = e.checkRouting(i, n)
		}
		if err != nil {
			//lint:ignore droppederr open failed; best-effort release of the shards already opened
			db.Close()
			return nil, err
		}
	}
	db.opts = opts
	return db, nil
}

// flatStoreExists reports whether dir already holds a one-shard store's
// snapshot or journal.
func flatStoreExists(fsys vfs.FS, dir string) bool {
	for _, name := range []string{snapshotFile, journalFile} {
		if _, err := fsys.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// openEngine opens one shard: a complete snapshot + journal store in its
// own directory, recovered independently (own snapshot, own journal
// replay, own torn-tail handling). opts.Durable carries the resolved
// filesystem.
func openEngine(dir string, opts Options) (*engine, error) {
	fsys, keepCorruptTail := opts.Durable.FS, opts.Durable.keepCorruptTail
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vitri: open durable: %w", err)
	}
	snapPath := filepath.Join(dir, snapshotFile)
	walPath := filepath.Join(dir, journalFile)
	// A crash can leave stale temp files behind; they are dead weight
	// (never read) and are cleared so a later checkpoint starts clean.
	for _, stale := range []string{snapPath + ".tmp", walPath + ".tmp"} {
		//lint:ignore droppederr best-effort cleanup of a never-read temp file
		fsys.Remove(stale)
	}

	snap, err := storefmt.ReadSnapshotFile(fsys, snapPath)
	switch {
	case storefmt.IsNotExist(err):
		snap = nil
	case err != nil:
		return nil, fmt.Errorf("vitri: open durable %s: %w", snapPath, err)
	}

	var lastSeq uint64
	var snapVersion uint32
	if snap != nil {
		if opts.Epsilon != 0 && opts.Epsilon != snap.Epsilon {
			return nil, fmt.Errorf("vitri: open durable %s: store epsilon %v conflicts with requested %v", snapPath, snap.Epsilon, opts.Epsilon)
		}
		opts.Epsilon = snap.Epsilon
		lastSeq = snap.LastSeq
		snapVersion = snap.Version
	}
	if opts.Epsilon <= 0 {
		return nil, errors.New("vitri: open durable: empty store needs a positive Options.Epsilon")
	}
	if snap == nil {
		// Seed a fresh store with an empty v3 snapshot so the directory
		// always carries its epsilon — later opens may pass Epsilon 0 and
		// adopt it, exactly as with a checkpointed store.
		seeded := &storefmt.Snapshot{Epsilon: opts.Epsilon}
		if err := storefmt.WriteSnapshotFile(fsys, snapPath, seeded); err != nil {
			return nil, fmt.Errorf("vitri: open durable: seed snapshot: %w", err)
		}
		snapVersion = storefmt.Version3
	}
	e := newEngine(opts)

	// Load the snapshot, then replay the journal over it. Records the
	// snapshot already folded in are skipped by sequence number; duplicate
	// adds and missing removes are tolerated (they can only arise from the
	// benign crash window between snapshot rename and journal rotation).
	e.mu.Lock()
	defer e.mu.Unlock()
	if snap != nil {
		for i := range snap.Summaries {
			if err := e.addSummaryLocked(snap.Summaries[i]); err != nil {
				return nil, fmt.Errorf("vitri: open durable %s: %w", snapPath, err)
			}
		}
	}
	//lint:ignore lockorder open-time replay: the engine is unpublished, so no waiter exists for the journal's recovery fsync to stall
	wal, err := journal.Open(fsys, walPath, journal.Config{
		StartSeq:        lastSeq + 1,
		KeepCorruptTail: keepCorruptTail,
	}, func(ent journal.Entry) error {
		if ent.Seq <= lastSeq {
			return nil
		}
		switch ent.Kind {
		case journal.KindAdd:
			if aerr := e.addSummaryLocked(ent.Summary); aerr != nil && !errors.Is(aerr, ErrDuplicateID) {
				return aerr
			}
		case journal.KindRemove:
			if rerr := e.removeLocked(ent.VideoID); rerr != nil && !errors.Is(rerr, ErrNotFound) {
				return rerr
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("vitri: open durable %s: %w", walPath, err)
	}
	e.dur = &durableState{
		fs:          fsys,
		snapPath:    snapPath,
		wal:         wal,
		snapLastSeq: lastSeq,
		snapVersion: snapVersion,
	}
	return e, nil
}

// Durable reports whether the database persists mutations: true from
// OpenDurable until Close.
func (db *DB) Durable() bool {
	for _, e := range db.shards {
		if e.durable() {
			return true
		}
	}
	return false
}

// durable reports whether this shard still has its journal open.
func (e *engine) durable() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.dur != nil
}

// Checkpoint folds the journals into fresh snapshots without stopping
// the world. There is one protocol at every shard count:
//
//  1. Capture — every shard's (summaries, journal cut) pair is pinned
//     under ONE exclusive view-lock hold, each under a short read hold of
//     that shard's engine.mu. Mutations hold the view lock shared for
//     their whole apply window, so the per-shard cuts form a single
//     consistent cross-shard cut: no batch is captured on some shards and
//     missed on others. Mutators are excluded only for this copy,
//     proportional to store size in memory, not to any disk work.
//  2. Commit — per shard, in shard order, entirely outside the locks: the
//     captured summaries are encoded and atomically renamed into place
//     as a v3 snapshot (the old snapshot survives any crash), then the
//     journal is rotated with journal.Writer.RotateRetain, which
//     preserves byte-for-byte every record mutators appended after the
//     cut (seq > cut.LastSeq). A brief engine.mu re-acquire publishes the
//     new snapshot bookkeeping. Sequential order keeps the crash suite's
//     write-boundary enumeration deterministic; the disk work is already
//     pipelined against mutations, which is where non-blocking matters.
//  3. Manifest — when the store has one (more than one shard), the new
//     per-shard cut sequences and the advanced epoch replace it via temp
//     file + fsync + rename + dir sync. This rename is the cross-shard
//     commit point: a crash anywhere before it leaves the previous
//     manifest, whose cuts the retained journal suffixes still satisfy; a
//     crash after it finds every shard's snapshot already in place. A
//     one-shard store's commit point is its snapshot rename.
//
// Concurrent Adds/Removes/Searches proceed during the disk work; they
// block only on the capture, the suffix copy inside RotateRetain
// (proportional to mutations since the cut), and the finish. ckptMu
// serializes overlapping Checkpoint calls. Opening a v1/v2 legacy store
// durably upgrades it to v3 here. Recovery cost and journal size are
// proportional to operations since the last checkpoint, so long-running
// services checkpoint periodically (vitriserve's -checkpoint-every).
func (db *DB) Checkpoint() error {
	// ckptMu is level 0 in the lock hierarchy: always acquired before
	// viewMu and engine.mu, never while holding either (vitrilint's
	// lockorder enforces this). Serializing here keeps the capture→rotate
	// window of one checkpoint from interleaving with another's.
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	caps := make([]*ckptCapture, len(db.shards))
	db.viewMu.Lock()
	var err error
	for i := 0; i < len(db.shards) && err == nil; i++ {
		caps[i], err = db.shards[i].checkpointCapture()
	}
	db.viewMu.Unlock()
	if err != nil {
		return err
	}
	cuts := make([]uint64, len(db.shards))
	for i, e := range db.shards {
		if err := e.checkpointCommit(caps[i]); err != nil {
			return err
		}
		cuts[i] = caps[i].cut.LastSeq
	}
	// A capture only succeeds on an engine OpenDurable wired, so store is
	// non-nil here.
	st := db.store
	if st.manifestPath != "" {
		man := &shard.Manifest{Shards: len(db.shards), Epoch: st.epoch + 1, Cuts: cuts}
		if db.testNonAtomicManifest {
			err = shard.WriteManifestUnsafe(st.fs, st.manifestPath, man)
		} else {
			err = shard.WriteManifest(st.fs, st.manifestPath, man)
		}
		if err != nil {
			return fmt.Errorf("vitri: checkpoint: manifest: %w", err)
		}
		st.epoch++
	}
	st.checkpoints.Add(1)
	return nil
}

// ckptCapture is checkpointCapture's output: the consistent (summaries,
// journal cut) pair pinned under engine.mu, encoded as the snapshot to
// write, plus the durable state it was captured against.
type ckptCapture struct {
	dur  *durableState
	snap *storefmt.Snapshot
	cut  journal.Cut
}

// checkpointCapture is Checkpoint's phase 1 on one shard. A read hold
// suffices: mutators take the write lock, so summaries and cut are a
// consistent pair, while searches stay unblocked. The summary copies own
// their memory — later mutations touch the live structures, never these.
// ErrNotDurable on an engine with no durable state (never opened durably,
// or closed).
func (e *engine) checkpointCapture() (*ckptCapture, error) {
	e.mu.RLock()
	dur := e.dur
	if dur == nil {
		e.mu.RUnlock()
		return nil, ErrNotDurable
	}
	var sums []core.Summary
	var err error
	if e.ix == nil {
		sums = append([]core.Summary(nil), e.pending...)
	} else {
		sums, err = e.ix.Summaries()
	}
	var cut journal.Cut
	if err == nil {
		cut, err = dur.wal.CutPoint()
	}
	e.mu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("vitri: checkpoint %s: %w", dur.snapPath, err)
	}
	storefmt.SortSummaries(sums)
	return &ckptCapture{
		dur: dur,
		snap: &storefmt.Snapshot{
			Epsilon:   e.opts.Epsilon,
			LastSeq:   cut.LastSeq,
			Summaries: sums,
		},
		cut: cut,
	}, nil
}

// checkpointCommit is Checkpoint's phase 2 on one shard — write and
// rotate, with mutations in flight, then publish the bookkeeping under a
// brief write hold.
func (e *engine) checkpointCommit(c *ckptCapture) error {
	dur := c.dur
	if hook := e.testBeforeSnapshotWrite; hook != nil {
		hook()
	}
	// The snapshot's storage syncs take the WAL's fsync slot so they
	// never run concurrently with a mutation's group commit: on one
	// journaling filesystem the two fsync streams would entangle in the
	// filesystem journal and stall acknowledged mutations for tens of
	// milliseconds. Through the gate, a commit waits at most one chunk.
	if err := storefmt.WriteSnapshotFileGated(dur.fs, dur.snapPath, c.snap, dur.wal.WithSyncSlot); err != nil {
		return fmt.Errorf("vitri: checkpoint %s: %w", dur.snapPath, err)
	}
	if hook := e.testBeforeRotate; hook != nil {
		hook()
	}
	// Crash window: snapshot renamed, journal not yet rotated. Harmless —
	// records with seq <= cut.LastSeq are skipped at the next open by the
	// snapshot's LastSeq filter; records past the cut replay on top.
	// RotateRetain excludes appends on the journal's own mutex while it
	// copies the post-cut suffix into the replacement journal, so no
	// acknowledged record is lost however the rotation lands.
	var err error
	if e.testDropRetainedSuffix {
		err = dur.wal.Rotate(c.cut.LastSeq + 1)
	} else {
		err = dur.wal.RotateRetain(c.cut)
	}
	if err != nil {
		return fmt.Errorf("vitri: checkpoint %s: rotate journal: %w", dur.snapPath, err)
	}

	// Finish — publish the snapshot bookkeeping under a brief write hold.
	// Close may have swapped e.dur out mid-checkpoint; dur's own fields
	// are then dead state, but never write through e.dur without
	// re-checking it.
	e.mu.Lock()
	if e.dur == dur {
		dur.snapLastSeq = c.cut.LastSeq
		dur.snapVersion = storefmt.Version3
	}
	e.mu.Unlock()
	return nil
}

// DurabilityStats reports the durable store's health for /stats: journal
// depth (operations not yet checkpointed), bytes, fsync count and
// latency distribution, and snapshot bookkeeping. The zero value (with
// Enabled false) is returned for non-durable and closed databases.
type DurabilityStats struct {
	Enabled bool
	// Dir is the durable directory.
	Dir string
	// SnapshotSeq is the journal sequence folded into the on-disk
	// snapshot; SnapshotVersion its format (3, or 1 or 2 for a legacy
	// store not yet upgraded by a checkpoint).
	SnapshotSeq     uint64
	SnapshotVersion uint32
	// Checkpoints counts successful Checkpoint calls this process.
	Checkpoints uint64
	// Journal is the live journal's depth, size and fsync telemetry.
	Journal journal.Stats
}

// DurabilityStats snapshots the durable store's counters, aggregated over
// the shards: counts (journal depth, bytes, fsyncs) and the per-shard
// sequence spaces (LastSeq, DurableSeq, SnapshotSeq — together the total
// operations journaled, durable and checkpointed) are summed, fsync
// latency histograms are merged, SnapshotVersion is the lowest across
// shards, and Checkpoints counts committed checkpoints. The zero value
// after Close.
func (db *DB) DurabilityStats() DurabilityStats {
	var agg DurabilityStats
	for _, e := range db.shards {
		// Snapshot e.dur once under the lock: Close nils the field under
		// the write lock, so re-reading it after RUnlock could dereference
		// nil.
		e.mu.RLock()
		dur := e.dur
		var snapSeq uint64
		var snapVer uint32
		if dur != nil {
			snapSeq = dur.snapLastSeq
			snapVer = dur.snapVersion
		}
		e.mu.RUnlock()
		if dur == nil {
			continue
		}
		if !agg.Enabled || snapVer < agg.SnapshotVersion {
			agg.SnapshotVersion = snapVer
		}
		agg.Enabled = true
		agg.SnapshotSeq += snapSeq
		js := dur.wal.Stats()
		agg.Journal.Depth += js.Depth
		agg.Journal.Bytes += js.Bytes
		agg.Journal.LastSeq += js.LastSeq
		agg.Journal.DurableSeq += js.DurableSeq
		agg.Journal.Fsyncs += js.Fsyncs
		agg.Journal.FsyncLatency = agg.Journal.FsyncLatency.Merge(js.FsyncLatency)
	}
	if agg.Enabled {
		agg.Dir = db.store.dir
		agg.Checkpoints = db.store.checkpoints.Load()
	}
	return agg
}

// journalAddLocked appends an Add record for s. Caller holds the write
// lock and has already applied s in memory; on append failure the caller
// rolls the in-memory apply back. Returns 0 on a non-durable engine.
func (e *engine) journalAddLocked(s *core.Summary) (uint64, error) {
	if e.dur == nil {
		return 0, nil
	}
	return e.dur.wal.AppendAdd(s)
}

// journalRemoveLocked appends a Remove record. Caller holds the write
// lock and appends BEFORE applying: removal has no cheap rollback, and
// a journaled-but-unapplied remove can only arise from an index-internal
// failure that already signals corruption.
func (e *engine) journalRemoveLocked(videoID int) (uint64, error) {
	if e.dur == nil {
		return 0, nil
	}
	return e.dur.wal.AppendRemove(videoID)
}

// commitSeq makes operations up to seq durable (group commit); a no-op
// on a nil receiver (non-durable engine) or seq 0. Mutation paths
// snapshot e.dur while still holding e.mu and commit on the snapshot
// after releasing it — re-reading e.dur unsynchronized after unlock
// races Close, which nils the field under the write lock.
func (d *durableState) commitSeq(seq uint64) error {
	if d == nil || seq == 0 {
		return nil
	}
	return d.wal.Commit(seq)
}
