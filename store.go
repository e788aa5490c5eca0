package vitri

import (
	"fmt"

	"vitri/internal/core"
	"vitri/internal/storefmt"
	"vitri/internal/vfs"
)

// Summary persistence: a compact, versioned binary format holding every
// video's triplets (see internal/storefmt for the wire layouts). A
// database can be saved after ingest and reloaded — the index is rebuilt
// on load (bulk construction from summaries is fast and re-derives the
// optimal reference point and the signatures for the stored data). Save
// writes the same checksummed v3 snapshot a durable checkpoint does;
// Load reads it and the legacy v1 and v2 layouts.

// Save writes the database's summaries to path. The database may be
// saved before or after its index has been built. The file is written to
// a temporary name, fsynced and renamed into place, so a crash mid-save
// never damages an existing store at path.
func (db *DB) Save(path string) error {
	return db.saveFS(vfs.OS{}, path)
}

// saveFS is Save over an explicit filesystem (the crash harness records
// through it).
func (db *DB) saveFS(fsys vfs.FS, path string) error {
	sums, err := db.summaries()
	if err != nil {
		return err
	}
	snap := &storefmt.Snapshot{Epsilon: db.opts.Epsilon, Summaries: sums}
	if err := storefmt.WriteSnapshotFile(fsys, path, snap); err != nil {
		return fmt.Errorf("vitri: save: %w", err)
	}
	return nil
}

// summaries snapshots the database contents as one consistent cross-shard
// view (taken under the exclusive view lock, so no batch is captured
// half-applied), concatenated and returned in VideoID order — the order
// every store format uses.
func (db *DB) summaries() ([]core.Summary, error) {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	var out []core.Summary
	for _, e := range db.shards {
		ss, err := e.summaries()
		if err != nil {
			return nil, err
		}
		out = append(out, ss...)
	}
	storefmt.SortSummaries(out)
	return out, nil
}

// Load reads a database saved with Save or checkpointed by a durable
// database (checksums are verified), or a legacy v1/v2 store. opts
// fields other than Epsilon are applied as given; Epsilon is taken from
// the file (a database's summaries are only meaningful at the ε they
// were built with) and must either match opts.Epsilon or opts.Epsilon
// must be zero.
func Load(path string, opts Options) (*DB, error) {
	snap, err := storefmt.ReadSnapshotFile(vfs.OS{}, path)
	if err != nil {
		return nil, fmt.Errorf("vitri: load %s: %w", path, err)
	}
	if opts.Epsilon != 0 && opts.Epsilon != snap.Epsilon {
		return nil, fmt.Errorf("vitri: load: file epsilon %v conflicts with requested %v", snap.Epsilon, opts.Epsilon)
	}
	opts.Epsilon = snap.Epsilon
	db := New(opts)
	for _, s := range snap.Summaries {
		if err := db.AddSummary(s); err != nil {
			return nil, fmt.Errorf("vitri: load: %w", err)
		}
	}
	return db, nil
}

// Remove deletes a video from the database. On a durable database the
// removal is journaled and Remove returns only once the record is
// fsynced to disk.
func (db *DB) Remove(videoID int) error {
	db.viewMu.RLock()
	dur, seq, err := db.home(videoID).removeApply(videoID)
	db.viewMu.RUnlock()
	if err != nil {
		return err
	}
	return dur.commitSeq(seq)
}
