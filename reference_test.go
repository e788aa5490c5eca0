package vitri

import (
	"bytes"
	"fmt"
	"testing"

	"vitri/internal/core"
	"vitri/internal/storefmt"
	"vitri/internal/temporal"
	"vitri/internal/vfs"
)

// refDB is the router-free reference the equivalence and metamorphic
// suites compare a DB against: ONE bare engine that is fed every summary
// and searched directly. It shares the engine's apply/search/checkpoint
// methods with the system under test — those are the paper's index, the
// thing being sharded — and nothing else: no routing, no view lock, no
// scatter, no mergeTopK, no manifest. A defect in any router path
// therefore shows up as a divergence from it, including at Shards: 1,
// where DB runs the same router code over a single engine.
type refDB struct {
	e *engine
}

// equivDB is the slice of the database API the shared workloads drive,
// so one workload function can feed both a DB and the reference.
type equivDB interface {
	Add(videoID int, frames []Vector) error
	AddBatch(videos []Video) ([]error, error)
	Remove(videoID int) error
	Search(frames []Vector, k int) ([]Match, error)
	Checkpoint() error
	Close() error
	Epsilon() float64
	Durable() bool
}

var (
	_ equivDB = (*DB)(nil)
	_ equivDB = (*refDB)(nil)
)

func newRef(opts Options) *refDB { return &refDB{e: newEngine(opts)} }

// openRef opens the reference durably: a bare engine's snapshot + journal
// directly in dir on fsys.
func openRef(dir string, opts Options, fsys vfs.FS) (*refDB, error) {
	opts.Durable = &DurableOptions{Dir: dir, FS: fsys}
	e, err := openEngine(dir, opts)
	if err != nil {
		return nil, err
	}
	return &refDB{e: e}, nil
}

func (r *refDB) summarize(videoID int, frames []Vector) (Summary, error) {
	if len(frames) == 0 {
		return Summary{}, fmt.Errorf("vitri: video %d has no frames", videoID)
	}
	return Summarize(videoID, frames, r.e.opts.Epsilon, r.e.opts.Seed+int64(videoID)), nil
}

func (r *refDB) Add(videoID int, frames []Vector) error {
	s, err := r.summarize(videoID, frames)
	if err != nil {
		return err
	}
	dur, seq, err := r.e.addSummaryApply(s, nil)
	if err != nil {
		return err
	}
	return dur.commitSeq(seq)
}

func (r *refDB) AddBatch(videos []Video) ([]error, error) {
	summaries := make([]core.Summary, len(videos))
	itemErrs := make([]error, len(videos))
	all := make([]int, len(videos))
	for i, v := range videos {
		all[i] = i
		summaries[i], itemErrs[i] = r.summarize(v.ID, v.Frames)
	}
	dur, maxSeq, batchErr := r.e.applyBatch(summaries, make([]*temporal.Signature, len(videos)), all, itemErrs)
	if cerr := dur.commitSeq(maxSeq); cerr != nil && batchErr == nil {
		batchErr = cerr
	}
	return itemErrs, batchErr
}

func (r *refDB) Remove(videoID int) error {
	dur, seq, err := r.e.removeApply(videoID)
	if err != nil {
		return err
	}
	return dur.commitSeq(seq)
}

func (r *refDB) Search(frames []Vector, k int) ([]Match, error) {
	q := Summarize(-1, frames, r.e.opts.Epsilon, r.e.opts.Seed)
	res, _, err := r.SearchSummary(&q, k, Composed)
	return res, err
}

func (r *refDB) SearchSummary(q *Summary, k int, mode QueryMode) ([]Match, SearchStats, error) {
	return r.e.searchSummary(q, k, mode)
}

// SearchBatch is a plain loop: the reference has no pool.
func (r *refDB) SearchBatch(queries []Summary, k int, mode QueryMode) []BatchResult {
	out := make([]BatchResult, len(queries))
	for i := range queries {
		out[i].Results, out[i].Stats, out[i].Err = r.e.searchSummary(&queries[i], k, mode)
	}
	return out
}

func (r *refDB) Checkpoint() error {
	c, err := r.e.checkpointCapture()
	if err != nil {
		return err
	}
	return r.e.checkpointCommit(c)
}

func (r *refDB) Close() error     { return r.e.close() }
func (r *refDB) Epsilon() float64 { return r.e.opts.Epsilon }
func (r *refDB) Durable() bool    { return r.e.durable() }

// storeBytes serializes the reference's contents exactly like the
// package-level storeBytes does for a DB.
func (r *refDB) storeBytes(t *testing.T) []byte {
	t.Helper()
	sums, err := r.e.summaries()
	if err != nil {
		t.Fatalf("reference summaries: %v", err)
	}
	storefmt.SortSummaries(sums)
	return encodeStore(t, r.e.opts.Epsilon, sums)
}

// checkAgainstRef asserts db — built at the given shard count from the
// same video set as the reference — agrees with the bare engine on
// contents (byte-for-byte) and, for every query in both modes, on the
// ranking bit-for-bit. At one shard the router adds nothing to an
// engine's answer, so there the full SearchStats — PageReads and Ranges
// included — must match too.
func checkAgainstRef(t *testing.T, ref *refDB, db *DB, shards int, queries []Summary, k int) {
	t.Helper()
	if len(db.shards) != shards {
		t.Fatalf("router has %d shards, want %d", len(db.shards), shards)
	}
	if got, want := storeBytes(t, db), ref.storeBytes(t); !bytes.Equal(got, want) {
		t.Fatalf("contents diverge from the bare-engine reference: %d vs %d bytes", len(got), len(want))
	}
	for qi := range queries {
		for _, mode := range []QueryMode{Naive, Composed} {
			wantRes, wantStats, err := ref.SearchSummary(&queries[qi], k, mode)
			if err != nil {
				t.Fatalf("reference search: %v", err)
			}
			gotRes, gotStats, err := db.SearchSummary(&queries[qi], k, mode)
			if err != nil {
				t.Fatalf("query %d mode %v: %v", qi, mode, err)
			}
			if !matchesIdentical(gotRes, wantRes) {
				t.Fatalf("query %d mode %v: ranking diverges from the bare-engine reference\n got: %+v\nwant: %+v",
					qi, mode, gotRes, wantRes)
			}
			if shards == 1 && gotStats != wantStats {
				t.Fatalf("query %d mode %v: one-shard SearchStats %+v, bare engine %+v", qi, mode, gotStats, wantStats)
			}
		}
	}
}
