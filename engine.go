package vitri

import (
	"fmt"
	"sync"

	"vitri/internal/core"
	"vitri/internal/index"
	"vitri/internal/pager"
	"vitri/internal/refpoint"
	"vitri/internal/shard"
	"vitri/internal/storefmt"
	"vitri/internal/temporal"
)

// engine is one shard: the paper's index — a PCA-optimal one-dimensional
// transform over one B+-tree — plus the video-id set it holds and, on a
// durable store, its own snapshot + journal. A DB routes across one or
// more engines; an engine knows nothing of its siblings, the view lock or
// the manifest. Every method that touches pending/ix/ids/tsigs/dur does
// so under mu.
type engine struct {
	mu   sync.RWMutex
	opts Options // immutable after newEngine
	// pending holds summaries added before the index exists; the index
	// is built lazily on the first search (bulk construction beats
	// repeated insertion).
	pending []core.Summary // guarded by mu
	ix      *index.Index   // guarded by mu
	ids     map[int]bool   // guarded by mu
	// tsigs maps video id -> temporal signature for the videos ingested
	// with frames (Add/AddBatch), the registry SearchTemporal reranks
	// with. An entry is stored in the critical section that inserts its
	// summary and deleted in the one that removes it, so it never outlives
	// its video. Videos added as bare summaries or recovered from a
	// durable store have no frames to derive order from and no entry.
	tsigs map[int]*temporal.Signature // guarded by mu
	// dur is non-nil on a durable store's engines: mutations are
	// journaled under mu and group-committed (fsynced) after release.
	// Close nils it.
	dur *durableState // guarded by mu

	// Test hooks, unset outside tests and set before the index is built
	// or any checkpoint runs (read without synchronization). The crash and
	// equivalence suites use the first two to run mutations inside this
	// shard's unlocked checkpoint windows: after the capture but before
	// the snapshot write, and after the write but before the journal
	// rotation.
	testBeforeSnapshotWrite func() // immutable once serving
	testBeforeRotate        func() // immutable once serving
	// testDropRetainedSuffix reverts checkpointCommit to the pre-retained
	// rotate-to-empty. The crash suite flips it to prove the retained-
	// suffix rotation is load-bearing: with it, mid-checkpoint crash
	// states lose acknowledged mutations.
	testDropRetainedSuffix bool // immutable once serving
	// testNoSignatures and testFloat64Leaves build the index without the
	// signature pre-filter tier and with float64 leaf records. The
	// differential suites hold each tier off to prove it changes no
	// result (see prefilter_equiv_test.go).
	testNoSignatures  bool // immutable once serving
	testFloat64Leaves bool // immutable once serving
	// testSpaceCenter keys the index by the data-independent space-center
	// reference point instead of the default fitted O′. Each shard fits
	// its own O′, so which records a query's key ranges cover — and with
	// it Candidates — depends on the shard layout; under the fixed space
	// center every record is scanned against the same ranges in whichever
	// shard holds it, and the equivalence suites use this to assert that
	// the work counters sum across shards.
	testSpaceCenter bool // immutable once serving
}

func newEngine(opts Options) *engine {
	return &engine{opts: opts, ids: make(map[int]bool), tsigs: make(map[int]*temporal.Signature)}
}

// addSummaryApply is AddSummary's apply phase: validate, apply in memory
// (registering ts, the video's temporal signature, when non-nil) and
// journal, all under one mu hold, returning the commit ticket (the
// durable state snapshotted under the lock plus the journaled sequence)
// so the caller can group-commit after every lock — including the DB's
// view lock — has been released.
func (e *engine) addSummaryApply(s Summary, ts *temporal.Signature) (*durableState, uint64, error) {
	e.mu.Lock()
	err := e.addSummaryLocked(s)
	var seq uint64
	if err == nil {
		// Journal under the same lock that ordered the in-memory apply, so
		// journal order always matches memory order; the fsync happens
		// outside the lock (commitSeq) and batches across goroutines.
		if seq, err = e.journalAddLocked(&s); err != nil {
			e.rollbackAddLocked(s.VideoID)
		}
	}
	if err == nil {
		e.registerLocked(s.VideoID, ts)
		err = e.maybeRebuildLocked()
	}
	dur := e.dur // snapshotted under the lock; see commitSeq
	e.mu.Unlock()
	return dur, seq, err
}

// registerLocked records an applied video's temporal signature; a nil ts
// (a video ingested without frames) registers nothing. Caller holds the
// write lock.
func (e *engine) registerLocked(videoID int, ts *temporal.Signature) {
	if ts != nil {
		e.tsigs[videoID] = ts
	}
}

// rollbackAddLocked undoes an addSummaryLocked whose journal append
// failed. Caller holds the write lock.
func (e *engine) rollbackAddLocked(videoID int) {
	// Undoing an apply that just succeeded; the journal error that forced
	// the rollback is what the caller sees.
	e.removeLocked(videoID)
}

// addSummaryLocked validates and stores one summary. Caller holds the
// write lock; the drift policy is the caller's responsibility so batch
// loads can evaluate it once.
func (e *engine) addSummaryLocked(s Summary) error {
	if s.VideoID < 0 {
		return fmt.Errorf("vitri: negative video id %d", s.VideoID)
	}
	if len(s.Triplets) == 0 {
		return fmt.Errorf("vitri: video %d has an empty summary", s.VideoID)
	}
	if e.ids[s.VideoID] {
		return fmt.Errorf("%w %d", ErrDuplicateID, s.VideoID)
	}
	if e.ix == nil {
		e.pending = append(e.pending, s)
		e.ids[s.VideoID] = true
		return nil
	}
	if err := e.ix.Insert(s); err != nil {
		return err
	}
	e.ids[s.VideoID] = true
	return nil
}

// applyBatch is AddBatch's apply phase on one shard: the summaries at
// indices mine (ascending, preserving input order) are validated,
// applied and journaled, with their temporal signatures (tsigs, parallel
// to summaries, nil entries allowed) registered, under a single mu hold,
// skipping slots whose itemErrs entry is already set and writing
// failures into their slots.
// Returns the commit ticket for the caller's group commit; the DB calls
// this concurrently on different shards with disjoint index sets, so the
// shared slices are written race-free.
func (e *engine) applyBatch(summaries []core.Summary, tsigs []*temporal.Signature, mine []int, itemErrs []error) (*durableState, uint64, error) {
	e.mu.Lock()
	var maxSeq uint64
	// A failed journal append poisons the writer: every later append can
	// only return the same sticky error. Once one item hits it, the
	// remaining items short-circuit to that error instead of churning
	// through apply → append → rollback each, which at batch scale is
	// thousands of pointless index mutations against a store that can no
	// longer acknowledge anything.
	var poisoned error
	for _, i := range mine {
		if itemErrs[i] != nil {
			continue
		}
		if poisoned != nil {
			itemErrs[i] = poisoned
			continue
		}
		if itemErrs[i] = e.addSummaryLocked(summaries[i]); itemErrs[i] != nil {
			continue
		}
		// Journal each accepted summary under the batch's single lock
		// acquisition; one Commit below fsyncs the whole batch (group
		// commit), so durability costs one fsync per batch, not per video.
		seq, jerr := e.journalAddLocked(&summaries[i])
		if jerr != nil {
			e.rollbackAddLocked(summaries[i].VideoID)
			itemErrs[i] = jerr
			// Append failures poison the writer; pick up the sticky error
			// (ErrPoisoned-wrapped) so the remaining slots report what a
			// real append attempt would have.
			if serr := e.dur.wal.Err(); serr != nil {
				poisoned = serr
			}
			continue
		}
		e.registerLocked(summaries[i].VideoID, tsigs[i])
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	batchErr := e.maybeRebuildLocked()
	dur := e.dur // snapshotted under the lock; see commitSeq
	e.mu.Unlock()
	return dur, maxSeq, batchErr
}

// removeApply is Remove's apply phase — journal then apply under one mu
// hold — returning the commit ticket for the caller to group-commit once
// every lock is released.
func (e *engine) removeApply(videoID int) (*durableState, uint64, error) {
	e.mu.Lock()
	var seq uint64
	err := func() error {
		if !e.ids[videoID] {
			return fmt.Errorf("%w: %d", ErrNotFound, videoID)
		}
		// Journal before applying: a removal has no cheap rollback. The
		// apply below only fails on an index-internal error that already
		// signals corruption, so the ordering's divergence window is moot.
		var jerr error
		if seq, jerr = e.journalRemoveLocked(videoID); jerr != nil {
			return jerr
		}
		return e.removeLocked(videoID)
	}()
	dur := e.dur // snapshotted under the lock; see commitSeq
	e.mu.Unlock()
	return dur, seq, err
}

// removeLocked deletes a video, and its temporal signature, from the
// in-memory state. Caller holds the write lock.
func (e *engine) removeLocked(videoID int) error {
	if !e.ids[videoID] {
		return fmt.Errorf("%w: %d", ErrNotFound, videoID)
	}
	if e.ix == nil {
		for i := range e.pending {
			if e.pending[i].VideoID == videoID {
				e.pending = append(e.pending[:i], e.pending[i+1:]...)
				break
			}
		}
	} else if err := e.ix.Remove(videoID); err != nil {
		return err
	}
	delete(e.ids, videoID)
	delete(e.tsigs, videoID)
	return nil
}

// ensureIndexLocked builds the index from pending summaries. Caller holds
// the write lock.
func (e *engine) ensureIndexLocked() error {
	if e.ix != nil {
		return nil
	}
	if len(e.pending) == 0 {
		return ErrEmptyDB
	}
	// Bulk-build from a canonical (VideoID-ascending) order: the mapper's
	// reference point and the packed tree then depend only on the set of
	// summaries, not the insertion sequence, which is what makes permuted
	// ingest orders — and shard routing, which permutes per-shard ingest
	// order — produce byte-identical indexes and PageReads.
	storefmt.SortSummaries(e.pending)
	iopts := index.Options{
		Epsilon:           e.opts.Epsilon,
		NewPager:          e.opts.NewPager,
		DisableSignatures: e.testNoSignatures,
		UnquantizedLeaves: e.testFloat64Leaves,
	}
	if e.testSpaceCenter {
		iopts.RefKind = refpoint.SpaceCenter
	}
	ix, err := index.Build(e.pending, iopts)
	if err != nil {
		return err
	}
	e.ix = ix
	e.pending = nil
	return nil
}

// maybeRebuildLocked applies the drift policy. Caller holds the write
// lock.
func (e *engine) maybeRebuildLocked() error {
	if e.opts.MaxDriftAngle <= 0 || e.ix == nil {
		return nil
	}
	_, err := e.ix.RebuildIfDrifted(e.opts.MaxDriftAngle)
	return err
}

// index returns the live index, building it from pending summaries on
// first use. The common case — the index already exists — takes only a
// read lock, so concurrent searches never serialize on the engine mutex.
func (e *engine) index() (*index.Index, error) {
	e.mu.RLock()
	ix := e.ix
	e.mu.RUnlock()
	if ix != nil {
		return ix, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return nil, err
	}
	return e.ix, nil
}

// build forces the lazy index build (ErrEmptyDB on an empty shard).
func (e *engine) build() error {
	_, err := e.index()
	return err
}

// searchSummary runs one query on this shard.
func (e *engine) searchSummary(q *Summary, k int, mode QueryMode) ([]Match, SearchStats, error) {
	ix, err := e.index()
	if err != nil {
		return nil, SearchStats{}, err
	}
	return ix.Search(q, k, mode)
}

// searchImage runs one image probe on this shard.
func (e *engine) searchImage(q *Summary, k int, mode QueryMode) ([]Match, SearchStats, error) {
	ix, err := e.index()
	if err != nil {
		return nil, SearchStats{}, err
	}
	return ix.SearchImage(q, k, mode)
}

// rebuild re-derives the reference point from this shard's contents and
// reconstructs its index.
func (e *engine) rebuild() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureIndexLocked(); err != nil {
		return err
	}
	return e.ix.Rebuild()
}

// temporalSig returns a video's registered temporal signature, nil when
// it has none. Signatures are immutable once registered.
func (e *engine) temporalSig(videoID int) *temporal.Signature {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tsigs[videoID]
}

func (e *engine) len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.ids)
}

// triplets counts this shard's ViTri records, indexed or still pending.
func (e *engine) triplets() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		n := 0
		for i := range e.pending {
			n += len(e.pending[i].Triplets)
		}
		return n
	}
	return e.ix.Len()
}

func (e *engine) driftAngle() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		return 0
	}
	return e.ix.DriftAngle()
}

func (e *engine) pagerStats() pager.Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		return pager.Stats{}
	}
	return e.ix.PagerStats()
}

// stats returns this shard's tree shape (zero before the index exists).
func (e *engine) stats() (IndexStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		return IndexStats{}, nil
	}
	ts, err := e.ix.TreeStats()
	if err != nil {
		return IndexStats{}, err
	}
	return IndexStats{
		Height:        ts.Height,
		InternalNodes: ts.InternalNodes,
		LeafNodes:     ts.LeafNodes,
		Entries:       ts.Entries,
		LeafFill:      ts.LeafFill,
	}, nil
}

func (e *engine) checkIndex() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		return nil
	}
	return e.ix.CheckTree()
}

// summaries snapshots this shard's contents: insertion order before the
// index exists, VideoID order after.
func (e *engine) summaries() ([]core.Summary, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		return append([]core.Summary(nil), e.pending...), nil
	}
	return e.ix.Summaries()
}

// checkRouting verifies every video this shard recovered routes to it —
// the open-time guard against a store whose shard directories were
// rearranged or copied between stores with different shard counts.
func (e *engine) checkRouting(i, n int) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for id := range e.ids {
		if home := shard.Route(id, n); home != i {
			return fmt.Errorf("vitri: open durable: video %d recovered in shard %d but routes to shard %d — shard layout is corrupt", id, i, home)
		}
	}
	return nil
}

// close releases the index's page store and, on a durable store, flushes
// and closes the journal. Idempotent.
func (e *engine) close() error {
	e.mu.Lock()
	dur := e.dur
	e.dur = nil
	var ierr error
	if e.ix != nil {
		ierr = e.ix.Close()
	}
	e.mu.Unlock()
	var jerr error
	if dur != nil {
		// The journal fsyncs on Close; do it outside mu so a slow sync
		// cannot stall readers racing the shutdown.
		jerr = dur.wal.Close()
	}
	if ierr != nil {
		return ierr
	}
	return jerr
}
