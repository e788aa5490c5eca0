// Package vitri implements ViTri, a video-sequence similarity search
// engine after Shen, Ooi and Zhou, "Towards Effective Indexing for Very
// Large Video Sequence Database" (SIGMOD 2005).
//
// A video is a sequence of high-dimensional frame feature vectors (for
// example the 64-dimensional RGB histograms produced by this module's
// feature extractor). Each video is summarized into a handful of Video
// Triplets — (position, radius, density) hyperspheres over clusters of
// similar frames — and the similarity of two videos is the estimated
// number of similar frames their triplets share. Triplets are indexed by
// a PCA-optimal one-dimensional transformation over a paged B+-tree, so a
// KNN query touches only a fraction of the database.
//
// Typical use:
//
//	db := vitri.New(vitri.Options{Epsilon: 0.3})
//	for id, frames := range videos {
//		if err := db.Add(id, frames); err != nil { ... }
//	}
//	matches, err := db.Search(queryFrames, 10)
//
// The zero-cost entry points Summarize and Similarity are available for
// working with summaries directly, without a database.
package vitri

import (
	"errors"
	"fmt"
	"sync"

	"vitri/internal/baseline"
	"vitri/internal/core"
	"vitri/internal/index"
	"vitri/internal/pager"
	"vitri/internal/temporal"
	"vitri/internal/vec"
)

// Vector is one frame's feature vector.
type Vector = vec.Vector

// Summary is a video's ViTri summary.
type Summary = core.Summary

// ViTri is one video triplet (position, radius, density).
type ViTri = core.ViTri

// Match is one search result: a video id with its estimated similarity.
type Match = index.Result

// SearchStats reports the work one query performed.
type SearchStats = index.SearchStats

// QueryMode selects the KNN range processing strategy (§5.2). Its zero
// value is Naive, the paper's baseline, not Composed: a caller that wants
// query composition must pass Composed. Both return identical rankings;
// they differ only in page reads.
type QueryMode = index.Mode

// Query processing modes.
const (
	// Naive issues one B+-tree range search per query triplet. It is
	// QueryMode's zero value.
	Naive = index.Naive
	// Composed merges overlapping ranges first (query composition), so
	// every leaf page is read at most once per query. It is what the HTTP
	// server uses when a request names no mode.
	Composed = index.Composed
)

// Sentinel errors for callers (such as the HTTP server) that need to map
// failures onto response categories. Matched with errors.Is.
var (
	// ErrDuplicateID reports an Add/AddSummary whose video id is already
	// in the database.
	ErrDuplicateID = errors.New("vitri: duplicate video id")
	// ErrNotFound reports a Remove of a video id not in the database.
	ErrNotFound = errors.New("vitri: video not found")
	// ErrEmptyDB reports a search against a database with no videos.
	ErrEmptyDB = errors.New("vitri: database is empty")
)

// Options configures a database. No option selects the reference point:
// every shard keys its triplets by the paper's Theorem 1 O′, fitted to the
// triplets it holds.
type Options struct {
	// Epsilon is the frame similarity threshold ε: two frames are
	// considered similar when their Euclidean distance is at most ε.
	// It controls the summarization granularity and the index search
	// radius. Must be positive. The paper operates at 0.3 for
	// 64-dimensional normalized RGB histograms.
	Epsilon float64
	// Seed drives summarization's clustering; fixed seeds give fully
	// deterministic databases.
	Seed int64
	// MaxDriftAngle, when positive, makes mutating operations rebuild
	// the index automatically once the first principal component of the
	// indexed data has drifted this many radians from the one the
	// reference point was derived with (§6.3.3).
	MaxDriftAngle float64
	// NewPager overrides page-store construction (e.g. pager.OpenFile
	// for a disk-backed index). The default keeps pages in memory.
	NewPager func() pager.Pager
	// Durable tunes the durable store; see OpenDurable. Ignored by New —
	// durability exists only on databases opened with OpenDurable.
	Durable *DurableOptions
	// Shards splits the database into this many independent shards, each
	// with its own index, pager and (when durable) journal + snapshot.
	// Mutations route by a stable hash of the video id; searches scatter
	// across every shard and merge the per-shard top-k. Results are
	// byte-identical at every shard count (see shard_equiv_test.go); what
	// changes is contention: shards multiply index, cache and fsync
	// bandwidth. 0 means 1: the same router over a single engine, whose
	// durable store is the flat snapshot + journal directory of earlier
	// versions (the one shard's directory is the store root, and a store
	// of one has no manifest). A durable store's shard count is fixed at
	// creation — recorded in its manifest when above 1 — and later opens
	// must pass the same value or 0 to adopt it.
	Shards int
}

// DB is a searchable video database. All methods are safe for concurrent
// use.
//
// A DB is a router over one or more shards, each a complete engine (its
// own index, page store and — when durable — snapshot + journal).
// Mutations route to a video's home shard by a stable hash of its id;
// searches scatter to every shard and merge the per-shard top-k;
// cross-shard reads aggregate under the view lock. Options.Shards 0 or 1
// is the one-element case of the same paths, not a separate shape.
type DB struct {
	// ckptMu serializes checkpoints. It is level 0, the top of the lock
	// hierarchy (checkpoint → shard-view → engine → Index → Tree → pager,
	// enforced by vitrilint's lockorder): Checkpoint acquires ckptMu
	// first and then takes viewMu and the engines' mu only for its short
	// capture/finish critical sections — never acquire ckptMu while
	// holding either.
	ckptMu sync.Mutex
	// viewMu (level 1) makes cross-shard reads consistent. Its roles are
	// inverted from the usual convention: mutations hold it SHARED for
	// their whole apply window (they may proceed concurrently — each
	// shard's engine.mu serializes them where it matters), while
	// cross-shard snapshot readers (Len, Triplets, DriftAngle, Stats,
	// Save) and the checkpoint capture hold it EXCLUSIVELY, so they
	// observe every batch fully applied or not at all — never a batch
	// torn across shards. Never held across an fsync.
	viewMu sync.RWMutex
	opts   Options // immutable after New
	// shards holds the engines, at least one. A video lives in
	// shards[shard.Route(id, len(shards))]. immutable after New
	shards []*engine
	// store is the durable store's router-level bookkeeping: the root
	// directory, the manifest (when the store has one) and the
	// checkpoint count. Non-nil only on databases returned by
	// OpenDurable. immutable after OpenDurable
	store *storeState

	// Test hooks, unset outside tests and set before any checkpoint or
	// batch runs (read without synchronization); the per-shard checkpoint
	// window hooks live on engine.
	//
	// testNonAtomicManifest makes the checkpoint overwrite the manifest
	// in place instead of via temp file + rename. The crash suite flips
	// it to prove the manifest commit's atomicity is load-bearing: with
	// it, a power cut mid-write leaves the store unopenable.
	testNonAtomicManifest bool // immutable once serving
	// testBetweenShardApplies, when set, serializes an AddBatch's
	// per-shard applies and runs between them — inside the window where a
	// batch is torn across shards. The view-lock regression test uses it
	// to prove Len cannot observe that window.
	testBetweenShardApplies func() // immutable once serving
}

// New creates an empty database. It panics if opts.Epsilon is not
// positive — a database without a similarity threshold is meaningless.
// opts.Shards sets the number of independent engines the database routes
// across (0 means 1); see Options.Shards.
func New(opts Options) *DB {
	if opts.Epsilon <= 0 {
		panic("vitri: Options.Epsilon must be positive")
	}
	db := &DB{opts: opts}
	for i := 0; i < max(opts.Shards, 1); i++ {
		db.shards = append(db.shards, newEngine(opts))
	}
	return db
}

// Summarize builds a video's ViTri summary: frames are clustered with the
// paper's recursive binary algorithm until every cluster is a hypersphere
// of radius at most ε/2.
func Summarize(videoID int, frames []Vector, epsilon float64, seed int64) Summary {
	return core.Summarize(videoID, frames, core.Options{Epsilon: epsilon, Seed: seed})
}

// Similarity estimates the similarity of two summarized videos in [0, 1]:
// the estimated number of similar frames they share, normalized by their
// total frame count (§3.1 of the paper, computed on summaries).
func Similarity(a, b *Summary) float64 {
	return core.VideoSimilarity(a, b)
}

// ExactSimilarity computes the exact frame-level measure the estimates
// approximate. O(len(x)·len(y)); intended for ground truth and testing.
func ExactSimilarity(x, y []Vector, epsilon float64) float64 {
	return baseline.ExactSimilarity(x, y, epsilon)
}

// Add summarizes a video and adds it to the database. Video ids must be
// unique and non-negative.
func (db *DB) Add(videoID int, frames []Vector) error {
	if len(frames) == 0 {
		return fmt.Errorf("vitri: video %d has no frames", videoID)
	}
	s := core.Summarize(videoID, frames, core.Options{
		Epsilon: db.opts.Epsilon,
		Seed:    db.opts.Seed + int64(videoID),
	})
	// Only frame-bearing ingest paths can record shot order; bare
	// summaries (AddSummary, recovery) cannot, and SearchTemporal keeps
	// their order-blind score. The signature is derived before the apply
	// so it is registered in the same critical section as the summary.
	return db.addSummary(s, temporalSig(frames, &s))
}

// AddSummary adds a pre-computed summary (e.g. produced offline or loaded
// from storage). On a durable database the summary is journaled and
// AddSummary returns only once the record is fsynced to disk.
func (db *DB) AddSummary(s Summary) error {
	return db.addSummary(s, nil)
}

// addSummary applies s, with its temporal signature ts when non-nil, on
// its home shard and group-commits it.
func (db *DB) addSummary(s Summary, ts *temporal.Signature) error {
	// The apply runs under a shared view-lock hold (consistent with batch
	// applies; see DB.viewMu), the group commit after every lock is
	// released.
	db.viewMu.RLock()
	dur, seq, err := db.home(s.VideoID).addSummaryApply(s, ts)
	db.viewMu.RUnlock()
	if err != nil {
		return err
	}
	return dur.commitSeq(seq)
}

// Search summarizes the query frames and returns the k most similar
// videos with composed query processing.
func (db *DB) Search(frames []Vector, k int) ([]Match, error) {
	if len(frames) == 0 {
		return nil, errors.New("vitri: empty query")
	}
	q := core.Summarize(-1, frames, core.Options{Epsilon: db.opts.Epsilon, Seed: db.opts.Seed})
	res, _, err := db.SearchSummary(&q, k, Composed)
	return res, err
}

// SearchSummary runs a KNN query for a pre-summarized video in the given
// mode, returning the matches and the query's work statistics. Stats are
// attributed per query and exact under concurrent searches: the exact sum
// of the per-shard counters.
func (db *DB) SearchSummary(q *Summary, k int, mode QueryMode) ([]Match, SearchStats, error) {
	return db.scatter(k, true, func(e *engine) ([]Match, SearchStats, error) {
		return e.searchSummary(q, k, mode)
	})
}

// BatchResult is one query's outcome in a SearchBatch call.
type BatchResult = index.BatchItem

// SearchBatch pipelines many pre-summarized queries through a worker
// pool of GOMAXPROCS goroutines and returns one BatchResult per query, in
// input order. Each query runs sequentially inside its worker — shard
// after shard, range after range — so concurrency lives at the query
// grain where it pays, not in nested pools. It only fails as a whole when
// the database is empty; per-query failures land in the corresponding
// slot.
func (db *DB) SearchBatch(queries []Summary, k int, mode QueryMode) ([]BatchResult, error) {
	// Force lazy index builds now so per-query work starts from a built
	// index.
	if err := db.forceBuild(); err != nil {
		return nil, err
	}
	return index.SearchBatch(len(queries), func(i int) BatchResult {
		res, stats, err := db.scatter(k, false, func(e *engine) ([]Match, SearchStats, error) {
			return e.searchSummary(&queries[i], k, mode)
		})
		return BatchResult{Results: res, Stats: stats, Err: err}
	}), nil
}

// Len returns the number of videos in the database, from one consistent
// cross-shard snapshot: a concurrent AddBatch is counted fully or not at
// all, never partially.
func (db *DB) Len() int {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	n := 0
	for _, e := range db.shards {
		n += e.len()
	}
	return n
}

// Triplets returns the number of ViTri records the database holds, from
// one consistent cross-shard snapshot, like Len.
func (db *DB) Triplets() int {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	n := 0
	for _, e := range db.shards {
		n += e.triplets()
	}
	return n
}

// DriftAngle reports the current principal-direction drift in radians
// (0 before the index exists or for non-Optimal reference points): the
// worst (largest) drift across the shards, from one consistent
// cross-shard snapshot.
func (db *DB) DriftAngle() float64 {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	worst := db.shards[0].driftAngle()
	for _, e := range db.shards[1:] {
		worst = max(worst, e.driftAngle())
	}
	return worst
}

// Rebuild re-derives the reference point from current contents and
// reconstructs the index; every non-empty shard rebuilds its own.
// ErrEmptyDB when the database holds nothing.
func (db *DB) Rebuild() error {
	db.viewMu.RLock()
	defer db.viewMu.RUnlock()
	return db.eachNonEmpty((*engine).rebuild)
}

// PagerStats returns physical page I/O counters of the index's page
// stores (zeroes before an index exists), summed across shards.
func (db *DB) PagerStats() pager.Stats {
	var agg pager.Stats
	for _, e := range db.shards {
		ps := e.pagerStats()
		agg.Reads += ps.Reads
		agg.Writes += ps.Writes
		agg.Allocs += ps.Allocs
	}
	return agg
}

// Epsilon returns the database's frame similarity threshold.
func (db *DB) Epsilon() float64 { return db.opts.Epsilon }

// Seed returns the database's summarization seed (queries summarized
// outside the DB should use it to reproduce Search's behavior exactly).
func (db *DB) Seed() int64 { return db.opts.Seed }

// Close releases the database's index resources, closing the underlying
// page stores, and — on a durable database — flushes and closes the
// journals; the database reports Durable() == false from then on.
// Operations after Close fail with the pager's ErrClosed; callers serving
// concurrent traffic must drain in-flight searches first (see
// internal/server's lifecycle). Close is idempotent and returns nil on a
// database whose index was never built. Every shard is closed; the first
// failure is returned.
func (db *DB) Close() error {
	var first error
	for _, e := range db.shards {
		if err := e.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// IndexStats describes the physical shape of the database's B+-tree.
type IndexStats struct {
	Height        int
	InternalNodes int
	LeafNodes     int
	Entries       int64
	LeafFill      float64
}

// Stats returns the index's physical shape (zero value before the index
// has been built), aggregated over the per-shard trees under one
// consistent cross-shard snapshot: node and entry counts sum, Height is
// the tallest shard's, LeafFill is the leaf-count-weighted mean.
func (db *DB) Stats() (IndexStats, error) {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	var agg IndexStats
	for _, e := range db.shards {
		st, err := e.stats()
		if err != nil {
			return IndexStats{}, err
		}
		agg.Height = max(agg.Height, st.Height)
		agg.InternalNodes += st.InternalNodes
		agg.Entries += st.Entries
		if st.LeafNodes == 0 {
			continue
		}
		// Running weighted mean, mean += (x-mean)·w/W. The weight ratio is
		// formed first so that a lone shard's fill survives bit-for-bit:
		// w/W is exactly 1 there, where Σ(fill·leaves)/Σleaves would round.
		agg.LeafNodes += st.LeafNodes
		agg.LeafFill += float64((st.LeafFill - agg.LeafFill) * (float64(st.LeafNodes) / float64(agg.LeafNodes)))
	}
	return agg, nil
}

// CheckIndex verifies the index's structural invariants (for diagnostics
// and tests). A nil error means every shard's B+-tree is internally
// consistent.
func (db *DB) CheckIndex() error {
	for i, e := range db.shards {
		if err := e.checkIndex(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
