package vitri

import (
	"errors"
	"sort"
	"sync"

	"vitri/internal/core"
	"vitri/internal/shard"
	"vitri/internal/temporal"
)

// Shard routing: DB.shards holds one or more independent engines and the
// helpers here route, scatter and aggregate across them.
//
//   - Mutations route by shard.Route(videoID, N) — a stable hash, so a
//     video's home shard never changes and a durable store's journals
//     stay self-consistent across restarts.
//   - Searches scatter to every shard and merge the per-shard top-k.
//     Similarities are canonical (see internal/index's cell fold), so the
//     merged ranking is byte-identical at every shard count; the
//     tie-break (higher similarity first, then lower video id) is the
//     same total order rankLocked uses.
//   - Cross-shard reads (Len, Triplets, DriftAngle, Stats, Save, the
//     checkpoint capture) take viewMu exclusively while mutations hold it
//     shared for their whole apply window, so no reader ever observes a
//     batch half-applied across shards.
//
// One shard is the degenerate case of all three, not a bypass: fanOut
// runs shard 0 on the caller's goroutine, so a one-shard search spawns
// nothing and pays one k-element merge.
//
// The equivalence contract — matches, similarities, shared-frame counts
// and aggregate stats byte-identical to a bare, router-free engine at
// every shard count — is enforced by shard_equiv_test.go; the crash
// contract (per-shard journals plus an atomically committed manifest
// survive a power cut at every write boundary) by shard_crash_test.go.

// home returns the engine a video id routes to.
func (db *DB) home(videoID int) *engine {
	return db.shards[shard.Route(videoID, len(db.shards))]
}

// fanOut runs fn(i) for every shard i and returns when all have
// finished: shard 0 on the caller's goroutine and, when concurrent, each
// further shard on its own; otherwise every shard in order on the caller.
func (db *DB) fanOut(concurrent bool, fn func(i int)) {
	if !concurrent {
		for i := range db.shards {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < len(db.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	fn(0)
	wg.Wait()
}

// eachNonEmpty runs fn on every shard in order, stopping at the first
// failure. An empty shard (fn reports ErrEmptyDB) is skipped; the call
// fails with ErrEmptyDB only when every shard is empty — the rule scatter
// applies to searches.
func (db *DB) eachNonEmpty(fn func(*engine) error) error {
	empty := 0
	for _, e := range db.shards {
		switch err := fn(e); {
		case err == nil:
		case errors.Is(err, ErrEmptyDB):
			empty++
		default:
			return err
		}
	}
	if empty == len(db.shards) {
		return ErrEmptyDB
	}
	return nil
}

// forceBuild builds every lazy index now (empty shards stay empty), so a
// bulk constructor's first search doesn't pay for construction.
func (db *DB) forceBuild() error {
	return db.eachNonEmpty((*engine).build)
}

// commitTicket is one shard's pending group commit after a batch apply.
type commitTicket struct {
	dur    *durableState
	maxSeq uint64
	err    error
}

// addBatch applies a summarized batch, with its temporal signatures,
// across shards. Items partition by home shard in input order (so
// first-wins duplicate semantics inside a shard match a sequential Add
// loop; cross-shard duplicates cannot exist — equal ids share a home). The per-shard applies run concurrently
// under one shared view-lock hold, then each shard group-commits its own
// journal concurrently — independent fsync streams are exactly where
// sharding multiplies ingest bandwidth.
func (db *DB) addBatch(summaries []core.Summary, tsigs []*temporal.Signature, itemErrs []error) ([]error, error) {
	n := len(db.shards)
	byShard := make([][]int, n)
	for i := range summaries {
		if itemErrs[i] != nil {
			continue
		}
		si := shard.Route(summaries[i].VideoID, n)
		byShard[si] = append(byShard[si], i)
	}
	tickets := make([]commitTicket, n)
	// With the test hook set the applies run shard by shard, the hook
	// between them — inside the window where the batch is torn across
	// shards.
	hook := db.testBetweenShardApplies
	db.viewMu.RLock()
	db.fanOut(hook == nil, func(si int) {
		if len(byShard[si]) > 0 {
			d, mx, e := db.shards[si].applyBatch(summaries, tsigs, byShard[si], itemErrs)
			tickets[si] = commitTicket{dur: d, maxSeq: mx, err: e}
		}
		if hook != nil {
			hook()
		}
	})
	db.viewMu.RUnlock()

	// Group-commit every shard's journal concurrently, after the view
	// lock is released (an fsync must never stall snapshot readers).
	commitErrs := make([]error, n)
	db.fanOut(true, func(si int) {
		commitErrs[si] = tickets[si].dur.commitSeq(tickets[si].maxSeq)
	})

	var batchErr error
	for si := 0; si < n; si++ {
		if tickets[si].err != nil && batchErr == nil {
			batchErr = tickets[si].err
		}
		cerr := commitErrs[si]
		if cerr == nil {
			continue
		}
		// A failed shard commit covers exactly that shard's journaled
		// items: none of them is durable, so the failure surfaces in each
		// of their slots — a nil item error always means durable.
		for _, i := range byShard[si] {
			if itemErrs[i] == nil {
				itemErrs[i] = cerr
			}
		}
		if batchErr == nil {
			batchErr = cerr
		}
	}
	return itemErrs, batchErr
}

// scatter runs one per-shard search closure on every shard and merges
// the per-shard top-k — the fan-out skeleton every query shape shares.
// Correctness of merge-then-truncate: each video lives in exactly one
// shard and its similarity is canonical, so the global top-k is a subset
// of the union of per-shard top-ks; the closure must rank by the engine's
// canonical total order (similarity descending, id ascending). An empty
// shard is skipped; the search fails with ErrEmptyDB only when every
// shard is empty. Stats are the exact sum of the per-shard counters (each
// shard attributes page reads per query).
func (db *DB) scatter(k int, concurrent bool, run func(e *engine) ([]Match, SearchStats, error)) ([]Match, SearchStats, error) {
	type shardOut struct {
		res   []Match
		stats SearchStats
		err   error
	}
	outs := make([]shardOut, len(db.shards))
	db.fanOut(concurrent, func(i int) {
		o := &outs[i]
		o.res, o.stats, o.err = run(db.shards[i])
	})
	var stats SearchStats
	empty := 0
	parts := make([][]Match, 0, len(outs))
	for i := range outs {
		switch {
		case outs[i].err == nil:
			stats.Ranges += outs[i].stats.Ranges
			stats.Candidates += outs[i].stats.Candidates
			stats.SimilarityOps += outs[i].stats.SimilarityOps
			stats.SignatureSkips += outs[i].stats.SignatureSkips
			stats.PageReads += outs[i].stats.PageReads
			parts = append(parts, outs[i].res)
		case errors.Is(outs[i].err, ErrEmptyDB):
			empty++
		default:
			return nil, SearchStats{}, outs[i].err
		}
	}
	if empty == len(db.shards) {
		return nil, SearchStats{}, ErrEmptyDB
	}
	return mergeTopK(parts, k), stats, nil
}

// mergeTopK merges per-shard ranked lists into the global top-k using
// the same total order the per-shard ranking sorts by: similarity
// descending, then video id ascending. Returns nil when no shard
// produced a match, like an engine search with no candidates.
func mergeTopK(parts [][]Match, k int) []Match {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	all := make([]Match, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Similarity != all[j].Similarity {
			return all[i].Similarity > all[j].Similarity
		}
		return all[i].VideoID < all[j].VideoID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
