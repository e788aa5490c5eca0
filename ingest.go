package vitri

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vitri/internal/core"
	"vitri/internal/temporal"
)

// Video pairs a video id with its frame feature vectors, the unit of work
// of the batch ingest pipeline.
type Video struct {
	ID     int
	Frames []Vector
}

// AddBatch summarizes many videos concurrently and adds them to the
// database in input order. Summarization — the CPU-bound phase — fans out
// over GOMAXPROCS workers, each owning a reusable allocation-free
// clustering scratch; the merge then partitions the summaries by home
// shard and applies each shard's share in input order under a single
// hold of that shard's lock.
//
// The result is byte-identical to calling Add for each video in the same
// order, at every worker count: each video's summary is seeded from
// (Options.Seed, video id) alone, scratch reuse never leaks into results,
// and the ordered merge replays the sequential insertion sequence. The
// only intentional difference is the index-drift policy, which is
// evaluated once per batch instead of once per video (identical when
// Options.MaxDriftAngle is zero, the default).
//
// The returned slice has one entry per input video: nil for success, or
// the same error the corresponding Add would have returned (no frames,
// negative id, duplicate id — including duplicates within the batch, of
// which the first wins). The second return value reports batch-level
// failures (the drift-triggered rebuild, or a failed durable group
// commit); per-item failures never abort the rest of the batch. If the
// group commit fails, every item it covered gets the commit error in its
// slot too — a nil item error always means the insert is durable.
func (db *DB) AddBatch(videos []Video) ([]error, error) {
	if len(videos) == 0 {
		return nil, nil
	}
	summaries, tsigs, itemErrs := db.summarizeBatch(videos)
	return db.addBatch(summaries, tsigs, itemErrs)
}

// summarizeBatch is AddBatch's CPU-bound phase: one summary and one
// temporal signature per video (what Add derives for a single insert),
// computed by the worker pool, with per-item validation errors in the
// matching itemErrs slots. It touches no database state beyond the
// immutable options, so it runs once for all shards.
func (db *DB) summarizeBatch(videos []Video) ([]core.Summary, []*temporal.Signature, []error) {
	summaries := make([]core.Summary, len(videos))
	tsigs := make([]*temporal.Signature, len(videos))
	itemErrs := make([]error, len(videos))
	workers := min(runtime.GOMAXPROCS(0), len(videos))
	// Workers claim videos from an atomic cursor. Which worker summarizes
	// which video is racy, but irrelevant to the output: a summary depends
	// only on (frames, epsilon, per-video seed), never on the worker's
	// scratch history.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sz core.Summarizer
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(videos) {
					return
				}
				v := videos[i]
				if len(v.Frames) == 0 {
					itemErrs[i] = fmt.Errorf("vitri: video %d has no frames", v.ID)
					continue
				}
				summaries[i] = sz.Summarize(v.ID, v.Frames, core.Options{
					Epsilon: db.opts.Epsilon,
					Seed:    db.opts.Seed + int64(v.ID),
				})
				tsigs[i] = temporalSig(v.Frames, &summaries[i])
			}
		}()
	}
	wg.Wait()
	return summaries, tsigs, itemErrs
}

// BuildParallel summarizes videos across a worker pool, bulk-loads them
// and builds the index, returning a database ready to search. It is the
// batch counterpart of New + an Add loop + a first Search, and produces a
// byte-identical database. Any per-video or build failure fails the whole
// construction; partial loads are reported via errors.Join.
func BuildParallel(videos []Video, opts Options) (*DB, error) {
	db := New(opts)
	itemErrs, err := db.AddBatch(videos)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(itemErrs...); err != nil {
		return nil, err
	}
	if len(videos) > 0 {
		// Force the bulk index build now so the first search doesn't pay
		// for it.
		if err := db.forceBuild(); err != nil {
			return nil, err
		}
	}
	return db, nil
}
