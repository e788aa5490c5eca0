package index

import (
	"errors"
	"sort"

	"vitri/internal/core"
)

// SearchImage runs a query-by-image probe: the query summary's triplets
// (for an image, the single triplet a one-frame video summarizes to) are
// driven through the exact scan pipeline whole-video KNN uses — B+-tree
// range scans at γ = r_q + ε/2, the signature pre-filter gate, exact
// float64 catalog geometry — but each video is ranked by its BEST
// matching (query triplet, db triplet) cell instead of the clamped §3.1
// sum: the image's score against a video is the estimated shared-frame
// count of the triplet that explains the frame best. For a single-frame
// probe that value is in (0, 1] (SharedFrames clamps at the probe's
// frame count of 1), so Similarity doubles as a match confidence.
//
// Because the best-cell fold is a max over canonical cells — each cell
// written by exactly one evaluation — the ranking is a pure function of
// (query, video contents): identical run to run, across any sharding of
// the database, and with the pre-filter on or off. Results sort by
// Similarity descending, video id ascending, like every other ranking in
// the engine, so scatter-gather merges are order-compatible. Stats carry
// the same contract as Search: exact per-query PageReads, and
// SimilarityOps + SignatureSkips invariant under the signature tier.
//
// The trailing ints are ignored. bench/twin.go, which this change may not
// edit, still passes the former intra-query parallelism argument; every
// other caller passes three arguments.
func (ix *Index) SearchImage(q *core.Summary, k int, mode Mode, _ ...int) ([]Result, SearchStats, error) {
	if k <= 0 {
		return nil, SearchStats{}, errors.New("index: k must be positive")
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	if len(q.Triplets) == 0 {
		return nil, SearchStats{}, nil
	}
	_, scores, stats, err := ix.scanQueryLocked(q, mode)
	if err != nil {
		return nil, SearchStats{}, err
	}
	return rankImage(scores, k), stats, nil
}

// rankImage turns accumulated scores into the image probe's top-k: per
// video, the maximum cell value. Max is order-independent, so unlike
// rankLocked no canonical fold order is needed for determinism.
func rankImage(scores map[int32]*videoScore, k int) []Result {
	results := make([]Result, 0, len(scores))
	for vid, vs := range scores {
		var best float64
		for _, v := range vs.cells {
			if v > best {
				best = v
			}
		}
		if best <= 0 {
			continue
		}
		results = append(results, Result{VideoID: int(vid), Similarity: best, Shared: best})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Similarity != results[j].Similarity {
			return results[i].Similarity > results[j].Similarity
		}
		return results[i].VideoID < results[j].VideoID
	})
	if len(results) > k {
		results = results[:k]
	}
	return results
}
