package index

import (
	"errors"
	"fmt"
	"sort"

	"vitri/internal/core"
	"vitri/internal/pager"
	"vitri/internal/refpoint"
	"vitri/internal/sig"
)

// Mode selects the KNN range-processing strategy of §5.2. The zero value
// is Naive, the paper's baseline; both modes return identical rankings.
type Mode int

const (
	// Naive issues one B+-tree range search per query triplet, re-reading
	// any leaf pages shared by overlapping ranges.
	Naive Mode = iota
	// Composed merges overlapping ranges first so every leaf page is
	// fetched at most once per query (query composition).
	Composed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Naive:
		return "naive"
	case Composed:
		return "composed"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Result is one ranked video.
type Result struct {
	VideoID int
	// Similarity is the estimated §3.1 video similarity in [0, 1].
	Similarity float64
	// Shared is the un-normalized estimated shared-frame count.
	Shared float64
}

// SearchStats reports the work a query performed. PageReads counts
// physical page reads attributable to this search; SimilarityOps counts
// ViTri-pair similarity evaluations (the paper's CPU-cost proxy);
// SignatureSkips counts covered candidate evaluations the signature
// pre-filter tier proved zero-shared and discarded before the exact
// geometry — SimilarityOps + SignatureSkips is invariant under the tier
// being on or off. Every counter is accumulated per query — PageReads in
// particular is exact even with any number of concurrent searches on the
// same index, because each scan carries its own pager.ScanStats instead
// of diffing the pager's shared counters.
type SearchStats struct {
	Ranges         int
	Candidates     int
	SimilarityOps  int
	SignatureSkips int
	PageReads      uint64
}

// queryTriplet is a prepared query-side triplet with its 1-D search
// ranges (one for single-reference mappers, up to one per partition for
// the iDistance mapper) and, when the signature tier is on, its point
// signature for the pre-filter gate.
type queryTriplet struct {
	vt     *core.ViTri
	ranges []refpoint.KeyRange
	psig   *sig.Signature
}

// covers reports whether any of the triplet's ranges contains key.
func (qt *queryTriplet) covers(key float64) bool {
	for _, r := range qt.ranges {
		if key >= r.Lo && key <= r.Hi {
			return true
		}
	}
	return false
}

// videoScore accumulates per-video similarity evidence as canonical
// (query triplet, db cluster) cells. Each cell is written by exactly one
// (query triplet, record) evaluation — scan ranges for one triplet are
// disjoint, and a video's cluster ordinal names one record — so the cell
// map is a pure function of (query, video contents), independent of scan
// order, task split, or how the key space was mapped. That independence
// is what lets a sharded database reproduce the single-index engine's
// similarities bit for bit: rankLocked folds the cells in a canonical
// order of its own choosing.
type videoScore struct {
	cells  map[int64]float64 // cellKey(qi, cn) -> shared frames
	dbCnts map[int32]int32   // db cluster ordinal -> |C|
}

// cellKey packs a query triplet index and a db cluster ordinal into one
// map key: qi in the high 32 bits, cn (as unsigned) in the low 32.
func cellKey(qi int, cn int32) int64 {
	return int64(qi)<<32 | int64(uint32(cn))
}

// scanTask is one disjoint B+-tree range scan: the 1-D interval plus the
// query triplets to evaluate candidates against. Naive mode emits one
// task per triplet range; composed mode emits one task per merged
// interval.
type scanTask struct {
	lo, hi  float64
	members []int
}

// Search returns the top-k most similar videos to the summarized query.
// The query's own video id, if indexed, participates like any other video.
// A query's range scans run in order on the caller's goroutine; callers
// with many queries parallelise across them (SearchBatch).
func (ix *Index) Search(q *core.Summary, k int, mode Mode) ([]Result, SearchStats, error) {
	if k <= 0 {
		return nil, SearchStats{}, errors.New("index: k must be positive")
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	if len(q.Triplets) == 0 {
		return nil, SearchStats{}, nil
	}
	qts, scores, stats, err := ix.scanQueryLocked(q, mode)
	if err != nil {
		return nil, SearchStats{}, err
	}
	return ix.rankLocked(q, qts, scores, k), stats, nil
}

// scanQueryLocked is the scan pipeline every query shape shares: prepare
// the query triplets (1-D ranges plus, when the tier is on, point
// signatures), build the mode's disjoint scan tasks and run them in order
// into one canonical cell map per video. Only the final ranking differs
// between whole-video KNN (rankLocked's clamped two-sided fold) and the
// image probe (rankImage's best-cell fold) — both consume this function's
// output, so the stats contract (exact per-query PageReads, SimilarityOps
// + SignatureSkips invariant under the tier) holds for every workload by
// construction. Caller holds at least a read lock and has checked q is
// non-empty.
func (ix *Index) scanQueryLocked(q *core.Summary, mode Mode) ([]queryTriplet, map[int32]*videoScore, SearchStats, error) {
	var stats SearchStats
	cellW := sig.CellWidth(ix.opts.Epsilon)
	qts := make([]queryTriplet, len(q.Triplets))
	for i := range q.Triplets {
		vt := &q.Triplets[i]
		if len(vt.Position) != ix.dim {
			return nil, nil, stats, fmt.Errorf("index: query dimensionality %d, index is %d", len(vt.Position), ix.dim)
		}
		qts[i] = queryTriplet{
			vt:     vt,
			ranges: ix.tr.Ranges(vt.Position, vt.Radius+float64(ix.opts.Epsilon/2)),
		}
		if !ix.opts.DisableSignatures {
			qts[i].psig = sig.FromTriplet(vt.Position, vt.Radius, cellW)
		}
	}

	var tasks []scanTask
	switch mode {
	case Naive:
		for qi := range qts {
			for _, kr := range qts[qi].ranges {
				tasks = append(tasks, scanTask{lo: kr.Lo, hi: kr.Hi, members: []int{qi}})
			}
		}
	case Composed:
		for _, iv := range composeRanges(qts) {
			tasks = append(tasks, scanTask{lo: iv.lo, hi: iv.hi, members: iv.members})
		}
	default:
		return nil, nil, stats, fmt.Errorf("index: unknown mode %v", mode)
	}

	// Scores are canonical (qi, cluster) cells — see videoScore — so the
	// order tasks run in, and how a database is sharded, cannot change the
	// ranked output.
	scores := make(map[int32]*videoScore)
	for i := range tasks {
		if err := ix.runTask(qts, &tasks[i], scores, &stats); err != nil {
			return nil, nil, stats, err
		}
	}
	return qts, scores, stats, nil
}

// runTask scans one disjoint range and accumulates candidate evidence
// into the query's score map. Page reads are attributed to this query
// via a scan-local counter, never the pager's shared one.
//
// The exact triplet for a record comes from the catalog, not the leaf
// bytes: leaf records may be float32-quantized (Options.UnquantizedLeaves
// unset), and similarity must fold full-precision float64 values to stay
// byte-identical across encodings and sharding. A record with no catalog
// entry (the orphan residue of a doubly-failed insert) is skipped — with
// no entry it could never be ranked anyway. A record that does not decode
// is corruption and fails the query.
//
// Between range coverage and the exact geometry sits the signature gate:
// first the video-level signature (union planes, max radius), then the
// per-triplet one. A prune at either level is a proof that this (query
// triplet, record) pair shares zero frames (sig.Prune), so skipping it
// leaves every score cell — and therefore every returned result — exactly
// as the ungated engine would produce. Skips are counted so
// SimilarityOps + SignatureSkips stays invariant under the gate.
func (ix *Index) runTask(qts []queryTriplet, tk *scanTask, scores map[int32]*videoScore, stats *SearchStats) error {
	stats.Ranges++
	var (
		rec    Record
		sc     pager.ScanStats
		decErr error
	)
	cellW := sig.CellWidth(ix.opts.Epsilon)
	err := ix.tree.RangeScanStats(tk.lo, tk.hi, &sc, func(key float64, val []byte) bool {
		if err := ix.decodeRec(val, &rec); err != nil {
			decErr = fmt.Errorf("index: leaf record at key %v: %w", key, err)
			return false
		}
		stats.Candidates++
		info := ix.catalog[rec.VideoID]
		if info == nil || rec.ClusterN < 0 || int(rec.ClusterN) >= len(info.trips) {
			return true
		}
		trip := &info.trips[rec.ClusterN]
		for _, qi := range tk.members {
			qt := &qts[qi]
			if !qt.covers(key) {
				continue
			}
			if qt.psig != nil && info.vsig != nil {
				if sig.Prune(sig.GapScore(qt.psig, info.vsig), qt.vt.Radius+info.vsig.MaxRadius, cellW) ||
					sig.Prune(sig.GapScore(qt.psig, info.tsigs[rec.ClusterN]), qt.vt.Radius+trip.Radius, cellW) {
					stats.SignatureSkips++
					continue
				}
			}
			stats.SimilarityOps++
			if shared := core.SharedFrames(qt.vt, trip); shared > 0 {
				vs := scores[rec.VideoID]
				if vs == nil {
					vs = &videoScore{
						cells:  make(map[int64]float64),
						dbCnts: make(map[int32]int32),
					}
					scores[rec.VideoID] = vs
				}
				vs.cells[cellKey(qi, rec.ClusterN)] += shared
				vs.dbCnts[rec.ClusterN] = rec.Count
			}
		}
		return true
	})
	stats.PageReads += sc.Reads
	if err != nil {
		return err
	}
	return decErr
}

// scoreCell is one unpacked (query triplet, db cluster) evidence cell,
// the unit rankLocked's canonical fold sorts and sums.
type scoreCell struct {
	qi, cn int32
	v      float64
}

// rankLocked turns accumulated scores into the sorted top-k result list.
// Caller holds at least a read lock. Every float summation runs in a
// canonical order derived from the cells themselves — query-side sums
// fold each triplet's cells in ascending cluster order, db-side sums fold
// each cluster's cells in ascending triplet order — so the returned
// similarities are a pure function of (query, matching video contents):
// identical run to run and across any sharding of the database.
func (ix *Index) rankLocked(q *core.Summary, qts []queryTriplet, scores map[int32]*videoScore, k int) []Result {
	results := make([]Result, 0, len(scores))
	var cells []scoreCell
	for vid, vs := range scores {
		info := ix.catalog[vid]
		cells = cells[:0]
		for key, v := range vs.cells {
			cells = append(cells, scoreCell{qi: int32(key >> 32), cn: int32(uint32(key)), v: v})
		}
		var total float64
		// Query side: per triplet (ascending), clamp Σ shared at the
		// triplet's own frame count.
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].qi != cells[j].qi {
				return cells[i].qi < cells[j].qi
			}
			return cells[i].cn < cells[j].cn
		})
		for i := 0; i < len(cells); {
			j := i
			var s float64
			for ; j < len(cells) && cells[j].qi == cells[i].qi; j++ {
				s += cells[j].v
			}
			if c := float64(qts[cells[i].qi].vt.Count); s > c {
				s = c
			}
			total += s
			i = j
		}
		// DB side: per cluster (ascending), clamp at the cluster's |C|.
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].cn != cells[j].cn {
				return cells[i].cn < cells[j].cn
			}
			return cells[i].qi < cells[j].qi
		})
		for i := 0; i < len(cells); {
			j := i
			var s float64
			for ; j < len(cells) && cells[j].cn == cells[i].cn; j++ {
				s += cells[j].v
			}
			if c := float64(vs.dbCnts[cells[i].cn]); s > c {
				s = c
			}
			total += s
			i = j
		}
		if total <= 0 {
			continue
		}
		sim := total / float64(q.FrameCount+info.frameCount)
		if sim > 1 {
			sim = 1
		}
		results = append(results, Result{VideoID: int(vid), Similarity: sim, Shared: total})
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

// interval is one composed 1-D search range with the query triplets whose
// ranges it absorbed.
type interval struct {
	lo, hi  float64
	members []int
}

// composeRanges merges overlapping per-triplet ranges (§5.2 query
// composition). Returned intervals are disjoint and sorted.
func composeRanges(qts []queryTriplet) []interval {
	var ivs []interval
	for i := range qts {
		for _, kr := range qts[i].ranges {
			ivs = append(ivs, interval{lo: kr.Lo, hi: kr.Hi, members: []int{i}})
		}
	}
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			last.members = append(last.members, iv.members...)
			continue
		}
		out = append(out, iv)
	}
	return out
}
