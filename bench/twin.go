package main

import (
	"fmt"
	"sort"
	"time"

	"vitri"
	"vitri/internal/btree"
	"vitri/internal/core"
	"vitri/internal/index"
	"vitri/internal/pager"
	"vitri/internal/refpoint"
	"vitri/internal/sig"
	"vitri/internal/storefmt"
)

// indexTwin rebuilds, from the exported functions of each lower layer,
// what the engine builds inside itself for a corpus: the index, its
// reference-point mapping, a B+-tree of the same entries, and the
// signature tier. Replaying a query against the twin runs each layer's
// kernel over the pairs today's engine evaluates, one layer at a time, so
// each can be timed from outside. Reported counts never come from here but
// from the engine's SearchStats; the traced run prints how often the two
// agree.
type indexTwin struct {
	ix    *index.Index
	tr    refpoint.Mapper
	tree  *btree.Tree
	pg    pager.Pager
	recs  []twinRec
	vsigs []*sig.Signature // per video, in corpus order
	cellW float64
	// keyLo..keyHi is the key domain the corpus occupies.
	keyLo, keyHi float64
	// built holds the build-time layer metrics.
	built map[string]metric
}

// twinRec is one indexed triplet as the leaf scan meets it.
type twinRec struct {
	key   float64
	video int32 // index into the corpus
	trip  *core.ViTri
	tsig  *sig.Signature
}

// pair is one (query triplet, record) evaluation.
type pair struct {
	qi  int32
	rec int32
}

func seconds(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// buildTwin builds the twin over sums (video id ascending, as the engine
// orders them before its bulk build) and times each layer's build.
func buildTwin(sums []core.Summary) (*indexTwin, error) {
	tw := &indexTwin{cellW: sig.CellWidth(epsilon), built: make(map[string]metric)}
	storefmt.SortSummaries(sums)

	s, err := seconds(func() (err error) {
		tw.ix, err = index.Build(sums, index.Options{Epsilon: epsilon})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("index.Build: %w", err)
	}
	tw.built["index.build_s"] = metric{s, "s"}
	tw.tr = tw.ix.Transform()

	var positions [][]float64
	for i := range sums {
		for j := range sums[i].Triplets {
			positions = append(positions, sums[i].Triplets[j].Position)
		}
	}
	if s, err = seconds(func() error {
		_, err := refpoint.New(refpoint.Config{Kind: refpoint.Optimal}, positions)
		return err
	}); err != nil {
		return nil, fmt.Errorf("refpoint.New: %w", err)
	}
	tw.built["refpoint.new_s"] = metric{s, "s"}

	dim := len(positions[0])
	t0 := time.Now()
	for i := range sums {
		tw.vsigs = append(tw.vsigs, sig.FromSummary(&sums[i], dim, tw.cellW))
	}
	tw.built["sig.build_us_per_video"] = metric{time.Since(t0).Seconds() * 1e6 / float64(len(sums)), "us"}

	valSize := index.RecordSizeV3(dim)
	entries := make([]btree.Entry, 0, len(positions))
	for vi := range sums {
		for ti := range sums[vi].Triplets {
			t := &sums[vi].Triplets[ti]
			rec := index.Record{VideoID: int32(sums[vi].VideoID), ClusterN: int32(ti), Count: int32(t.Count), Radius: t.Radius, Position: t.Position}
			buf := make([]byte, valSize)
			if err := index.EncodeRecordV3(&rec, buf); err != nil {
				return nil, err
			}
			key := tw.tr.Key(t.Position)
			entries = append(entries, btree.Entry{Key: key, Val: buf})
			tw.recs = append(tw.recs, twinRec{key: key, video: int32(vi), trip: t, tsig: sig.FromTriplet(t.Position, t.Radius, tw.cellW)})
		}
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].Key < entries[b].Key })
	tw.keyLo, tw.keyHi = entries[0].Key, entries[len(entries)-1].Key
	tw.pg = pager.NewMem()
	if s, err = seconds(func() (err error) {
		tw.tree, err = btree.BulkLoad(tw.pg, valSize, entries, btree.DefaultFillFactor)
		return err
	}); err != nil {
		return nil, fmt.Errorf("btree.BulkLoad: %w", err)
	}
	tw.built["btree.bulkload_s"] = metric{s, "s"}

	// Full leaf scan, second of two (the first warms it).
	var scanned int
	for rep := 0; rep < 2; rep++ {
		scanned = 0
		var st pager.ScanStats
		if s, err = seconds(func() error {
			return tw.tree.ScanStats(&st, func(float64, []byte) bool { scanned++; return true })
		}); err != nil {
			return nil, fmt.Errorf("btree scan: %w", err)
		}
	}
	if scanned != len(entries) {
		return nil, fmt.Errorf("btree scan met %d entries of %d", scanned, len(entries))
	}
	tw.built["btree.scan_ns_per_entry"] = metric{s * 1e9 / float64(scanned), "ns"}
	return tw, nil
}

func (tw *indexTwin) close() error {
	err := tw.ix.Close()
	if cerr := tw.pg.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayCounts is what one replayed query did, layer by layer.
type replayCounts struct {
	candidates int
	pageReads  uint64
	pairs      int     // covered (query triplet, record) evaluations = ops + skips
	ops        int     // pairs the signature gate let through to the exact fold
	rangeWidth float64 // composed key ranges' share of the corpus's key domain
}

// replay runs query q's work against the twin as three spans under
// index.search: the composed leaf range scans, the signature gate over
// every covered pair, and the exact shared-frames fold over the pairs the
// gate let through. buf is scratch reused across queries.
func (tw *indexTwin) replay(tr *tracer, op int, q *core.Summary, buf *[2][]pair) (replayCounts, error) {
	var rc replayCounts
	type qTriplet struct {
		ranges []refpoint.KeyRange
		psig   *sig.Signature
	}
	qts := make([]qTriplet, len(q.Triplets))
	var ivs []refpoint.KeyRange
	for i := range q.Triplets {
		t := &q.Triplets[i]
		qts[i] = qTriplet{tw.tr.Ranges(t.Position, t.Radius+epsilon/2), sig.FromTriplet(t.Position, t.Radius, tw.cellW)}
		ivs = append(ivs, qts[i].ranges...)
	}
	// Query composition: merge overlapping ranges.
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].Lo < ivs[b].Lo })
	composed := ivs[:0:0]
	for _, iv := range ivs {
		if n := len(composed); n > 0 && iv.Lo <= composed[n-1].Hi {
			if iv.Hi > composed[n-1].Hi {
				composed[n-1].Hi = iv.Hi
			}
			continue
		}
		composed = append(composed, iv)
	}
	for _, iv := range composed {
		lo, hi := max(iv.Lo, tw.keyLo), min(iv.Hi, tw.keyHi)
		if hi > lo {
			rc.rangeWidth += hi - lo
		}
	}
	if tw.keyHi > tw.keyLo {
		rc.rangeWidth /= tw.keyHi - tw.keyLo
	}

	var scanErr error
	tr.do("btree.range_scan", "index.search", op, func() {
		var st pager.ScanStats
		for _, iv := range composed {
			if err := tw.tree.RangeScanStats(iv.Lo, iv.Hi, &st, func(float64, []byte) bool { rc.candidates++; return true }); err != nil {
				scanErr = err
			}
		}
		rc.pageReads = st.Reads
	})
	if scanErr != nil {
		return rc, scanErr
	}
	tr.counts(map[string]float64{"entries": float64(rc.candidates), "page_reads": float64(rc.pageReads)})

	// The pairs the engine evaluates: every record against every query
	// triplet whose own range covers the record's key.
	pairs := buf[0][:0]
	for ri := range tw.recs {
		key := tw.recs[ri].key
		for qi := range qts {
			for _, r := range qts[qi].ranges {
				if key >= r.Lo && key <= r.Hi {
					pairs = append(pairs, pair{int32(qi), int32(ri)})
					break
				}
			}
		}
	}
	rc.pairs = len(pairs)

	open := buf[1][:0]
	tr.do("sig.gap", "index.search", op, func() {
		for _, p := range pairs {
			qt, rec := &q.Triplets[p.qi], &tw.recs[p.rec]
			psig, vsig := qts[p.qi].psig, tw.vsigs[rec.video]
			if sig.Prune(sig.GapScore(psig, vsig), qt.Radius+vsig.MaxRadius, tw.cellW) ||
				sig.Prune(sig.GapScore(psig, rec.tsig), qt.Radius+rec.trip.Radius, tw.cellW) {
				continue
			}
			open = append(open, p)
		}
	})
	rc.ops = len(open)
	tr.counts(map[string]float64{"pairs": float64(rc.pairs), "pruned": float64(rc.pairs - rc.ops)})

	var shared float64
	tr.do("geometry.shared_frames", "index.search", op, func() {
		for _, p := range open {
			shared += core.SharedFrames(&q.Triplets[p.qi], tw.recs[p.rec].trip)
		}
	})
	tr.counts(map[string]float64{"ops": float64(rc.ops), "shared_frames": shared})
	buf[0], buf[1] = pairs, open
	return rc, nil
}

// search is the twin's index.search span: the same query, straight into
// the index layer, past the DB's router and lock.
func (tw *indexTwin) search(q *core.Summary, image bool) ([]vitri.Match, error) {
	if image {
		ms, _, err := tw.ix.SearchImage(q, topK, index.Composed, 0)
		return ms, err
	}
	ms, _, err := tw.ix.Search(q, topK, index.Composed)
	return ms, err
}
