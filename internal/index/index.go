package index

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"vitri/internal/btree"
	"vitri/internal/core"
	"vitri/internal/linalg"
	"vitri/internal/pager"
	"vitri/internal/refpoint"
	"vitri/internal/sig"
	"vitri/internal/vec"
)

// Options configures index construction.
type Options struct {
	// Epsilon is the frame similarity threshold ε used when the indexed
	// summaries were built; it determines the search radius γ = R^Q + ε/2.
	Epsilon float64
	// RefKind selects the reference point strategy. The zero value is
	// refpoint.Optimal, the paper's Theorem 1 placement; the other kinds
	// exist for the paper's comparisons (internal/experiments, tests).
	RefKind refpoint.Kind
	// SpaceLo/SpaceHi bound the data space for the SpaceCenter strategy.
	// Both zero selects [0, 1].
	SpaceLo, SpaceHi float64
	// OffsetFraction tunes the Optimal reference placement
	// (refpoint.DefaultOffsetFraction when 0).
	OffsetFraction float64
	// Partitions is the partition count for the MultiRef (iDistance)
	// strategy (refpoint.MultiPartitions when 0). Ignored otherwise.
	Partitions int
	// FillFactor for bulk loading (btree.DefaultFillFactor when 0).
	FillFactor float64
	// NewPager supplies page stores for the tree — once at build time and
	// again on every rebuild. Defaults to in-memory pagers.
	NewPager func() pager.Pager
	// DisableSignatures turns off the memory-resident signature
	// pre-filter tier (internal/sig): every covered candidate then pays
	// the exact similarity evaluation, as before the tier existed.
	// Results are byte-identical either way — the tier only skips pairs
	// whose shared-frame estimate is provably zero.
	DisableSignatures bool
	// UnquantizedLeaves keeps the v2 float64 leaf record encoding
	// instead of the v3 float32 one. The default (false) halves the leaf
	// payload and with it the page reads per range scan; similarity math
	// reads exact float64 triplets from the catalog in either mode, so
	// this knob trades I/O, never results.
	UnquantizedLeaves bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SpaceLo == 0 && out.SpaceHi == 0 {
		out.SpaceHi = 1
	}
	if out.NewPager == nil {
		out.NewPager = func() pager.Pager { return pager.NewMem() }
	}
	return out
}

// videoInfo is the per-video catalog entry: the normalization inputs for
// the §3.1 similarity, the exact float64 triplets (the source of truth
// the similarity math reads — leaf records may be float32-quantized),
// and the video's signature tier.
type videoInfo struct {
	frameCount int
	triplets   int
	keys       []float64 // the 1-D keys of this video's triplets (for Remove)
	// trips are the exact triplets in cluster-ordinal order, so
	// trips[rec.ClusterN] is the full-precision twin of a leaf record.
	trips []core.ViTri
	// vsig is the video-level signature (union of triplet cells, max
	// radius); tsigs are the per-triplet point signatures. Both nil when
	// Options.DisableSignatures is set.
	vsig  *sig.Signature
	tsigs []*sig.Signature
}

// Index is the ViTri index: a reference-point transform plus a B+-tree of
// ViTri records keyed by transformed position. Safe for concurrent
// searches; mutations are serialized.
type Index struct {
	mu   sync.RWMutex
	opts Options
	dim  int
	tr   refpoint.Mapper
	tree *btree.Tree
	pg   pager.Pager

	catalog map[int32]*videoInfo

	// mom holds the running moments of every indexed position. Build and
	// Rebuild fit the Optimal reference point from them; Insert and Remove
	// keep them current for principal-direction drift detection (§6.3.3).
	mom *linalg.Moments
}

// Build constructs an index over the given summaries with one-off (bulk)
// construction. All summaries must share one dimensionality and contain at
// least one triplet overall.
func Build(summaries []core.Summary, opts Options) (*Index, error) {
	o := opts.withDefaults()
	if o.Epsilon <= 0 {
		return nil, errors.New("index: Epsilon must be positive")
	}
	positions, err := collectPositions(summaries)
	if err != nil {
		return nil, err
	}
	dim := len(positions[0])
	// One moment pass serves both the reference-point fit and the drift
	// baseline, so DriftAngle reads exactly 0 right after a build.
	mom := linalg.NewMoments(dim)
	for _, p := range positions {
		mom.Add(p)
	}
	tr, err := newMapper(&o, mom, positions)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		opts:    o,
		dim:     dim,
		tr:      tr,
		catalog: make(map[int32]*videoInfo),
		mom:     mom,
	}
	entries := make([]btree.Entry, 0, len(positions))
	for si := range summaries {
		s := &summaries[si]
		if _, dup := ix.catalog[int32(s.VideoID)]; dup {
			return nil, fmt.Errorf("index: duplicate video id %d", s.VideoID)
		}
		info := ix.newVideoInfo(s)
		for ti := range s.Triplets {
			tpl := &s.Triplets[ti]
			rec := Record{
				VideoID:  int32(s.VideoID),
				ClusterN: int32(ti),
				Count:    int32(tpl.Count),
				Radius:   tpl.Radius,
				Position: tpl.Position,
			}
			buf := make([]byte, ix.recSize())
			if err := ix.encodeRec(&rec, buf); err != nil {
				return nil, err
			}
			key := tr.Key(tpl.Position)
			entries = append(entries, btree.Entry{Key: key, Val: buf})
			info.keys = append(info.keys, key)
		}
		ix.catalog[int32(s.VideoID)] = info
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	pg := o.NewPager()
	tree, err := btree.BulkLoad(pg, ix.recSize(), entries, o.FillFactor)
	if err != nil {
		return nil, err
	}
	ix.tree, ix.pg = tree, pg
	return ix, nil
}

// recSize is the leaf record size for this index's encoding mode.
func (ix *Index) recSize() int {
	if ix.opts.UnquantizedLeaves {
		return RecordSize(ix.dim)
	}
	return RecordSizeV3(ix.dim)
}

// encodeRec serializes a record in the index's leaf encoding.
func (ix *Index) encodeRec(r *Record, dst []byte) error {
	if ix.opts.UnquantizedLeaves {
		return EncodeRecord(r, dst)
	}
	return EncodeRecordV3(r, dst)
}

// decodeRec parses a leaf record in the index's encoding. In the default
// (v3) mode positions and radius come back float32-widened; similarity
// math must read the exact values from the catalog instead.
func (ix *Index) decodeRec(src []byte, r *Record) error {
	if ix.opts.UnquantizedLeaves {
		return DecodeRecord(src, ix.dim, r)
	}
	return DecodeRecordV3(src, ix.dim, r)
}

// newVideoInfo builds a summary's catalog entry: the exact triplets
// (via core.NewViTri, the same deterministic constructor the search path
// used when it decoded triplets from leaves, so LogVolume is bit-for-bit
// what it always was) plus the signature tier. The caller has validated
// dimensionality.
func (ix *Index) newVideoInfo(s *core.Summary) *videoInfo {
	info := &videoInfo{
		frameCount: s.FrameCount,
		triplets:   len(s.Triplets),
		trips:      make([]core.ViTri, len(s.Triplets)),
	}
	for ti := range s.Triplets {
		tpl := &s.Triplets[ti]
		info.trips[ti] = core.NewViTri(tpl.Position, tpl.Radius, tpl.Count)
	}
	if !ix.opts.DisableSignatures {
		w := sig.CellWidth(ix.opts.Epsilon)
		info.vsig = sig.New(ix.dim)
		info.tsigs = make([]*sig.Signature, len(info.trips))
		for ti := range info.trips {
			t := &info.trips[ti]
			info.tsigs[ti] = sig.FromTriplet(t.Position, t.Radius, w)
			info.vsig.Add(t.Position, t.Radius, w)
		}
	}
	return info
}

// newMapper constructs the configured key mapping over the build points,
// whose moments mom already holds.
func newMapper(o *Options, mom *linalg.Moments, positions []vec.Vector) (refpoint.Mapper, error) {
	if o.RefKind == refpoint.MultiRef {
		return refpoint.NewMulti(positions, o.Partitions, 1)
	}
	return refpoint.Fit(refpoint.Config{
		Kind:           o.RefKind,
		SpaceLo:        o.SpaceLo,
		SpaceHi:        o.SpaceHi,
		OffsetFraction: o.OffsetFraction,
	}, mom, positions)
}

// collectPositions flattens and validates all triplet positions.
func collectPositions(summaries []core.Summary) ([]vec.Vector, error) {
	var out []vec.Vector
	for i := range summaries {
		for j := range summaries[i].Triplets {
			out = append(out, summaries[i].Triplets[j].Position)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("index: no triplets to index")
	}
	dim := len(out[0])
	for _, p := range out {
		if len(p) != dim {
			return nil, fmt.Errorf("index: mixed dimensionality %d vs %d", len(p), dim)
		}
	}
	return out, nil
}

// Dim returns the dimensionality of indexed positions.
func (ix *Index) Dim() int { return ix.dim }

// Epsilon returns the frame similarity threshold the index was built for.
func (ix *Index) Epsilon() float64 { return ix.opts.Epsilon }

// Transform exposes the active reference-point mapping.
func (ix *Index) Transform() refpoint.Mapper {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tr
}

// Len returns the number of indexed ViTri records.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return int(ix.tree.Len())
}

// Videos returns the number of indexed videos.
func (ix *Index) Videos() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.catalog)
}

// PagerStats returns the physical I/O counters of the active page store.
func (ix *Index) PagerStats() pager.Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.pg.Stats()
}

// Close releases the index's page store. Subsequent tree operations fail
// with pager.ErrClosed; the store's Close is idempotent, so Close may be
// called more than once.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.pg.Close()
}

// Insert adds one summarized video to the index dynamically: each triplet
// is keyed with the *existing* reference point and inserted into the
// B+-tree (§5.1 "dynamic maintenance"). The reference point is not moved;
// use DriftAngle/Rebuild to detect and repair correlation drift.
//
// Insert is atomic with respect to validation: every triplet is validated
// and encoded before the first tree mutation, so a rejected summary
// (wrong dimensionality, unencodable triplet) leaves the tree and catalog
// untouched. If the underlying pager fails mid-insert, the triplets
// already inserted are rolled back best-effort.
func (ix *Index) Insert(s core.Summary) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	vid := int32(s.VideoID)
	if _, dup := ix.catalog[vid]; dup {
		return fmt.Errorf("index: duplicate video id %d", s.VideoID)
	}
	if len(s.Triplets) == 0 {
		return fmt.Errorf("index: video %d has no triplets", s.VideoID)
	}
	// Validate and encode everything before touching the tree: a failure
	// on triplet i must not leave triplets 0..i-1 orphaned in the tree
	// with no catalog entry.
	size := ix.recSize()
	slab := make([]byte, size*len(s.Triplets))
	keys := make([]float64, len(s.Triplets))
	for ti := range s.Triplets {
		tpl := &s.Triplets[ti]
		if len(tpl.Position) != ix.dim {
			return fmt.Errorf("index: triplet dimensionality %d, index is %d", len(tpl.Position), ix.dim)
		}
		rec := Record{
			VideoID:  vid,
			ClusterN: int32(ti),
			Count:    int32(tpl.Count),
			Radius:   tpl.Radius,
			Position: tpl.Position,
		}
		if err := ix.encodeRec(&rec, slab[ti*size:(ti+1)*size]); err != nil {
			return err
		}
		keys[ti] = ix.tr.Key(tpl.Position)
	}
	// Catalog entry (exact triplets + signatures) before the first tree
	// mutation: newVideoInfo inherits NewViTri's panic on invalid
	// geometry, and that must not fire with half a video inserted.
	info := ix.newVideoInfo(&s)
	info.keys = keys
	for ti := range s.Triplets {
		if err := ix.tree.Insert(keys[ti], slab[ti*size:(ti+1)*size]); err != nil {
			ix.rollbackInsertLocked(vid, keys[:ti])
			return err
		}
	}
	for ti := range s.Triplets {
		ix.mom.Add(s.Triplets[ti].Position)
	}
	ix.catalog[vid] = info
	return nil
}

// rollbackInsertLocked deletes the given video's records at keys after a
// failed Insert, so a mid-insert pager failure does not leave orphaned
// records for range scans to surface with no catalog entry. Best-effort:
// the pager that failed the insert may fail the deletes too. Caller
// holds mu.
func (ix *Index) rollbackInsertLocked(vid int32, keys []float64) {
	var rec Record
	for _, key := range keys {
		// Best-effort: the pager that failed the insert may fail the
		// deletes too.
		_, _ = ix.tree.Delete(key, func(val []byte) bool {
			return ix.decodeRec(val, &rec) == nil && rec.VideoID == vid
		})
	}
}

// DriftAngle returns the angle in radians between the first principal
// component captured when the reference point was derived and the current
// Φ1 of all indexed positions. Zero for non-Optimal reference points.
func (ix *Index) DriftAngle() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.driftAngleLocked()
}

// driftAngleLocked is DriftAngle under a lock the caller already holds.
func (ix *Index) driftAngleLocked() float64 {
	built := ix.tr.FirstPC()
	if built == nil {
		return 0
	}
	cur := ix.mom.FirstPC()
	if cur == nil {
		return 0
	}
	return linalg.AngleBetween(built, cur)
}

// Rebuild re-derives the reference point from the currently indexed
// positions and bulk-loads a fresh tree — the paper's proposed response to
// correlation drift (§6.3.3). The old page store is closed.
func (ix *Index) Rebuild() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.rebuildLocked()
}

// rebuildLocked is Rebuild under the write lock the caller already holds.
//
// The moments are recomputed from scratch from the exact float64
// positions in the catalog, visited in tree order, and the reference
// point is fitted from them. Starting over sheds the rounding residue
// that removals leave in the running sums, keeps O′ a function of the
// indexed set (deterministic and independent of the leaf encoding), and
// leaves DriftAngle at exactly 0.
// Records whose catalog entry is gone (orphans left by a failed
// best-effort insert rollback) are dropped here rather than re-encoded:
// they can never score — scoring reads the catalog — so the rebuild is
// the natural point to shed them.
func (ix *Index) rebuildLocked() error {
	refs, err := ix.treeRefsLocked()
	if err != nil {
		return err
	}
	positions := make([]vec.Vector, len(refs))
	mom := linalg.NewMoments(ix.dim)
	for i, ref := range refs {
		positions[i] = ix.catalog[ref.vid].trips[ref.cn].Position
		mom.Add(positions[i])
	}
	tr, err := newMapper(&ix.opts, mom, positions)
	if err != nil {
		return err
	}
	entries := make([]btree.Entry, len(refs))
	newKeys := make(map[int32][]float64, len(ix.catalog))
	for i, ref := range refs {
		t := &ix.catalog[ref.vid].trips[ref.cn]
		rec := Record{
			VideoID:  ref.vid,
			ClusterN: ref.cn,
			Count:    int32(t.Count),
			Radius:   t.Radius,
			Position: t.Position,
		}
		buf := make([]byte, ix.recSize())
		if err := ix.encodeRec(&rec, buf); err != nil {
			return err
		}
		key := tr.Key(t.Position)
		entries[i] = btree.Entry{Key: key, Val: buf}
		newKeys[ref.vid] = append(newKeys[ref.vid], key)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	pg := ix.opts.NewPager()
	tree, err := btree.BulkLoad(pg, ix.recSize(), entries, ix.opts.FillFactor)
	if err != nil {
		return errors.Join(err, pg.Close())
	}
	// Refresh the catalog's per-video keys: the new reference point moved
	// every 1-D key.
	for vid, info := range ix.catalog {
		info.keys = newKeys[vid]
	}
	old := ix.pg
	ix.tr, ix.tree, ix.pg, ix.mom = tr, tree, pg, mom
	// Best-effort close of the replaced store; the new pager is already live.
	old.Close()
	return nil
}

// recordRef names one indexed triplet: the video and its cluster ordinal
// — enough to find the exact triplet in the catalog.
type recordRef struct {
	vid int32
	cn  int32
}

// treeRefsLocked scans the tree in key order and resolves every record
// to its catalog reference, skipping orphans (records whose video has no
// catalog entry, or whose cluster ordinal is out of range — the residue
// of a doubly-failed insert). Caller holds mu.
func (ix *Index) treeRefsLocked() ([]recordRef, error) {
	out := make([]recordRef, 0, ix.tree.Len())
	var r Record
	var decErr error
	err := ix.tree.Scan(func(key float64, val []byte) bool {
		if err := ix.decodeRec(val, &r); err != nil {
			decErr = fmt.Errorf("index: leaf record at key %v: %w", key, err)
			return false
		}
		info := ix.catalog[r.VideoID]
		if info == nil || r.ClusterN < 0 || int(r.ClusterN) >= len(info.trips) {
			return true
		}
		out = append(out, recordRef{vid: r.VideoID, cn: r.ClusterN})
		return true
	})
	if err != nil {
		return nil, err
	}
	if decErr != nil {
		return nil, decErr
	}
	return out, nil
}

// RebuildIfDrifted rebuilds when DriftAngle exceeds maxAngle (radians) and
// reports whether a rebuild happened. Drift is evaluated under the same
// write lock as the rebuild, so two concurrent callers cannot both see
// stale drift and rebuild back-to-back (the second caller re-evaluates
// drift after the first one's rebuild and finds it repaired).
func (ix *Index) RebuildIfDrifted(maxAngle float64) (bool, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.driftAngleLocked() <= maxAngle {
		return false, nil
	}
	if err := ix.rebuildLocked(); err != nil {
		return false, err
	}
	return true, nil
}
