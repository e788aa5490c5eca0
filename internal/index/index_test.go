package index

import (
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vitri/internal/core"
	"vitri/internal/pager"
	"vitri/internal/refpoint"
	"vitri/internal/vec"
)

// makeVideo synthesizes a video as a few gaussian "shots" in [0,1]^dim and
// returns its frames.
func makeVideo(r *rand.Rand, dim, shots, framesPerShot int) []vec.Vector {
	var frames []vec.Vector
	for s := 0; s < shots; s++ {
		center := make(vec.Vector, dim)
		for j := range center {
			center[j] = 0.2 + 0.6*r.Float64()
		}
		for f := 0; f < framesPerShot; f++ {
			p := make(vec.Vector, dim)
			for j := range p {
				p[j] = center[j] + r.NormFloat64()*0.02
			}
			frames = append(frames, p)
		}
	}
	return frames
}

// perturb returns a noisy near-duplicate of the given frames.
func perturb(r *rand.Rand, frames []vec.Vector, noise float64) []vec.Vector {
	out := make([]vec.Vector, len(frames))
	for i, f := range frames {
		p := vec.Clone(f)
		for j := range p {
			p[j] += r.NormFloat64() * noise
		}
		out[i] = p
	}
	return out
}

const testEps = 0.3

func summarizeAll(videos [][]vec.Vector) []core.Summary {
	out := make([]core.Summary, len(videos))
	for i, v := range videos {
		out[i] = core.Summarize(i, v, core.Options{Epsilon: testEps, Seed: int64(i + 1)})
	}
	return out
}

func buildCorpus(t *testing.T, r *rand.Rand, numVideos, dim int) ([][]vec.Vector, []core.Summary, *Index) {
	t.Helper()
	videos := make([][]vec.Vector, numVideos)
	for i := range videos {
		videos[i] = makeVideo(r, dim, 3, 30)
	}
	sums := summarizeAll(videos)
	ix, err := Build(sums, Options{Epsilon: testEps, RefKind: refpoint.Optimal})
	if err != nil {
		t.Fatal(err)
	}
	return videos, sums, ix
}

func TestRecordRoundTrip(t *testing.T) {
	rec := Record{
		VideoID:  42,
		ClusterN: 7,
		Count:    99,
		Radius:   0.123456789,
		Position: vec.Vector{0.1, -0.2, 0.3, 1e-9},
	}
	buf := make([]byte, RecordSize(4))
	if err := EncodeRecord(&rec, buf); err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := DecodeRecord(buf, 4, &got); err != nil {
		t.Fatal(err)
	}
	if got.VideoID != rec.VideoID || got.ClusterN != rec.ClusterN ||
		got.Count != rec.Count || got.Radius != rec.Radius ||
		!vec.Equal(got.Position, rec.Position) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
}

func TestRecordSizeErrors(t *testing.T) {
	rec := Record{Position: vec.Vector{1, 2}, Radius: 1, Count: 1}
	if err := EncodeRecord(&rec, make([]byte, 10)); err == nil {
		t.Fatal("expected encode size error")
	}
	var got Record
	if err := DecodeRecord(make([]byte, 10), 2, &got); err == nil {
		t.Fatal("expected decode size error")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{Epsilon: 0.3}); err == nil {
		t.Fatal("expected error for no summaries")
	}
	s := core.Summary{VideoID: 1, FrameCount: 1, Triplets: []core.ViTri{core.NewViTri(vec.Vector{1}, 0.1, 1)}}
	if _, err := Build([]core.Summary{s}, Options{Epsilon: 0}); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
	if _, err := Build([]core.Summary{s, s}, Options{Epsilon: 0.3}); err == nil {
		t.Fatal("expected error for duplicate video ids")
	}
}

func TestSearchFindsNearDuplicate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	videos, _, ix := buildCorpus(t, r, 30, 8)
	// Query = perturbed copy of video 13.
	q := core.Summarize(1000, perturb(r, videos[13], 0.01), core.Options{Epsilon: testEps, Seed: 99})
	for _, mode := range []Mode{Naive, Composed} {
		res, stats, err := ix.Search(&q, 5, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].VideoID != 13 {
			t.Fatalf("mode %v: top result %+v, want video 13", mode, res)
		}
		// The volume-intersection estimate is conservative in higher
		// dimensions; the rank matters, plus a sanity floor.
		if res[0].Similarity < 0.2 {
			t.Fatalf("mode %v: near-duplicate similarity %v too low", mode, res[0].Similarity)
		}
		if len(res) > 1 && res[0].Similarity <= res[1].Similarity {
			t.Fatalf("mode %v: duplicate not separated: %+v", mode, res[:2])
		}
		if stats.Ranges == 0 || stats.SimilarityOps == 0 {
			t.Fatalf("mode %v: empty stats %+v", mode, stats)
		}
	}
}

// bruteForceScores computes, for every indexed video, the similarity via
// the core measure — the reference the index search must reproduce exactly
// (key pruning only removes provably-zero pairs).
func bruteForceScores(q *core.Summary, sums []core.Summary) map[int]float64 {
	out := make(map[int]float64)
	for i := range sums {
		if sim := core.VideoSimilarity(q, &sums[i]); sim > 0 {
			out[sums[i].VideoID] = sim
		}
	}
	return out
}

func TestSearchMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	videos, sums, ix := buildCorpus(t, r, 40, 8)
	for trial := 0; trial < 5; trial++ {
		src := videos[r.Intn(len(videos))]
		q := core.Summarize(5000+trial, perturb(r, src, 0.02), core.Options{Epsilon: testEps, Seed: int64(trial)})
		want := bruteForceScores(&q, sums)
		for _, mode := range []Mode{Naive, Composed} {
			res, _, err := ix.Search(&q, len(sums), mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(want) {
				t.Fatalf("mode %v: %d results, brute force has %d", mode, len(res), len(want))
			}
			for _, rr := range res {
				w, ok := want[rr.VideoID]
				if !ok {
					t.Fatalf("mode %v: unexpected video %d", mode, rr.VideoID)
				}
				if math.Abs(rr.Similarity-w) > 1e-9 {
					t.Fatalf("mode %v: video %d similarity %v, brute force %v", mode, rr.VideoID, rr.Similarity, w)
				}
			}
		}
	}
}

func TestNaiveAndComposedAgree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	videos, _, ix := buildCorpus(t, r, 50, 8)
	q := core.Summarize(9000, perturb(r, videos[7], 0.02), core.Options{Epsilon: testEps, Seed: 1})
	rn, sn, err := ix.Search(&q, 10, Naive)
	if err != nil {
		t.Fatal(err)
	}
	rc, sc, err := ix.Search(&q, 10, Composed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rn) != len(rc) {
		t.Fatalf("result counts differ: %d vs %d", len(rn), len(rc))
	}
	for i := range rn {
		if rn[i].VideoID != rc[i].VideoID || math.Abs(rn[i].Similarity-rc[i].Similarity) > 1e-12 {
			t.Fatalf("result %d differs: %+v vs %+v", i, rn[i], rc[i])
		}
	}
	if sc.Ranges > sn.Ranges {
		t.Fatalf("composed issued more ranges (%d) than naive (%d)", sc.Ranges, sn.Ranges)
	}
	if sc.PageReads > sn.PageReads {
		t.Fatalf("composed read more pages (%d) than naive (%d)", sc.PageReads, sn.PageReads)
	}
}

func TestComposeRanges(t *testing.T) {
	mk := func(key, radius float64) queryTriplet {
		return queryTriplet{ranges: []refpoint.KeyRange{{Lo: key - radius, Hi: key + radius}}}
	}
	qts := []queryTriplet{mk(5, 1), mk(5.5, 1), mk(10, 0.5), mk(2, 0.5)}
	ivs := composeRanges(qts)
	if len(ivs) != 3 {
		t.Fatalf("expected 3 merged intervals, got %d: %+v", len(ivs), ivs)
	}
	// First: [1.5, 2.5]; second: [4, 6.5]; third: [9.5, 10.5].
	if ivs[0].lo != 1.5 || ivs[0].hi != 2.5 {
		t.Fatalf("interval 0 = %+v", ivs[0])
	}
	if ivs[1].lo != 4 || ivs[1].hi != 6.5 || len(ivs[1].members) != 2 {
		t.Fatalf("interval 1 = %+v", ivs[1])
	}
	if ivs[2].lo != 9.5 || ivs[2].hi != 10.5 {
		t.Fatalf("interval 2 = %+v", ivs[2])
	}
}

func TestSearchValidation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	_, _, ix := buildCorpus(t, r, 5, 8)
	q := core.Summary{VideoID: 1, FrameCount: 10}
	if _, _, err := ix.Search(&q, 0, Naive); err == nil {
		t.Fatal("expected error for k=0")
	}
	// Empty query: no results, no error.
	res, _, err := ix.Search(&q, 5, Composed)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty query: res=%v err=%v", res, err)
	}
	// Wrong dimensionality.
	bad := core.Summary{VideoID: 2, FrameCount: 1,
		Triplets: []core.ViTri{core.NewViTri(vec.Vector{1, 2}, 0.1, 1)}}
	if _, _, err := ix.Search(&bad, 5, Naive); err == nil {
		t.Fatal("expected dimensionality error")
	}
}

func TestDynamicInsertMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	videos := make([][]vec.Vector, 30)
	for i := range videos {
		videos[i] = makeVideo(r, 8, 2, 25)
	}
	sums := summarizeAll(videos)
	full, err := Build(sums, Options{Epsilon: testEps})
	if err != nil {
		t.Fatal(err)
	}
	// Build from half, insert the rest dynamically.
	dyn, err := Build(sums[:15], Options{Epsilon: testEps})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums[15:] {
		if err := dyn.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if dyn.Len() != full.Len() || dyn.Videos() != full.Videos() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", dyn.Len(), dyn.Videos(), full.Len(), full.Videos())
	}
	q := core.Summarize(7777, perturb(r, videos[20], 0.02), core.Options{Epsilon: testEps, Seed: 9})
	rFull, _, err := full.Search(&q, 30, Composed)
	if err != nil {
		t.Fatal(err)
	}
	rDyn, _, err := dyn.Search(&q, 30, Composed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rFull) != len(rDyn) {
		t.Fatalf("result counts differ: %d vs %d", len(rFull), len(rDyn))
	}
	for i := range rFull {
		if rFull[i].VideoID != rDyn[i].VideoID || math.Abs(rFull[i].Similarity-rDyn[i].Similarity) > 1e-9 {
			t.Fatalf("result %d differs: %+v vs %+v", i, rFull[i], rDyn[i])
		}
	}
}

func TestInsertValidation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	_, sums, ix := buildCorpus(t, r, 5, 8)
	if err := ix.Insert(sums[0]); err == nil {
		t.Fatal("expected duplicate id error")
	}
	if err := ix.Insert(core.Summary{VideoID: 999}); err == nil {
		t.Fatal("expected empty summary error")
	}
}

func TestDriftDetectionAndRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dim := 6
	// Initial data dominant along axis 0.
	mk := func(axis int, n int, base int) []core.Summary {
		var sums []core.Summary
		for v := 0; v < n; v++ {
			var frames []vec.Vector
			for f := 0; f < 30; f++ {
				p := make(vec.Vector, dim)
				for j := range p {
					p[j] = 0.5 + r.NormFloat64()*0.01
				}
				p[axis] += r.NormFloat64() * 0.3
				frames = append(frames, p)
			}
			sums = append(sums, core.Summarize(base+v, frames, core.Options{Epsilon: testEps, Seed: int64(v)}))
		}
		return sums
	}
	ix, err := Build(mk(0, 10, 0), Options{Epsilon: testEps, RefKind: refpoint.Optimal})
	if err != nil {
		t.Fatal(err)
	}
	if a := ix.DriftAngle(); a > 0.15 {
		t.Fatalf("initial drift angle %v", a)
	}
	// Flood with data dominant along axis 1: drift grows.
	for _, s := range mk(1, 40, 100) {
		if err := ix.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	drift := ix.DriftAngle()
	if drift < 0.3 {
		t.Fatalf("drift angle %v too small after correlated insertions", drift)
	}
	rebuilt, err := ix.RebuildIfDrifted(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("expected a rebuild")
	}
	if a := ix.DriftAngle(); a > 0.15 {
		t.Fatalf("drift after rebuild = %v", a)
	}
	// The rebuilt index still answers correctly.
	res, _, err := ix.Search(&[]core.Summary{mk(1, 1, 9000)[0]}[0], 5, Composed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results after rebuild")
	}
}

// TestFitFromOneMomentPass pins how Build and Rebuild fit the default
// reference point: from the same running moments the drift check reads,
// so DriftAngle is exactly 0 right after either — not merely small, as it
// would be with O′ fitted from a second, separately rounded covariance
// pass.
func TestFitFromOneMomentPass(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	videos := make([][]vec.Vector, 30)
	for i := range videos {
		videos[i] = makeVideo(r, 8, 3, 20)
	}
	ix, err := Build(summarizeAll(videos[:20]), Options{Epsilon: testEps})
	if err != nil {
		t.Fatal(err)
	}
	if k := ix.Transform().Kind(); k != refpoint.Optimal {
		t.Fatalf("default mapper is %v, want %v", k, refpoint.Optimal)
	}
	if a := ix.DriftAngle(); a != 0 {
		t.Fatalf("drift angle right after Build = %v, want exactly 0", a)
	}
	for i, s := range summarizeAll(videos) {
		if i < 20 {
			continue
		}
		if err := ix.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Remove(3); err != nil {
		t.Fatal(err)
	}
	if a := ix.DriftAngle(); a == 0 {
		t.Fatal("drift angle stayed exactly 0 after inserts and a remove; the running moments are not tracked")
	}
	if err := ix.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if a := ix.DriftAngle(); a != 0 {
		t.Fatalf("drift angle right after Rebuild = %v, want exactly 0", a)
	}
}

// TestNoCovariancePassOnBuild guards the one-pass build statically: the
// index and reference-point packages fit O′ from running moments
// (linalg.Moments), so neither may call the two-pass covariance or the
// full eigendecomposition.
func TestNoCovariancePassOnBuild(t *testing.T) {
	banned := map[string]bool{"Covariance": true, "ComputePCA": true, "EigenSym": true}
	for _, dir := range []string{".", "../refpoint"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "linalg" && banned[sel.Sel.Name] {
						t.Errorf("%s calls linalg.%s", name, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
}

func TestRebuildPreservesContent(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	videos, _, ix := buildCorpus(t, r, 20, 8)
	q := core.Summarize(8888, perturb(r, videos[3], 0.02), core.Options{Epsilon: testEps, Seed: 2})
	before, _, err := ix.Search(&q, 20, Composed)
	if err != nil {
		t.Fatal(err)
	}
	lenBefore := ix.Len()
	if err := ix.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != lenBefore {
		t.Fatalf("rebuild changed record count: %d vs %d", ix.Len(), lenBefore)
	}
	after, _, err := ix.Search(&q, 20, Composed)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("result counts differ after rebuild")
	}
	for i := range before {
		if before[i].VideoID != after[i].VideoID || math.Abs(before[i].Similarity-after[i].Similarity) > 1e-9 {
			t.Fatalf("result %d differs after rebuild: %+v vs %+v", i, before[i], after[i])
		}
	}
}

func TestSearchPruningUsesIndex(t *testing.T) {
	// With many videos spread out, one query's search should read far
	// fewer pages than the whole tree occupies.
	// Correlated data (shot centers spread along one direction) is the
	// regime where the PCA-optimal reference point gives strong pruning.
	r := rand.New(rand.NewSource(9))
	dim := 16
	dir := make(vec.Vector, dim)
	for j := range dir {
		dir[j] = r.NormFloat64()
	}
	vec.Normalize(dir)
	videos := make([][]vec.Vector, 400)
	for v := range videos {
		tpos := r.Float64()*4 - 2 // position along the dominant direction
		var frames []vec.Vector
		for f := 0; f < 30; f++ {
			p := make(vec.Vector, dim)
			for j := range p {
				p[j] = 0.5 + r.NormFloat64()*0.01
			}
			vec.AXPY(p, tpos, dir)
			frames = append(frames, p)
		}
		videos[v] = frames
	}
	sums := summarizeAll(videos)
	ix, err := Build(sums, Options{Epsilon: testEps, RefKind: refpoint.Optimal})
	if err != nil {
		t.Fatal(err)
	}
	totalPages := ix.pg.NumPages()
	q := core.Summarize(4242, perturb(r, videos[50], 0.005), core.Options{Epsilon: testEps, Seed: 3})
	_, stats, err := ix.Search(&q, 10, Composed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PageReads == 0 {
		t.Fatal("no page reads recorded")
	}
	if int(stats.PageReads) >= totalPages/2 {
		t.Fatalf("search read %d pages of a %d-page tree: no pruning", stats.PageReads, totalPages)
	}
}

// TestIDistanceBackedIndex drives the multi-reference iDistance mapper
// end to end: a noisy copy of an indexed video must rank that video first
// in both query modes, and the tree must stay well formed.
func TestIDistanceBackedIndex(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	videos := make([][]vec.Vector, 20)
	for i := range videos {
		videos[i] = makeVideo(r, 8, 2, 20)
	}
	ix, err := Build(summarizeAll(videos), Options{Epsilon: testEps, RefKind: refpoint.MultiRef, Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if k := ix.Transform().Kind(); k != refpoint.MultiRef {
		t.Fatalf("mapper kind %v, want %v", k, refpoint.MultiRef)
	}
	q := core.Summarize(9999, perturb(r, videos[6], 0.01), core.Options{Epsilon: testEps, Seed: 1})
	for _, mode := range []Mode{Naive, Composed} {
		res, _, err := ix.Search(&q, 5, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].VideoID != 6 {
			t.Fatalf("mode %v: iDistance top match = %+v, want video 6", mode, res)
		}
	}
	if err := ix.CheckTree(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRefIndexMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	videos := make([][]vec.Vector, 40)
	for i := range videos {
		videos[i] = makeVideo(r, 8, 3, 30)
	}
	sums := summarizeAll(videos)
	ix, err := Build(sums, Options{Epsilon: testEps, RefKind: refpoint.MultiRef, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		src := videos[r.Intn(len(videos))]
		q := core.Summarize(6000+trial, perturb(r, src, 0.02), core.Options{Epsilon: testEps, Seed: int64(trial)})
		want := bruteForceScores(&q, sums)
		for _, mode := range []Mode{Naive, Composed} {
			res, _, err := ix.Search(&q, len(sums), mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(want) {
				t.Fatalf("mode %v: %d results, brute force has %d", mode, len(res), len(want))
			}
			for _, rr := range res {
				w, ok := want[rr.VideoID]
				if !ok || math.Abs(rr.Similarity-w) > 1e-9 {
					t.Fatalf("mode %v: video %d similarity %v, brute force %v (ok=%v)", mode, rr.VideoID, rr.Similarity, w, ok)
				}
			}
		}
	}
	// Dynamic insert + remove keep working under the multi mapper.
	extra := core.Summarize(5555, makeVideo(r, 8, 2, 20), core.Options{Epsilon: testEps, Seed: 5})
	if err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove(5555); err != nil {
		t.Fatal(err)
	}
	// Rebuild re-derives the partitions.
	if err := ix.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if ix.DriftAngle() != 0 {
		t.Fatalf("multi mapper should report zero drift, got %v", ix.DriftAngle())
	}
}

// TestInsertFailureLeavesIndexUnchanged is the partial-insert regression
// test: a summary rejected on its i-th triplet (wrong dimensionality)
// must leave the tree, catalog, and drift accumulators exactly as they
// were — no orphaned records for scans to surface.
func TestInsertFailureLeavesIndexUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	_, _, ix := buildCorpus(t, r, 10, 8)
	lenBefore := ix.Len()
	videosBefore := ix.Videos()
	driftBefore := ix.DriftAngle()

	bad := core.Summary{VideoID: 999, FrameCount: 60}
	good := makeVideo(r, 8, 1, 30)
	gs := core.Summarize(999, good, core.Options{Epsilon: testEps, Seed: 5})
	bad.Triplets = append(bad.Triplets, gs.Triplets...)
	// The poisoned triplet comes *after* valid ones, so a non-atomic
	// insert would orphan the earlier records.
	bad.Triplets = append(bad.Triplets, core.NewViTri(vec.Vector{0.5, 0.5}, 0.05, 3))

	if err := ix.Insert(bad); err == nil {
		t.Fatal("insert of mixed-dimensionality summary succeeded")
	}
	if got := ix.Len(); got != lenBefore {
		t.Fatalf("tree has %d records after failed insert, want %d", got, lenBefore)
	}
	if got := ix.Videos(); got != videosBefore {
		t.Fatalf("catalog has %d videos after failed insert, want %d", got, videosBefore)
	}
	if got := ix.DriftAngle(); got != driftBefore {
		t.Fatalf("drift accumulators moved: %v -> %v", driftBefore, got)
	}
	if ix.Contains(999) {
		t.Fatal("failed insert left video 999 in the catalog")
	}
	if err := ix.CheckTree(); err != nil {
		t.Fatal(err)
	}
	// The same summary without the poisoned triplet inserts cleanly.
	if err := ix.Insert(gs); err != nil {
		t.Fatal(err)
	}
	if got := ix.Len(); got != lenBefore+len(gs.Triplets) {
		t.Fatalf("tree has %d records after clean insert, want %d", got, lenBefore+len(gs.Triplets))
	}
}

// TestInsertPageWriteFailureLeavesIndexUnchanged: a page write that
// fails while a new video's records go into the tree must fail Insert
// with the pager's error and leave no trace of the video — not in the
// catalog, not in the tree, not in any later ranking. The write that
// fails is the second of the insert, so the first record is already in
// the tree and has to be rolled back.
func TestInsertPageWriteFailureLeavesIndexUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	videos := make([][]vec.Vector, 10)
	for i := range videos {
		videos[i] = makeVideo(r, 8, 3, 30)
	}
	sums := summarizeAll(videos)
	mem := pager.NewMem()
	faulty := pager.NewFaulty(mem, 1)
	ix, err := Build(sums, Options{Epsilon: testEps, NewPager: func() pager.Pager { return faulty }})
	if err != nil {
		t.Fatal(err)
	}
	lenBefore, videosBefore := ix.Len(), ix.Videos()

	const vid = 999
	extra := makeVideo(r, 8, 3, 30)
	s := core.Summarize(vid, extra, core.Options{Epsilon: testEps, Seed: 7})
	if len(s.Triplets) < 2 {
		t.Fatalf("new video has %d triplets, want at least 2", len(s.Triplets))
	}
	// Every write so far reached mem, so the next write the wrapper sees
	// is number writes+1: let that one through and fail the one after.
	writesBefore := mem.Stats().Writes
	faulty.WriteFailEvery = int(writesBefore) + 2
	if err := ix.Insert(s); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("Insert over a failing page write returned %v, want %v", err, pager.ErrInjected)
	}
	// One write put the first record in, at least one more took it out.
	if w := mem.Stats().Writes - writesBefore; w < 2 {
		t.Fatalf("%d page writes reached the store; the failure did not land mid-insert", w)
	}
	if ix.Contains(vid) {
		t.Fatal("failed insert left the video in the catalog")
	}
	if got := ix.Len(); got != lenBefore {
		t.Fatalf("tree has %d records after failed insert, want %d", got, lenBefore)
	}
	if got := ix.Videos(); got != videosBefore {
		t.Fatalf("catalog has %d videos after failed insert, want %d", got, videosBefore)
	}
	if err := ix.CheckTree(); err != nil {
		t.Fatal(err)
	}
	for _, q := range append([]core.Summary{s}, sums...) {
		for _, mode := range []Mode{Naive, Composed} {
			res, _, err := ix.Search(&q, len(sums)+1, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res {
				if m.VideoID == vid {
					t.Fatalf("%v: query %d ranks the failed video: %+v", mode, q.VideoID, res)
				}
			}
		}
	}
}

// TestCorruptLeafRecordFailsQuery: a leaf record that no longer decodes
// must fail the operation that met it. The scan callbacks used to answer a
// decode error by stopping the scan and dropping the error, so Search
// returned a silently truncated ranking and Rebuild silently shed every
// record after the bad one.
func TestCorruptLeafRecordFailsQuery(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	videos := make([][]vec.Vector, 12)
	for i := range videos {
		videos[i] = makeVideo(r, 8, 3, 30)
	}
	sums := summarizeAll(videos)
	var mem *pager.Mem // the built tree's store; a rebuild gets a fresh one
	ix, err := Build(sums, Options{Epsilon: testEps, NewPager: func() pager.Pager {
		m := pager.NewMem()
		if mem == nil {
			mem = m
		}
		return m
	}})
	if err != nil {
		t.Fatal(err)
	}
	records := ix.Len()

	// Overwrite the last record of the first leaf page with a NaN radius
	// and re-seal the page (btree header: type at byte 0, 1 = leaf; entry
	// count at bytes 1..3; CRC-32 at bytes 8..12 over the page with that
	// field zeroed; entries from byte 16 as key(8) + record), so the tree's
	// checksum passes and the damage reaches the record decoder.
	var (
		page pager.Page
		id   pager.PageID
	)
	for id = 0; ; id++ {
		if int(id) >= mem.NumPages() {
			t.Fatal("no leaf page found")
		}
		if err := mem.Read(id, &page); err != nil {
			t.Fatal(err)
		}
		if page[0] == 1 {
			break
		}
	}
	last := int(binary.LittleEndian.Uint16(page[1:])) - 1
	recOff := 16 + last*(8+RecordSizeV3(8)) + 8
	vid := int32(binary.LittleEndian.Uint32(page[recOff:]))
	binary.LittleEndian.PutUint32(page[recOff+12:], math.Float32bits(float32(math.NaN())))
	binary.LittleEndian.PutUint32(page[8:], 0)
	binary.LittleEndian.PutUint32(page[8:], crc32.ChecksumIEEE(page[:]))
	if err := mem.Write(id, &page); err != nil {
		t.Fatal(err)
	}

	// The damaged record's own video as the query: its range covers the
	// record's key in both modes.
	q := &sums[vid]
	for _, mode := range []Mode{Naive, Composed} {
		if res, _, err := ix.Search(q, 10, mode); err == nil {
			t.Fatalf("%v: Search over a corrupt leaf returned %d results and no error", mode, len(res))
		}
		if res, _, err := ix.SearchImage(q, 10, mode); err == nil {
			t.Fatalf("%v: SearchImage over a corrupt leaf returned %d results and no error", mode, len(res))
		}
	}
	if err := ix.Rebuild(); err == nil {
		t.Fatalf("Rebuild over a corrupt leaf succeeded, keeping %d of %d records", ix.Len(), records)
	}
}
