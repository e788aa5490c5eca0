package baseline

import (
	"math"
	"math/rand"
	"testing"

	"vitri/internal/core"
	"vitri/internal/index"
	"vitri/internal/refpoint"
	"vitri/internal/vec"
)

func TestExactSimilarityKnown(t *testing.T) {
	x := []vec.Vector{{0}, {1}, {2}}
	y := []vec.Vector{{0.05}, {10}}
	// ε = 0.1: x[0]~y[0] only. Matched: 1 (x side) + 1 (y side) of 5.
	if got, want := ExactSimilarity(x, y, 0.1), 2.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExactSimilarity = %v want %v", got, want)
	}
}

func TestExactSimilarityIdentical(t *testing.T) {
	x := []vec.Vector{{1, 2}, {3, 4}}
	if got := ExactSimilarity(x, x, 0.01); got != 1 {
		t.Fatalf("self similarity = %v", got)
	}
}

func TestExactSimilarityEmpty(t *testing.T) {
	if got := ExactSimilarity(nil, []vec.Vector{{1}}, 0.1); got != 0 {
		t.Fatalf("empty similarity = %v", got)
	}
}

func TestExactSimilaritySymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mk := func(n int) []vec.Vector {
		out := make([]vec.Vector, n)
		for i := range out {
			out[i] = vec.Vector{r.Float64(), r.Float64()}
		}
		return out
	}
	for i := 0; i < 20; i++ {
		x, y := mk(10+r.Intn(20)), mk(10+r.Intn(20))
		if a, b := ExactSimilarity(x, y, 0.2), ExactSimilarity(y, x, 0.2); math.Abs(a-b) > 1e-12 {
			t.Fatalf("asymmetric: %v vs %v", a, b)
		}
	}
}

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

func TestExactKNNFindsDuplicate(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	corpus := make(map[int][]vec.Vector)
	for i := 0; i < 20; i++ {
		corpus[i] = makeVideo(r, 6, 2, 15)
	}
	q := perturb(r, corpus[11], 0.01)
	res := ExactKNN(q, corpus, 0.3, 5)
	if len(res) == 0 || res[0].VideoID != 11 {
		t.Fatalf("top result = %+v, want video 11", res)
	}
	if res[0].Similarity < 0.9 {
		t.Fatalf("exact near-duplicate similarity = %v", res[0].Similarity)
	}
}

const testEps = 0.3

func TestSeqStoreMatchesIndexSearch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	videos := make([][]vec.Vector, 30)
	sums := make([]core.Summary, len(videos))
	for i := range videos {
		// Twelve shots give each video enough clusters that folding them
		// in any order but the sorted one changes the last bits.
		videos[i] = makeVideo(r, 8, 12, 10)
		sums[i] = core.Summarize(i, videos[i], core.Options{Epsilon: testEps, Seed: int64(i)})
	}
	store, err := NewSeqStore(sums, testEps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 || store.Pages() == 0 {
		t.Fatal("empty store")
	}
	ix, err := index.Build(sums, index.Options{Epsilon: testEps, RefKind: refpoint.Optimal})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Summarize(999, perturb(r, videos[4], 0.02), core.Options{Epsilon: testEps, Seed: 77})
	rSeq, sSeq, err := store.Search(&q, 30)
	if err != nil {
		t.Fatal(err)
	}
	rIdx, sIdx, err := ix.Search(&q, 30, index.Composed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rSeq) != len(rIdx) {
		t.Fatalf("result counts differ: seq %d vs idx %d", len(rSeq), len(rIdx))
	}
	for i := range rSeq {
		if rSeq[i].VideoID != rIdx[i].VideoID || math.Float64bits(rSeq[i].Similarity) != math.Float64bits(rIdx[i].Similarity) {
			t.Fatalf("result %d: seq %+v vs idx %+v", i, rSeq[i], rIdx[i])
		}
	}
	// Sequential scan reads every page, each exactly once.
	if int(sSeq.PageReads) != store.Pages() {
		t.Fatalf("seqscan read %d of %d pages", sSeq.PageReads, store.Pages())
	}
	// And does all the similarity work.
	if sSeq.SimilarityOps != store.Len()*len(q.Triplets) {
		t.Fatalf("seqscan did %d sims, want %d", sSeq.SimilarityOps, store.Len()*len(q.Triplets))
	}
	if sIdx.SimilarityOps > sSeq.SimilarityOps {
		t.Fatalf("index did more similarity work (%d) than seqscan (%d)", sIdx.SimilarityOps, sSeq.SimilarityOps)
	}
}

func TestSeqStoreValidation(t *testing.T) {
	if _, err := NewSeqStore(nil, testEps, nil); err == nil {
		t.Fatal("expected error for empty summaries")
	}
	s := core.Summary{VideoID: 1, FrameCount: 1,
		Triplets: []core.ViTri{core.NewViTri(vec.Vector{1}, 0.1, 1)}}
	if _, err := NewSeqStore([]core.Summary{s}, 0, nil); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
	if _, err := NewSeqStore([]core.Summary{s, s}, testEps, nil); err == nil {
		t.Fatal("expected error for duplicate ids")
	}
	store, err := NewSeqStore([]core.Summary{s}, testEps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Search(&s, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestKeyframeSummarizeAndSimilarity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	v := makeVideo(r, 6, 3, 20)
	ks := SummarizeKeyframes(1, v, testEps, 1)
	// Nearby random shots may merge; at least two distinct clusters must
	// survive for this seed.
	if len(ks.Keyframes) < 2 {
		t.Fatalf("keyframes = %d, want >= 2", len(ks.Keyframes))
	}
	// Self similarity of the same summary is 1.
	if got := KeyframeSimilarity(&ks, &ks, testEps); got != 1 {
		t.Fatalf("self keyframe similarity = %v", got)
	}
	empty := KeyframeSummary{VideoID: 2}
	if got := KeyframeSimilarity(&ks, &empty, testEps); got != 0 {
		t.Fatalf("empty keyframe similarity = %v", got)
	}
}

func TestKeyframeKNNFindsDuplicate(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	videos := make([][]vec.Vector, 15)
	corpus := make([]KeyframeSummary, len(videos))
	for i := range videos {
		videos[i] = makeVideo(r, 6, 2, 20)
		corpus[i] = SummarizeKeyframes(i, videos[i], testEps, int64(i))
	}
	q := SummarizeKeyframes(99, perturb(r, videos[8], 0.01), testEps, 50)
	res := KeyframeKNN(&q, corpus, testEps, 3)
	if len(res) == 0 || res[0].VideoID != 8 {
		t.Fatalf("keyframe KNN top = %+v, want video 8", res)
	}
}

func TestSignatureScheme(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	videos := make([][]vec.Vector, 12)
	var sample []vec.Vector
	for i := range videos {
		videos[i] = makeVideo(r, 6, 2, 15)
		sample = append(sample, videos[i]...)
	}
	scheme, err := NewSignatureScheme(sample, 20, testEps, 7)
	if err != nil {
		t.Fatal(err)
	}
	sigs := make([]Signature, len(videos))
	for i := range videos {
		sigs[i] = scheme.Summarize(i, videos[i])
	}
	// Self-similarity is 1 by construction.
	if got := scheme.Similarity(&sigs[3], &sigs[3]); got != 1 {
		t.Fatalf("self signature similarity = %v", got)
	}
	q := scheme.Summarize(99, perturb(r, videos[5], 0.01))
	res := scheme.KNN(&q, sigs, 3)
	if len(res) == 0 || res[0].VideoID != 5 {
		t.Fatalf("signature KNN top = %+v, want video 5", res)
	}
}

func TestSignatureValidation(t *testing.T) {
	if _, err := NewSignatureScheme(nil, 5, testEps, 1); err == nil {
		t.Fatal("expected error for empty sample")
	}
	if _, err := NewSignatureScheme([]vec.Vector{{1}}, 0, testEps, 1); err == nil {
		t.Fatal("expected error for zero seeds")
	}
	if _, err := NewSignatureScheme([]vec.Vector{{1}}, 5, 0, 1); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
}
