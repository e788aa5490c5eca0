package vitri

import (
	"math"
	"math/rand"
	"testing"

	"vitri/internal/dataset"
	"vitri/internal/refpoint"
)

// synthVideo makes a video of a few gaussian shots in [0,1]^dim.
func synthVideo(r *rand.Rand, dim, shots, perShot int) []Vector {
	var frames []Vector
	for s := 0; s < shots; s++ {
		center := make(Vector, dim)
		for j := range center {
			center[j] = 0.2 + 0.6*r.Float64()
		}
		for f := 0; f < perShot; f++ {
			p := make(Vector, dim)
			for j := range p {
				p[j] = center[j] + r.NormFloat64()*0.02
			}
			frames = append(frames, p)
		}
	}
	return frames
}

func noisyCopy(r *rand.Rand, frames []Vector, sigma float64) []Vector {
	out := make([]Vector, len(frames))
	for i, f := range frames {
		p := make(Vector, len(f))
		for j := range f {
			p[j] = f[j] + r.NormFloat64()*sigma
		}
		out[i] = p
	}
	return out
}

func TestNewPanicsWithoutEpsilon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{})
}

func TestEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db := New(Options{Epsilon: 0.3, Seed: 7})
	videos := make([][]Vector, 25)
	for i := range videos {
		videos[i] = synthVideo(r, 8, 3, 25)
		if err := db.Add(i, videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 25 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.Triplets() == 0 {
		t.Fatal("no triplets accumulated")
	}
	query := noisyCopy(r, videos[9], 0.01)
	matches, err := db.Search(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].VideoID != 9 {
		t.Fatalf("top match = %+v, want video 9", matches)
	}
	// Stats flow after the first search.
	if db.PagerStats().Reads == 0 {
		t.Fatal("no page reads recorded")
	}
	// Adding after the index exists must keep search consistent.
	if err := db.Add(100, synthVideo(r, 8, 2, 20)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 26 {
		t.Fatalf("Len after insert = %d", db.Len())
	}
	matches2, err := db.Search(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if matches2[0].VideoID != 9 {
		t.Fatalf("top match changed after insert: %+v", matches2[0])
	}
}

func TestAddValidation(t *testing.T) {
	db := New(Options{Epsilon: 0.3})
	if err := db.Add(0, nil); err == nil {
		t.Fatal("expected error for empty video")
	}
	r := rand.New(rand.NewSource(2))
	v := synthVideo(r, 4, 1, 10)
	if err := db.Add(1, v); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(1, v); err == nil {
		t.Fatal("expected duplicate id error")
	}
	if err := db.AddSummary(Summary{VideoID: -1}); err == nil {
		t.Fatal("expected negative id error")
	}
	if err := db.AddSummary(Summary{VideoID: 5}); err == nil {
		t.Fatal("expected empty summary error")
	}
}

func TestSearchEmptyDatabase(t *testing.T) {
	db := New(Options{Epsilon: 0.3})
	if _, err := db.Search([]Vector{{1, 2}}, 3); err == nil {
		t.Fatal("expected error on empty database")
	}
	if _, err := db.Search(nil, 3); err == nil {
		t.Fatal("expected error on empty query")
	}
}

func TestSummarizeAndSimilarity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := synthVideo(r, 8, 2, 30)
	b := noisyCopy(r, a, 0.01)
	c := synthVideo(r, 8, 2, 30)
	sa := Summarize(0, a, 0.3, 1)
	sb := Summarize(1, b, 0.3, 2)
	sc := Summarize(2, c, 0.3, 3)
	if sim := Similarity(&sa, &sb); sim < 0.1 {
		t.Fatalf("near-duplicate summary similarity = %v", sim)
	}
	if Similarity(&sa, &sb) <= Similarity(&sa, &sc) {
		t.Fatal("duplicate not ranked above unrelated")
	}
}

func TestExactSimilarityFacade(t *testing.T) {
	x := []Vector{{0, 0}, {1, 1}}
	if got := ExactSimilarity(x, x, 0.01); got != 1 {
		t.Fatalf("self exact similarity = %v", got)
	}
}

func TestSearchSummaryModesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	db := New(Options{Epsilon: 0.3, Seed: 1})
	videos := make([][]Vector, 15)
	for i := range videos {
		videos[i] = synthVideo(r, 8, 2, 20)
		if err := db.Add(i, videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	q := Summarize(-1, noisyCopy(r, videos[4], 0.01), 0.3, 9)
	rn, sn, err := db.SearchSummary(&q, 10, Naive)
	if err != nil {
		t.Fatal(err)
	}
	rc, sc, err := db.SearchSummary(&q, 10, Composed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rn) != len(rc) {
		t.Fatalf("mode result counts differ: %d vs %d", len(rn), len(rc))
	}
	for i := range rn {
		if rn[i].VideoID != rc[i].VideoID || math.Abs(rn[i].Similarity-rc[i].Similarity) > 1e-12 {
			t.Fatalf("modes disagree at %d: %+v vs %+v", i, rn[i], rc[i])
		}
	}
	if sc.Ranges > sn.Ranges {
		t.Fatalf("composed used more ranges: %d > %d", sc.Ranges, sn.Ranges)
	}
}

func TestDriftPolicyRebuilds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dim := 6
	mk := func(axis, id int) []Vector {
		var frames []Vector
		for f := 0; f < 30; f++ {
			p := make(Vector, dim)
			for j := range p {
				p[j] = 0.5 + r.NormFloat64()*0.01
			}
			p[axis] += r.NormFloat64() * 0.3
			frames = append(frames, p)
		}
		return frames
	}
	db := New(Options{Epsilon: 0.3, MaxDriftAngle: 0.2, Seed: 1})
	for i := 0; i < 8; i++ {
		if err := db.Add(i, mk(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Force the index to exist.
	if _, err := db.Search(mk(0, 99), 3); err != nil {
		t.Fatal(err)
	}
	// Flood with rotated data; the drift policy must keep the angle low.
	for i := 100; i < 140; i++ {
		if err := db.Add(i, mk(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if a := db.DriftAngle(); a > 0.25 {
		t.Fatalf("drift angle %v despite rebuild policy", a)
	}
	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndCheckIndex(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	db := New(Options{Epsilon: 0.3, Seed: 1})
	// Before the index exists: zero stats, nil check.
	st, err := db.Stats()
	if err != nil || st.Entries != 0 {
		t.Fatalf("pre-index stats = %+v, %v", st, err)
	}
	if err := db.CheckIndex(); err != nil {
		t.Fatalf("pre-index check: %v", err)
	}
	for i := 0; i < 15; i++ {
		if err := db.Add(i, synthVideo(r, 8, 2, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Search(synthVideo(r, 8, 1, 5), 3); err != nil {
		t.Fatal(err)
	}
	st, err = db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || st.LeafNodes == 0 || st.Height < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if int(st.Entries) != db.Triplets() {
		t.Fatalf("Entries %d != Triplets %d", st.Entries, db.Triplets())
	}
	if err := db.CheckIndex(); err != nil {
		t.Fatalf("CheckIndex: %v", err)
	}
	if db.Epsilon() != 0.3 {
		t.Fatalf("Epsilon = %v", db.Epsilon())
	}
}

// TestDefaultIndexPrunes pins the default index to the paper's: with no
// option naming a reference point, every shard keys its tree by Theorem
// 1's O′, and on the paper-shaped synthetic corpus a near-duplicate query
// visits well under the whole database. Under the space-center reference
// point the same queries visit every triplet.
func TestDefaultIndexPrunes(t *testing.T) {
	sums, err := dataset.GenerateSummaries(dataset.DefaultSummaryConfig(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	db := New(Options{Epsilon: 0.3})
	for _, s := range sums {
		if err := db.AddSummary(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.forceBuild(); err != nil {
		t.Fatal(err)
	}
	if k := db.shards[0].ix.Transform().Kind(); k != refpoint.Optimal {
		t.Fatalf("default reference point is %v, want %v", k, refpoint.Optimal)
	}
	rng := rand.New(rand.NewSource(1))
	const queries = 20
	frac := 0.0
	for i := 0; i < queries; i++ {
		q := dataset.QuerySummary(&sums[rng.Intn(len(sums))], 10_000_000+i, 0.01, rng)
		_, stats, err := db.SearchSummary(&q, 10, Composed)
		if err != nil {
			t.Fatal(err)
		}
		frac += float64(stats.Candidates) / float64(db.Triplets())
	}
	if mean := frac / queries; mean >= 0.7 {
		t.Fatalf("mean candidates/triplets = %.3f, want < 0.7: the default index does not prune", mean)
	} else {
		t.Logf("mean candidates/triplets = %.3f over %d triplets", mean, db.Triplets())
	}
}
