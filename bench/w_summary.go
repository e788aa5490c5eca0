package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"vitri"
	"vitri/internal/core"
	"vitri/internal/dataset"
)

// summaryInputs is what knn-100k and image-100k generate from the seed: a
// corpus synthesized directly in ViTri space and a fixed query list.
type summaryInputs struct {
	sums    []vitri.Summary
	image   bool            // image-100k: the operation is a probe, not a whole-video query
	sources []int           // corpus index each query and probe derives from
	queries []vitri.Summary // near-duplicate summaries (knn-100k's operations)
	probes  []vitri.Vector  // single frames, a triplet centre each (image-100k's operations)
}

// stratifiedPick chooses n of the population's indices so that every seed
// sees the same distribution of size: the population is ordered by size,
// cut into n equal strata, and the seed picks one member per stratum and
// the order they are issued in. Query cost grows with query size, so
// without this the seed's luck in drawing sizes would move p50 and p90.
func stratifiedPick(rng *rand.Rand, n, population int, size func(i int) int) []int {
	idx := make([]int, population)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return size(idx[a]) < size(idx[b]) })
	picks := make([]int, n)
	for s := 0; s < n; s++ {
		lo, hi := s*population/n, (s+1)*population/n
		picks[s] = idx[lo+rng.Intn(hi-lo)]
	}
	rng.Shuffle(n, func(a, b int) { picks[a], picks[b] = picks[b], picks[a] })
	return picks
}

func genSummaryInputs(e *env, image bool) (*summaryInputs, error) {
	sums, err := dataset.GenerateSummaries(dataset.DefaultSummaryConfig(e.sz.triplets, e.cfg.seed))
	if err != nil {
		return nil, err
	}
	in := &summaryInputs{sums: sums, image: image}
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0x5eed))
	n := e.sz.knnQueries
	if image {
		n = e.sz.imageProbes
	}
	if n > len(sums) {
		return nil, fmt.Errorf("%d queries from %d videos", n, len(sums))
	}
	in.sources = stratifiedPick(rng, n, len(sums), func(i int) int { return len(sums[i].Triplets) })
	for qi, si := range in.sources {
		src := &sums[si]
		in.probes = append(in.probes, src.Triplets[rng.Intn(len(src.Triplets))].Position)
		in.queries = append(in.queries, dataset.QuerySummary(src, 1<<30+qi, 0.01, rng))
	}
	return in, nil
}

// buildSummaryDB is one cold set-up: default engine, every summary added,
// and the lazy index build forced by one search.
func buildSummaryDB(in *summaryInputs, opts vitri.Options) (*vitri.DB, error) {
	db := vitri.New(opts)
	for i := range in.sums {
		if err := db.AddSummary(in.sums[i]); err != nil {
			return nil, err
		}
	}
	if _, err := in.search(db, 0); err != nil {
		return nil, err
	}
	return db, nil
}

// search is the workload's operation i: one in-process KNN query or one
// image probe.
func (in *summaryInputs) search(db *vitri.DB, i int) ([]vitri.Match, error) {
	if in.image {
		ms, _, err := db.SearchImage(in.probes[i], topK, vitri.Composed)
		return ms, err
	}
	ms, _, err := db.SearchSummary(&in.queries[i], topK, vitri.Composed)
	return ms, err
}

// runSummary is the untraced run of knn-100k (image false) or image-100k.
func runSummary(image bool) func(e *env, t *tally) (map[string]metric, error) {
	return func(e *env, t *tally) (map[string]metric, error) {
		in, err := genSummaryInputs(e, image)
		if err != nil {
			return nil, err
		}
		db, setup, reps, err := measureSetup(e.sz.summaryReps, e.sz.setupFloor,
			func() (*vitri.DB, error) { return buildSummaryDB(in, e.options()) },
			(*vitri.DB).Close)
		if err != nil {
			return nil, err
		}
		defer db.Close()
		e.printf("corpus          videos=%d triplets=%d\n", db.Len(), db.Triplets())
		e.printf("operations      %d per pass, one closed-loop client in process\n", len(in.sources))
		printSetup(e, setup, reps)

		n := len(in.sources)
		last := make([][]vitri.Match, n) // each operation's latest ranking, verified after timing
		ph := closedLoop(n, e.duration(), func(i int) (uint64, error) {
			ms, err := in.search(db, i)
			if err == nil && len(ms) == 0 {
				err = errors.New("no matches")
			}
			last[i] = ms
			return matchDigest(ms), err
		}, t)

		if image {
			verifyProbes(db, in, last, t)
		} else {
			verifySources(in, last, t, e)
			verifyBruteForce(db, in, t)
		}

		m := map[string]metric{"setup_s": {setup, "s"}}
		if err := queryMetrics(e, &ph, m); err != nil {
			return nil, err
		}
		in.sums, in.queries, in.probes = nil, nil, nil
		m["heap_live_mb"] = metric{heapLiveMB(), "MiB"}
		runtime.KeepAlive(db)
		e.printf("results_digest  %#016x\n", ph.digest)
		return m, nil
	}
}

// verifySources checks every near-duplicate query against the video it
// was derived from: that video is in the top k, or it is provably
// out-ranked — its similarity to the query, computed here by
// vitri.Similarity with no index code, orders after the k-th match's.
// (Videos of this corpus share cluster centres, so now and then ten others
// are as close to a jittered copy as its source is.)
func verifySources(in *summaryInputs, last [][]vitri.Match, t *tally, e *env) {
	found := 0
	for i, ms := range last {
		src := &in.sums[in.sources[i]]
		if rankOf(ms, src.VideoID) >= 0 {
			found++
			t.ok()
			continue
		}
		if len(ms) < topK {
			t.fail("query %d: source video %d missing from a result of only %d matches", i, src.VideoID, len(ms))
			continue
		}
		// Similarities here are volume fractions as small as 1e-25, so
		// closeness is relative; a near-tie that is not bit-equal is the
		// two summation orders rounding apart and proves nothing either way.
		own, kth := vitri.Similarity(&in.queries[i], src), ms[len(ms)-1]
		t.check(own < kth.Similarity || closeTo(own, kth.Similarity) && (own != kth.Similarity || src.VideoID > kth.VideoID),
			"query %d: source video %d (similarity %g) missing from a result whose last match is video %d (similarity %g)", i, src.VideoID, own, kth.VideoID, kth.Similarity)
	}
	e.printf("recall          query source in the top %d for %d of %d queries (the rest provably out-ranked)\n", topK, found, len(last))
}

// closeTo reports whether two similarities agree to within 1e-9 of their
// size.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func rankOf(ms []vitri.Match, id int) int {
	for r, m := range ms {
		if m.VideoID == id {
			return r
		}
	}
	return -1
}

// verifyProbes checks every probe against the video it was cut from: that
// video is in the result, or it is provably out-ranked — its score,
// computed here from core.SharedFrames with no index code, orders after
// the k-th match's under the engine's (similarity desc, id asc) order.
// Centres are shared between videos of this corpus, so ties at the top
// score are common and the second case is not rare.
func verifyProbes(db *vitri.DB, in *summaryInputs, last [][]vitri.Match, t *tally) {
	for i, ms := range last {
		src := &in.sums[in.sources[i]]
		if len(ms) == 0 || rankOf(ms, src.VideoID) >= 0 {
			t.check(len(ms) > 0, "probe %d: no matches", i)
			continue
		}
		q, err := db.ImageSummary(in.probes[i])
		if err != nil {
			t.fail("probe %d: %v", i, err)
			continue
		}
		own := 0.0
		for j := range src.Triplets {
			own = math.Max(own, core.SharedFrames(&q.Triplets[0], &src.Triplets[j]))
		}
		kth := ms[len(ms)-1]
		t.check(len(ms) == topK && (own < kth.Similarity || own == kth.Similarity && src.VideoID > kth.VideoID),
			"probe %d: own video %d (score %g) missing from a result whose last match is video %d (score %g)", i, src.VideoID, own, kth.VideoID, kth.Similarity)
	}
}

// traceSummary is the traced run of knn-100k or image-100k. The index
// tier is replayed on the workload's own corpus; the request and write
// paths, which these workloads never enter, are probed on a small frame
// corpus from the same seed.
func traceSummary(image bool) func(e *env, t *tally) (map[string]metric, error) {
	return func(e *env, t *tally) (map[string]metric, error) {
		in, err := genSummaryInputs(e, image)
		if err != nil {
			return nil, err
		}
		db, err := buildSummaryDB(in, e.options())
		if err != nil {
			return nil, err
		}
		defer db.Close()
		e.printf("corpus          videos=%d triplets=%d\n", db.Len(), db.Triplets())

		side, err := genFrameInputs(e.sz.sideScale, e.cfg.seed, e.sz.sideTriplets, e.sz.traceOps)
		if err != nil {
			return nil, err
		}
		e.printf("side corpus     videos=%d frames=%d triplets=%d: server.*, core.summarize_*, temporal.*, journal.*, storefmt.*, index.insert_ms and the vitri write-path metrics are probed on it; they are off this workload's path\n",
			len(side.videos), side.frames, side.triplets)
		dur, err := openDurableWith(e, side.videos)
		if err != nil {
			return nil, err
		}
		// The handle live at exit: the write-path probe re-opens.
		defer e.closing("side durable engine", func() error { return dur.db.Close() })
		fx, err := newFrameFixture(side.videos, side.clips, e.cfg.seed)
		if err != nil {
			return nil, err
		}
		fx.db, fx.dur, fx.newcomers = dur.db, dur, clipsAsVideos(side.clips)
		side.videos = nil

		r := &tracedRun{e: e, t: t, fx: fx, ops: min(e.sz.traceOps, len(in.sources)),
			ix: &indexFixture{db: db, sums: in.sums, qsums: in.queries, probes: in.probes, image: image}}
		r.e2e = func(i int) error {
			_, err := in.search(db, i)
			return err
		}
		return r.run()
	}
}

// verifyBruteForce ranks the whole corpus against five of the queries
// with vitri.Similarity — no index code — and demands the engine's top k
// in the same order with the same similarities.
func verifyBruteForce(db *vitri.DB, in *summaryInputs, t *tally) {
	type scored struct {
		id  int
		sim float64
	}
	for qi := 0; qi < 5 && qi < len(in.queries); qi++ {
		q := &in.queries[qi]
		got, _, err := db.SearchSummary(q, topK, vitri.Composed)
		if err != nil {
			t.fail("brute-force check %d: %v", qi, err)
			continue
		}
		all := make([]scored, 0, len(in.sums))
		for i := range in.sums {
			if s := vitri.Similarity(q, &in.sums[i]); s > 0 {
				all = append(all, scored{in.sums[i].VideoID, s})
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].sim != all[b].sim {
				return all[a].sim > all[b].sim
			}
			return all[a].id < all[b].id
		})
		if len(all) > topK {
			all = all[:topK]
		}
		ok := len(all) == len(got)
		for i := 0; ok && i < len(all); i++ {
			ok = all[i].id == got[i].VideoID && closeTo(all[i].sim, got[i].Similarity)
		}
		t.check(ok, "query %d: engine top-%d differs from the brute-force ranking", qi, topK)
	}
}
