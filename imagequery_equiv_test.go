package vitri

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vitri/internal/core"
)

// Differential suite for the query-by-image workload: SearchImage must be
// bit-identical to a brute-force per-triplet scan, at every shard count
// and under every pre-filter knob, and its stats must obey the same
// ops+skips accounting invariant as whole-video search. The oracle shares
// no machinery with the index path — it summarizes each video directly
// and takes the max SharedFrames over all of its triplets — so agreement
// here covers the range radius (no false dismissals for a zero-radius-
// class probe), the signature gate, the quantized leaf decode and the
// scatter-gather merge at once.

// imageOracle ranks a corpus against one frame by brute force: each
// video's score is the maximum estimated shared-frame count between the
// probe's single triplet and any triplet of the video's summary
// (summarized exactly as Add does). Videos with no positive cell are
// omitted, ties break by id, the list truncates at k.
func imageOracle(t *testing.T, db *DB, videos []Video, frame Vector, k int) []Match {
	t.Helper()
	q, err := db.ImageSummary(frame)
	if err != nil {
		t.Fatalf("ImageSummary: %v", err)
	}
	if len(q.Triplets) != 1 {
		t.Fatalf("image probe summarized to %d triplets, want 1", len(q.Triplets))
	}
	qt := &q.Triplets[0]
	var out []Match
	for i := range videos {
		v := &videos[i]
		s := Summarize(v.ID, v.Frames, db.Epsilon(), db.Seed()+int64(v.ID))
		best := 0.0
		for ti := range s.Triplets {
			if sh := core.SharedFrames(qt, &s.Triplets[ti]); sh > best {
				best = sh
			}
		}
		if best > 0 {
			out = append(out, Match{VideoID: v.ID, Similarity: best, Shared: best})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].VideoID < out[j].VideoID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// overlapClusterVideo builds a video of two gaussian frame clusters whose
// summarized hyperspheres overlap: centers 0.25 apart with radii around
// ε/2, so a probe at the midpoint scores positive SharedFrames against
// BOTH triplets. That is the configuration where the max-cell fold and
// the clamped sum fold provably differ — the corpus member that gives the
// oracle suite its teeth.
func overlapClusterVideo(id, dim int) Video {
	r := rand.New(rand.NewSource(int64(id)*31 + 5))
	frames := make([]Vector, 0, 60)
	for c := 0; c < 2; c++ {
		for i := 0; i < 30; i++ {
			f := make(Vector, dim)
			for j := range f {
				f[j] = 0.5 + r.NormFloat64()*0.04
			}
			f[0] += 0.25 * float64(c)
			frames = append(frames, f)
		}
	}
	return Video{ID: id, Frames: frames}
}

// overlapProbe is the midpoint of overlapClusterVideo's two cluster
// centers.
func overlapProbe(dim int) Vector {
	f := make(Vector, dim)
	for j := range f {
		f[j] = 0.5
	}
	f[0] += 0.125
	return f
}

// imageProbes derives a deterministic probe set from the corpus: frames
// of indexed videos (guaranteed hits), plus jittered copies and one
// uniform histogram (a probe with no planted match).
func imageProbes(videos []Video, n int) []Vector {
	r := rand.New(rand.NewSource(99))
	var probes []Vector
	for len(probes) < n-1 {
		v := &videos[r.Intn(len(videos))]
		f := v.Frames[r.Intn(len(v.Frames))]
		probes = append(probes, f)
		noisy := make(Vector, len(f))
		sum := 0.0
		for i := range f {
			noisy[i] = f[i] + math.Abs(r.NormFloat64())*0.002
			sum += noisy[i]
		}
		for i := range noisy {
			noisy[i] /= sum
		}
		probes = append(probes, noisy)
	}
	dim := len(videos[0].Frames[0])
	flat := make(Vector, dim)
	for i := range flat {
		flat[i] = 1 / float64(dim)
	}
	return append(probes[:n-1], flat)
}

// TestSearchImageEquivalence proves the image workload against the
// brute-force oracle across the full configuration matrix: shard counts
// {1, 2, 3, 8} × signature tier on/off × quantized leaves on/off, both
// query modes, and the tier must demonstrably fire over the probe set.
// Rankings compare by Float64bits. The work counters are checked per row
// against a both-off baseline (see checkEquiv in shard_equiv_test.go for
// why the rows differ): the default rows (fitted O′) against the both-off
// build at the same shard count, the space-center rows against the
// single-shard both-off build — equal Candidates, and SimilarityOps +
// SignatureSkips equal to the baseline's op count.
func TestSearchImageEquivalence(t *testing.T) {
	videos := ingestCorpus(91, 48)
	videos = append(videos, overlapClusterVideo(len(videos), 8))
	probes := append(imageProbes(videos[:len(videos)-1], 8), overlapProbe(8))
	const k = 10

	type config struct {
		name  string
		noSig bool
		unq   bool
	}
	// both-off runs first: it is the baseline the others compare with.
	configs := []config{
		{"both-off", true, true},
		{"default", false, false},
		{"prefilter-off", true, false},
		{"unquantized", false, true},
	}

	totalSkips := 0
	for _, spaceCenter := range []bool{false, true} {
		// Baseline stats per (probe, mode).
		var base map[int]map[QueryMode]SearchStats
		for _, shards := range equivShardCounts {
			if !spaceCenter || shards == 1 {
				base = make(map[int]map[QueryMode]SearchStats)
			}
			for _, cfg := range configs {
				row := fmt.Sprintf("shards=%d %s", shards, cfg.name)
				if spaceCenter {
					row = "space-center " + row
				}
				db := newTierDB(Options{Epsilon: 0.3, Seed: 7, Shards: shards},
					tierHooks{noSig: cfg.noSig, unquantized: cfg.unq, spaceCenter: spaceCenter})
				if _, err := db.AddBatch(videos); err != nil {
					t.Fatalf("%s: AddBatch: %v", row, err)
				}
				if err := db.forceBuild(); err != nil {
					t.Fatalf("%s: forceBuild: %v", row, err)
				}
				for pi, frame := range probes {
					want := imageOracle(t, db, videos, frame, k)
					for _, mode := range []QueryMode{Naive, Composed} {
						got, stats, err := db.SearchImage(frame, k, mode)
						if err != nil {
							t.Fatalf("%s probe %d: SearchImage: %v", row, pi, err)
						}
						if !matchesIdentical(got, want) {
							t.Fatalf("%s probe %d mode %v: ranking diverges from oracle\n got: %+v\nwant: %+v",
								row, pi, mode, got, want)
						}
						if cfg.noSig && stats.SignatureSkips != 0 {
							t.Fatalf("%s probe %d: %d skips with the tier disabled", row, pi, stats.SignatureSkips)
						}
						if stats.Candidates > db.Triplets() {
							t.Fatalf("%s probe %d: %d candidates among %d triplets", row, pi, stats.Candidates, db.Triplets())
						}
						if base[pi] == nil {
							base[pi] = make(map[QueryMode]SearchStats)
						}
						b, ok := base[pi][mode]
						if !ok {
							base[pi][mode] = stats
							continue
						}
						ops := stats.SimilarityOps + stats.SignatureSkips
						if stats.Candidates != b.Candidates || ops != b.SimilarityOps {
							t.Fatalf("%s probe %d mode %v: candidates %d, ops(%d)+skips(%d) = %d; want baseline %d candidates, %d ops",
								row, pi, mode, stats.Candidates, stats.SimilarityOps, stats.SignatureSkips, ops, b.Candidates, b.SimilarityOps)
						}
						if cfg.name == "default" {
							totalSkips += stats.SignatureSkips
						}
					}
				}
			}
		}
	}
	if totalSkips == 0 {
		t.Fatal("signature tier never pruned an image candidate; the equivalence claim is vacuous")
	}
}

// TestSearchImageOracleHasTeeth re-runs one configuration against a
// deliberately broken oracle — the clamped *sum* fold whole-video search
// uses instead of the image workload's max-cell fold — and requires a
// divergence. If this ever passes silently, the corpus has degenerated to
// one triplet per video and the suite above stopped proving fold
// correctness.
func TestSearchImageOracleHasTeeth(t *testing.T) {
	videos := ingestCorpus(91, 48)
	videos = append(videos, overlapClusterVideo(len(videos), 8))
	probes := append(imageProbes(videos[:len(videos)-1], 8), overlapProbe(8))
	const k = 10
	db := New(Options{Epsilon: 0.3, Seed: 7})
	if _, err := db.AddBatch(videos); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	diverged := false
	for _, frame := range probes {
		q, err := db.ImageSummary(frame)
		if err != nil {
			t.Fatalf("ImageSummary: %v", err)
		}
		qt := &q.Triplets[0]
		var wrong []Match
		for i := range videos {
			v := &videos[i]
			s := Summarize(v.ID, v.Frames, db.Epsilon(), db.Seed()+int64(v.ID))
			sum := 0.0
			for ti := range s.Triplets {
				sum += core.SharedFrames(qt, &s.Triplets[ti])
			}
			if c := float64(qt.Count); sum > c {
				sum = c
			}
			if sum > 0 {
				wrong = append(wrong, Match{VideoID: v.ID, Similarity: sum, Shared: sum})
			}
		}
		sort.Slice(wrong, func(i, j int) bool {
			if wrong[i].Similarity != wrong[j].Similarity {
				return wrong[i].Similarity > wrong[j].Similarity
			}
			return wrong[i].VideoID < wrong[j].VideoID
		})
		if len(wrong) > k {
			wrong = wrong[:k]
		}
		got, _, err := db.SearchImage(frame, k, Composed)
		if err != nil {
			t.Fatalf("SearchImage: %v", err)
		}
		if !matchesIdentical(got, wrong) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("sum-fold oracle agreed with SearchImage on every probe; the max-fold equivalence test has no teeth")
	}
}

// TestSearchImageValidation covers the probe-side error paths.
func TestSearchImageValidation(t *testing.T) {
	db := New(Options{Epsilon: 0.3, Seed: 7})
	videos := ingestCorpus(92, 4)
	if _, err := db.AddBatch(videos); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if _, _, err := db.SearchImage(nil, 5, Composed); err == nil {
		t.Error("empty frame accepted")
	}
	if _, _, err := db.SearchImage(Vector{0.5, math.NaN()}, 5, Composed); err == nil {
		t.Error("NaN frame accepted")
	}
	if _, _, err := db.SearchImage(Vector{0.5, math.Inf(1)}, 5, Composed); err == nil {
		t.Error("Inf frame accepted")
	}
	if _, _, err := db.SearchImage(videos[0].Frames[0], 0, Composed); err == nil {
		t.Error("k=0 accepted")
	}
	empty := New(Options{Epsilon: 0.3, Seed: 7})
	if _, _, err := empty.SearchImage(Vector{1, 0}, 5, Composed); err == nil {
		t.Error("empty database should error")
	}
}
