package vitri

import (
	"bytes"
	"math/rand"
	"testing"
)

// Metamorphic search tests: the set of videos a database holds — not the
// order they arrived in — determines every search observable. The engine
// earns this through canonical construction (bulk builds sort summaries
// by id first, so the mapper's reference point and the packed tree
// depend only on the set) and the canonical similarity fold; the tests
// here drive permuted insertion orders and mixed ingest paths through
// one-shard and sharded databases and require bit-identical rankings
// AND identical PageReads — the paper's headline I/O metric must not
// wobble with ingest history. Each test's canonical build is first
// pinned to a bare engine holding the same videos (checkAgainstRef), so
// the property is anchored outside the router.

// permuted returns videos reordered by the permutation seed.
func permuted(videos []Video, seed int64) []Video {
	out := append([]Video(nil), videos...)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildVariant loads videos into a fresh database via the given ingest
// path ("batch": one AddBatch; "singles": an Add loop; "halves": two
// AddBatches) and forces the bulk index build.
func buildVariant(t *testing.T, videos []Video, shards int, path string) *DB {
	t.Helper()
	db := New(Options{Epsilon: 0.3, Seed: 7, Shards: shards})
	switch path {
	case "singles":
		for _, v := range videos {
			if err := db.Add(v.ID, v.Frames); err != nil {
				t.Fatalf("Add(%d): %v", v.ID, err)
			}
		}
	case "halves":
		for _, half := range [][]Video{videos[:len(videos)/2], videos[len(videos)/2:]} {
			if _, err := db.AddBatch(half); err != nil {
				t.Fatalf("AddBatch half: %v", err)
			}
		}
	default:
		if _, err := db.AddBatch(videos); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
	if err := db.forceBuild(); err != nil {
		t.Fatalf("forceBuild: %v", err)
	}
	return db
}

// buildRef loads videos into the bare-engine reference with one batch and
// forces the bulk index build.
func buildRef(t *testing.T, videos []Video) *refDB {
	t.Helper()
	ref := newRef(Options{Epsilon: 0.3, Seed: 7})
	if _, err := ref.AddBatch(videos); err != nil {
		t.Fatalf("reference AddBatch: %v", err)
	}
	if err := ref.e.build(); err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return ref
}

// TestShardMetamorphicInsertionOrder: at shard counts 1 and 3, every
// permutation of the ingest order and every ingest path yields a
// database whose searches are bit-identical to the reference build —
// matches, similarities, and the full SearchStats including PageReads.
func TestShardMetamorphicInsertionOrder(t *testing.T) {
	videos := ingestCorpus(90, 32)
	queries := equivQueries(6)
	for _, shards := range []int{1, 3} {
		shards := shards
		t.Run(shardName(shards), func(t *testing.T) {
			ref := buildVariant(t, videos, shards, "batch")
			checkAgainstRef(t, buildRef(t, videos), ref, shards, queries, 8)
			refBytes := storeBytes(t, ref)
			type variant struct {
				name   string
				videos []Video
				path   string
			}
			variants := []variant{
				{"reversed-singles", permuted(videos, 1), "singles"},
				{"shuffled-batch", permuted(videos, 2), "batch"},
				{"shuffled-halves", permuted(videos, 3), "halves"},
			}
			for _, v := range variants {
				db := buildVariant(t, v.videos, shards, v.path)
				if got := storeBytes(t, db); !bytes.Equal(got, refBytes) {
					t.Fatalf("%s: contents diverge from reference build", v.name)
				}
				for qi := range queries {
					for _, mode := range []QueryMode{Naive, Composed} {
						wantRes, wantStats, err := ref.SearchSummary(&queries[qi], 8, mode)
						if err != nil {
							t.Fatalf("reference search: %v", err)
						}
						gotRes, gotStats, err := db.SearchSummary(&queries[qi], 8, mode)
						if err != nil {
							t.Fatalf("%s: search: %v", v.name, err)
						}
						if !matchesIdentical(gotRes, wantRes) {
							t.Fatalf("%s query %d mode %v: permuted ingest changed the ranking", v.name, qi, mode)
						}
						if gotStats != wantStats {
							t.Fatalf("%s query %d mode %v: permuted ingest changed SearchStats: %+v vs %+v",
								v.name, qi, mode, gotStats, wantStats)
						}
					}
				}
			}
		})
	}
}

// TestShardMetamorphicPreFilterNeutral: the insertion-order metamorphic
// property must hold regardless of the signature tier — permuted ingest
// into a tier-off engine yields the same bit-identical ranking as the
// canonical tier-on build, and the tier-on build's pruning accounting
// (ops + skips) equals the tier-off build's op count query by query.
func TestShardMetamorphicPreFilterNeutral(t *testing.T) {
	videos := ingestCorpus(90, 32)
	queries := equivQueries(6)
	for _, shards := range []int{1, 3} {
		shards := shards
		t.Run(shardName(shards), func(t *testing.T) {
			ref := buildVariant(t, videos, shards, "batch")
			checkAgainstRef(t, buildRef(t, videos), ref, shards, queries, 8)
			off := newTierDB(Options{Epsilon: 0.3, Seed: 7, Shards: shards}, tierHooks{noSig: true, unquantized: true})
			for _, v := range permuted(videos, 4) {
				if err := off.Add(v.ID, v.Frames); err != nil {
					t.Fatalf("Add(%d): %v", v.ID, err)
				}
			}
			if err := off.forceBuild(); err != nil {
				t.Fatalf("forceBuild: %v", err)
			}
			if got, want := storeBytes(t, off), storeBytes(t, ref); !bytes.Equal(got, want) {
				t.Fatal("tier-off permuted build diverges from canonical contents")
			}
			for qi := range queries {
				for _, mode := range []QueryMode{Naive, Composed} {
					wantRes, wantStats, err := off.SearchSummary(&queries[qi], 8, mode)
					if err != nil {
						t.Fatalf("tier-off search: %v", err)
					}
					gotRes, gotStats, err := ref.SearchSummary(&queries[qi], 8, mode)
					if err != nil {
						t.Fatalf("tier-on search: %v", err)
					}
					if !matchesIdentical(gotRes, wantRes) {
						t.Fatalf("query %d mode %v: tier on/off builds disagree on the ranking", qi, mode)
					}
					if gotStats.Candidates != wantStats.Candidates ||
						gotStats.SimilarityOps+gotStats.SignatureSkips != wantStats.SimilarityOps {
						t.Fatalf("query %d mode %v: pruning accounting diverges: on %+v, off %+v",
							qi, mode, gotStats, wantStats)
					}
				}
			}
		})
	}
}

// TestShardMetamorphicRemovalNeutral: adding videos and removing them
// again leaves search observables identical to a build that never saw
// them, at both shard counts. (The removed set must not shift the bulk
// build, so the extra videos are inserted after the index is built —
// the incremental path — and removed again.)
func TestShardMetamorphicRemovalNeutral(t *testing.T) {
	videos := ingestCorpus(91, 24)
	extra := make([]Video, 6)
	r := rand.New(rand.NewSource(92))
	for i := range extra {
		extra[i] = Video{ID: 500 + i, Frames: synthVideo(r, 8, 2, 5)}
	}
	queries := equivQueries(4)
	for _, shards := range []int{1, 3} {
		shards := shards
		t.Run(shardName(shards), func(t *testing.T) {
			ref := buildVariant(t, videos, shards, "batch")
			checkAgainstRef(t, buildRef(t, videos), ref, shards, queries, 8)
			churned := buildVariant(t, videos, shards, "batch")
			for _, v := range extra {
				if err := churned.Add(v.ID, v.Frames); err != nil {
					t.Fatalf("churn Add(%d): %v", v.ID, err)
				}
			}
			for _, v := range extra {
				if err := churned.Remove(v.ID); err != nil {
					t.Fatalf("churn Remove(%d): %v", v.ID, err)
				}
			}
			if got, want := storeBytes(t, churned), storeBytes(t, ref); !bytes.Equal(got, want) {
				t.Fatal("add-then-remove churn changed the contents")
			}
			for qi := range queries {
				wantRes, _, err := ref.SearchSummary(&queries[qi], 8, Composed)
				if err != nil {
					t.Fatalf("reference search: %v", err)
				}
				gotRes, _, err := churned.SearchSummary(&queries[qi], 8, Composed)
				if err != nil {
					t.Fatalf("churned search: %v", err)
				}
				if !matchesIdentical(gotRes, wantRes) {
					t.Fatalf("query %d: add-then-remove churn changed the ranking", qi)
				}
			}
		})
	}
}
