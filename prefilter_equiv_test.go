package vitri

import (
	"bytes"
	"testing"
)

// Differential suite for the signature pre-filter tier and the quantized
// leaf encoding. Both are pure accelerations: the tier skips candidates
// only when the grid bound PROVES zero shared frames, and quantized
// float32 leaves feed the same exact float64 catalog triplets into the
// similarity fold. So every configuration of the two tiers must return
// bit-identical rankings — compared by Float64bits, not a tolerance —
// and the only permitted difference is the SimilarityOps/SignatureSkips
// split in SearchStats.

// tierHooks names the engine test hooks the differential suites flip: the
// signature tier off, float64 leaves instead of quantized ones, and the
// fixed space-center reference point instead of the fitted O′.
type tierHooks struct {
	noSig, unquantized, spaceCenter bool
}

// set applies the hooks to every engine of db. It must run before
// anything builds an index: on New, or right after an open, since
// recovery only queues summaries and the index is built lazily.
func (h tierHooks) set(db *DB) {
	for _, e := range db.shards {
		h.setEngine(e)
	}
}

func (h tierHooks) setEngine(e *engine) {
	e.testNoSignatures, e.testFloat64Leaves, e.testSpaceCenter = h.noSig, h.unquantized, h.spaceCenter
}

// newTierDB is New with the given hooks set on every shard.
func newTierDB(opts Options, h tierHooks) *DB {
	db := New(opts)
	h.set(db)
	return db
}

// prefilterCorpusDB builds one engine configuration over the shared
// corpus.
func prefilterCorpusDB(t *testing.T, videos []Video, noSig, unquantized bool) *DB {
	t.Helper()
	db := newTierDB(Options{Epsilon: 0.3, Seed: 7}, tierHooks{noSig: noSig, unquantized: unquantized})
	if _, err := db.AddBatch(videos); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if err := db.forceBuild(); err != nil {
		t.Fatalf("forceBuild: %v", err)
	}
	return db
}

// TestPreFilterEquivalence is the tier's core differential test: default
// engine (signatures on, quantized leaves) against all three degraded
// configurations, on the same corpus and query set, both query modes.
// Asserts:
//
//   - rankings are bit-identical across all four configurations;
//   - Candidates is identical (the gate sits after candidate counting);
//   - the accounting invariant SimilarityOps_on + SignatureSkips_on ==
//     SimilarityOps_off — every pruned candidate is exactly one exact
//     evaluation saved, none vanish untallied;
//   - the tier actually fires (SignatureSkips > 0 over the query set) so
//     the equivalence claim is not vacuous;
//   - disabled configurations report zero skips.
func TestPreFilterEquivalence(t *testing.T) {
	videos := ingestCorpus(88, 48)
	queries := equivQueries(8)
	dflt := prefilterCorpusDB(t, videos, false, false)
	noSig := prefilterCorpusDB(t, videos, true, false)
	noQuant := prefilterCorpusDB(t, videos, false, true)
	noBoth := prefilterCorpusDB(t, videos, true, true)

	totalSkips := 0
	for qi := range queries {
		for _, mode := range []QueryMode{Naive, Composed} {
			wantRes, wantStats, err := noBoth.SearchSummary(&queries[qi], 10, mode)
			if err != nil {
				t.Fatalf("baseline search: %v", err)
			}
			if wantStats.SignatureSkips != 0 {
				t.Fatalf("baseline reports %d signature skips", wantStats.SignatureSkips)
			}
			for _, cfg := range []struct {
				name string
				db   *DB
				sigs bool
			}{
				{"default", dflt, true},
				{"prefilter-off", noSig, false},
				{"unquantized", noQuant, true},
			} {
				gotRes, gotStats, err := cfg.db.SearchSummary(&queries[qi], 10, mode)
				if err != nil {
					t.Fatalf("%s search: %v", cfg.name, err)
				}
				if !matchesIdentical(gotRes, wantRes) {
					t.Fatalf("%s query %d mode %v: ranking diverges from exact baseline", cfg.name, qi, mode)
				}
				if gotStats.Candidates != wantStats.Candidates {
					t.Fatalf("%s query %d mode %v: Candidates = %d, baseline %d",
						cfg.name, qi, mode, gotStats.Candidates, wantStats.Candidates)
				}
				if got := gotStats.SimilarityOps + gotStats.SignatureSkips; got != wantStats.SimilarityOps {
					t.Fatalf("%s query %d mode %v: ops(%d) + skips(%d) = %d, want baseline ops %d",
						cfg.name, qi, mode, gotStats.SimilarityOps, gotStats.SignatureSkips, got, wantStats.SimilarityOps)
				}
				if !cfg.sigs && gotStats.SignatureSkips != 0 {
					t.Fatalf("%s query %d mode %v: %d skips with the tier disabled", cfg.name, qi, mode, gotStats.SignatureSkips)
				}
				if cfg.name == "default" {
					totalSkips += gotStats.SignatureSkips
				}
			}
		}
	}
	if totalSkips == 0 {
		t.Fatal("signature tier never pruned a candidate over the whole query set; the equivalence test is vacuous")
	}
}

// TestPreFilterEquivalenceAfterChurn drives the incremental paths —
// post-build inserts and removes — through tier-on and tier-off engines
// and requires they stay bit-identical. Signatures are maintained
// incrementally on Add/Remove, so this is the test that would catch a
// stale-signature bug (a signature surviving its video's removal, or a
// new video searched before its signature exists).
func TestPreFilterEquivalenceAfterChurn(t *testing.T) {
	videos := ingestCorpus(89, 36)
	queries := equivQueries(5)
	on := New(Options{Epsilon: 0.3, Seed: 7})
	off := newTierDB(Options{Epsilon: 0.3, Seed: 7}, tierHooks{noSig: true, unquantized: true})
	for _, db := range []*DB{on, off} {
		equivApply(t, db, videos)
	}
	if got, want := storeBytes(t, on), storeBytes(t, off); !bytes.Equal(got, want) {
		t.Fatal("tier-on and tier-off contents diverge after churn")
	}
	for qi := range queries {
		for _, mode := range []QueryMode{Naive, Composed} {
			wantRes, wantStats, err := off.SearchSummary(&queries[qi], 10, mode)
			if err != nil {
				t.Fatalf("tier-off search: %v", err)
			}
			gotRes, gotStats, err := on.SearchSummary(&queries[qi], 10, mode)
			if err != nil {
				t.Fatalf("tier-on search: %v", err)
			}
			if !matchesIdentical(gotRes, wantRes) {
				t.Fatalf("query %d mode %v: churned engines disagree on the ranking", qi, mode)
			}
			if gotStats.Candidates != wantStats.Candidates ||
				gotStats.SimilarityOps+gotStats.SignatureSkips != wantStats.SimilarityOps {
				t.Fatalf("query %d mode %v: accounting broke after churn: on %+v, off %+v",
					qi, mode, gotStats, wantStats)
			}
		}
	}
}
