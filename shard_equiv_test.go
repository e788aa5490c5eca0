package vitri

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vitri/internal/vfs"
)

// Differential equivalence suite: a database at any shard count must be
// observationally identical to the oracle — a bare engine fed every
// summary and searched directly, sharing no router code with the DB (see
// refDB in reference_test.go). "Identical" here
// is the strictest form available — matches compared by Float64bits of
// every similarity and shared-frame count (not a tolerance), contents
// compared through the on-disk byte encoding — because the engine's
// canonical similarity fold makes scores a pure function of (query,
// video contents), independent of shard count, tree layout and
// parallelism. Anything weaker would let a shard-dependent accumulation
// order creep in unnoticed.

// equivShardCounts is the shard matrix the suite proves equivalent.
var equivShardCounts = []int{1, 2, 3, 8}

// matchesIdentical compares two rankings bit-for-bit.
func matchesIdentical(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].VideoID != b[i].VideoID ||
			math.Float64bits(a[i].Similarity) != math.Float64bits(b[i].Similarity) ||
			math.Float64bits(a[i].Shared) != math.Float64bits(b[i].Shared) {
			return false
		}
	}
	return true
}

// equivQueries builds the fixed query set every phase searches with.
func equivQueries(n int) []Summary {
	r := rand.New(rand.NewSource(77))
	qs := make([]Summary, n)
	for i := range qs {
		qs[i] = Summarize(1000+i, synthVideo(r, 8, 2, 5), 0.3, 7)
	}
	return qs
}

// checkEquiv asserts oracle and sharded agree on every observable that
// is shard-count-invariant: contents (byte-for-byte), Len, Triplets,
// entry counts, and for every query and both modes the full ranking
// bit-for-bit. Rankings hold whatever the key layout because the exact
// fold reads catalog triplets and the range scan is lossless.
//
// The work counters are not shard-invariant under the default reference
// point: each shard fits its own O′ (Theorem 1) to its own triplets, so
// the key ranges one query scans differ from shard to shard and
// Candidates becomes a layout quantity like PageReads and Ranges.
// checkWork asserts what holds instead, per row: under the fixed space
// center (tierHooks.spaceCenter) each record is scanned in exactly one
// shard against the same query-derived ranges, so the counters sum to
// the oracle's; under the fitted O′ they are deterministic per shard
// count and keep the tier accounting.
func checkEquiv(t *testing.T, oracle *refDB, sharded *DB, queries []Summary, k int) {
	t.Helper()
	if got, want := sharded.Len(), oracle.e.len(); got != want {
		t.Fatalf("Len = %d, oracle %d", got, want)
	}
	if got, want := sharded.Triplets(), oracle.e.triplets(); got != want {
		t.Fatalf("Triplets = %d, oracle %d", got, want)
	}
	if got, want := storeBytes(t, sharded), oracle.storeBytes(t); !bytes.Equal(got, want) {
		t.Fatalf("store bytes diverge: %d vs %d bytes", len(got), len(want))
	}
	for qi := range queries {
		for _, mode := range []QueryMode{Naive, Composed} {
			wantRes, _, wantErr := oracle.SearchSummary(&queries[qi], k, mode)
			gotRes, _, gotErr := sharded.SearchSummary(&queries[qi], k, mode)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("query %d mode %v: err = %v, oracle err = %v", qi, mode, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !matchesIdentical(gotRes, wantRes) {
				t.Fatalf("query %d mode %v: matches diverge\n got: %+v\nwant: %+v", qi, mode, gotRes, wantRes)
			}
		}
	}
	wantStats, err := oracle.e.stats()
	if err != nil {
		t.Fatalf("oracle Stats: %v", err)
	}
	gotStats, err := sharded.Stats()
	if err != nil {
		t.Fatalf("sharded Stats: %v", err)
	}
	if gotStats.Entries != wantStats.Entries {
		t.Fatalf("Entries = %d, oracle %d", gotStats.Entries, wantStats.Entries)
	}
	if err := sharded.CheckIndex(); err != nil {
		t.Fatalf("CheckIndex: %v", err)
	}
}

// summarySearcher is the search surface checkWork reads; DB and refDB
// both provide it.
type summarySearcher interface {
	SearchSummary(q *Summary, k int, mode QueryMode) ([]Match, SearchStats, error)
}

// checkWork asserts the work-counter contract between got and ref, two
// databases with the same contents, for every query and both modes:
//
//   - Candidates are equal;
//   - SimilarityOps + SignatureSkips are equal: the signature tier moves
//     work between the two counters — a pruned candidate is a skip
//     instead of an op — but their sum is exactly the tier-off op count,
//     so one reference serves tier on and off;
//   - Candidates ≤ triplets, the number of indexed triplets: composed
//     ranges are disjoint, so each record is a candidate at most once (a
//     naive scan runs one range per query triplet, so there the bound is
//     triplets per query triplet);
//   - with sameLayout, Ranges and PageReads are equal too.
//
// The space-center row passes the single-engine oracle (the counters sum
// across shards; layout counters differ, so sameLayout is false). The
// default row passes an independent tier-off build at the same shard
// count with the same leaf encoding (sameLayout), which makes the check a
// determinism check per shard count as well as the tier accounting.
func checkWork(t *testing.T, ref, got summarySearcher, triplets int, queries []Summary, k int, sameLayout bool) {
	t.Helper()
	for qi := range queries {
		for _, mode := range []QueryMode{Naive, Composed} {
			_, wantStats, wantErr := ref.SearchSummary(&queries[qi], k, mode)
			_, gotStats, gotErr := got.SearchSummary(&queries[qi], k, mode)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("query %d mode %v: errs %v / %v", qi, mode, gotErr, wantErr)
			}
			bound := triplets
			if mode == Naive {
				bound *= len(queries[qi].Triplets)
			}
			checkStats(t, fmt.Sprintf("query %d mode %v", qi, mode), wantStats, gotStats, bound, sameLayout)
		}
	}
}

// checkStats is checkWork's assertion for one query's stats, with
// maxCandidates the candidate bound.
func checkStats(t *testing.T, what string, want, got SearchStats, maxCandidates int, sameLayout bool) {
	t.Helper()
	if got.Candidates != want.Candidates ||
		got.SimilarityOps+got.SignatureSkips != want.SimilarityOps+want.SignatureSkips {
		t.Fatalf("%s: work counters diverge: got %+v, reference %+v", what, got, want)
	}
	if got.Candidates > maxCandidates {
		t.Fatalf("%s: %d candidates, bound %d", what, got.Candidates, maxCandidates)
	}
	if sameLayout && (got.Ranges != want.Ranges || got.PageReads != want.PageReads) {
		t.Fatalf("%s: layout counters diverge at one shard count: got %+v, reference %+v", what, got, want)
	}
}

// equivApply drives one deterministic mixed workload — batch ingest,
// single adds, removes, a second batch — against a database, asserting
// per-item and batch-level success.
func equivApply(t *testing.T, db equivDB, videos []Video) {
	t.Helper()
	itemErrs, err := db.AddBatch(videos[:len(videos)/2])
	if err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	for i, e := range itemErrs {
		if e != nil {
			t.Fatalf("AddBatch item %d: %v", i, e)
		}
	}
	for _, v := range videos[len(videos)/2 : 3*len(videos)/4] {
		if err := db.Add(v.ID, v.Frames); err != nil {
			t.Fatalf("Add(%d): %v", v.ID, err)
		}
	}
	for id := 0; id < len(videos)/2; id += 5 {
		if err := db.Remove(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
	}
	if _, err := db.Search(videos[1].Frames, 3); err != nil {
		t.Fatalf("mid-workload Search: %v", err)
	}
	// The tail batch lands on a built index, exercising the incremental
	// insert path on every shard.
	itemErrs, err = db.AddBatch(videos[3*len(videos)/4:])
	if err != nil {
		t.Fatalf("tail AddBatch: %v", err)
	}
	for i, e := range itemErrs {
		if e != nil {
			t.Fatalf("tail AddBatch item %d: %v", i, e)
		}
	}
}

// TestShardEquivalence is the tentpole differential test: the same
// seeded workload applied to the bare-engine oracle and to shard counts
// 1, 2, 3 and 8 yields bit-identical rankings and contents at every
// phase. The default rows (fitted O′) check the work counters against a
// tier-off twin at the same shard count; the space-center rows check
// that they sum to the oracle's (see checkEquiv).
func TestShardEquivalence(t *testing.T) {
	videos := ingestCorpus(83, 48)
	queries := equivQueries(6)
	opts := Options{Epsilon: 0.3, Seed: 7}
	oracle := newRef(opts)
	equivApply(t, oracle, videos)
	for _, n := range equivShardCounts {
		n := n
		t.Run(shardName(n), func(t *testing.T) {
			opts := opts
			opts.Shards = n
			sharded := New(opts)
			if len(sharded.shards) != n {
				t.Fatalf("router has %d shards, want %d", len(sharded.shards), n)
			}
			equivApply(t, sharded, videos)
			checkEquiv(t, oracle, sharded, queries, 10)
			twin := newTierDB(opts, tierHooks{noSig: true})
			equivApply(t, twin, videos)
			checkWork(t, twin, sharded, sharded.Triplets(), queries, 10, true)
		})
	}
	sc := tierHooks{spaceCenter: true}
	scOracle := newRef(opts)
	sc.setEngine(scOracle.e)
	equivApply(t, scOracle, videos)
	for _, n := range equivShardCounts {
		n := n
		t.Run("space-center/"+shardName(n), func(t *testing.T) {
			opts := opts
			opts.Shards = n
			sharded := newTierDB(opts, sc)
			equivApply(t, sharded, videos)
			checkEquiv(t, scOracle, sharded, queries, 10)
			checkWork(t, scOracle, sharded, sharded.Triplets(), queries, 10, false)
		})
	}
}

// TestShardEquivalenceSearchBatch proves the batch search path merges
// identically to per-query scatter and to the oracle, with the work
// counters checked per row as in TestShardEquivalence.
func TestShardEquivalenceSearchBatch(t *testing.T) {
	videos := ingestCorpus(84, 40)
	queries := equivQueries(9)
	opts := Options{Epsilon: 0.3, Seed: 7}
	rows := []struct {
		name string
		h    tierHooks
	}{
		{"", tierHooks{}},
		{"space-center/", tierHooks{spaceCenter: true}},
	}
	for _, row := range rows {
		row := row
		oracle := newRef(opts)
		row.h.setEngine(oracle.e)
		equivApply(t, oracle, videos)
		wantBatch := oracle.SearchBatch(queries, 7, Composed)
		for _, n := range equivShardCounts {
			n := n
			t.Run(row.name+shardName(n), func(t *testing.T) {
				opts := opts
				opts.Shards = n
				sharded := newTierDB(opts, row.h)
				equivApply(t, sharded, videos)
				gotBatch, err := sharded.SearchBatch(queries, 7, Composed)
				if err != nil {
					t.Fatalf("SearchBatch: %v", err)
				}
				if len(gotBatch) != len(wantBatch) {
					t.Fatalf("batch size %d, want %d", len(gotBatch), len(wantBatch))
				}
				// The space-center row's counters sum to the oracle's;
				// the default row's are checked against a tier-off
				// twin's batch at the same shard count.
				refBatch, sameLayout := wantBatch, false
				if !row.h.spaceCenter {
					twin := newTierDB(opts, tierHooks{noSig: true})
					equivApply(t, twin, videos)
					if refBatch, err = twin.SearchBatch(queries, 7, Composed); err != nil {
						t.Fatalf("twin SearchBatch: %v", err)
					}
					sameLayout = true
				}
				for i := range gotBatch {
					if (gotBatch[i].Err == nil) != (wantBatch[i].Err == nil) {
						t.Fatalf("query %d: err %v, oracle %v", i, gotBatch[i].Err, wantBatch[i].Err)
					}
					if !matchesIdentical(gotBatch[i].Results, wantBatch[i].Results) {
						t.Fatalf("query %d: batch matches diverge from oracle", i)
					}
					checkStats(t, fmt.Sprintf("query %d", i), refBatch[i].Stats, gotBatch[i].Stats, sharded.Triplets(), sameLayout)
				}
			})
		}
	}
}

// TestShardSearchDeterministic pins the layout-dependent counters: at a
// fixed shard count, two independently built databases report identical
// SearchStats — including PageReads and Ranges — for every query. This
// is the other half of the stats contract (checkEquiv covers the
// shard-invariant half).
func TestShardSearchDeterministic(t *testing.T) {
	videos := ingestCorpus(85, 36)
	queries := equivQueries(5)
	for _, n := range equivShardCounts {
		n := n
		t.Run(shardName(n), func(t *testing.T) {
			a := New(Options{Epsilon: 0.3, Seed: 7, Shards: n})
			b := New(Options{Epsilon: 0.3, Seed: 7, Shards: n})
			equivApply(t, a, videos)
			equivApply(t, b, videos)
			for qi := range queries {
				for _, mode := range []QueryMode{Naive, Composed} {
					resA, statsA, errA := a.SearchSummary(&queries[qi], 10, mode)
					resB, statsB, errB := b.SearchSummary(&queries[qi], 10, mode)
					if errA != nil || errB != nil {
						t.Fatalf("query %d mode %v: errs %v / %v", qi, mode, errA, errB)
					}
					if !matchesIdentical(resA, resB) {
						t.Fatalf("query %d mode %v: twin builds disagree on matches", qi, mode)
					}
					if statsA != statsB {
						t.Fatalf("query %d mode %v: twin builds disagree on stats: %+v vs %+v",
							qi, mode, statsA, statsB)
					}
				}
			}
		})
	}
}

// TestShardEquivalenceDurable runs the differential workload against
// durable stores on an in-memory filesystem: mutate, checkpoint
// mid-stream, mutate more, close, reopen (shard count adopted from the
// store), and require the recovered database to remain bit-identical to
// the recovered bare-engine oracle — a snapshot + journal with no router
// above it.
func TestShardEquivalenceDurable(t *testing.T) {
	videos := ingestCorpus(86, 40)
	queries := equivQueries(5)

	// runStore drives one store through the durable workload; open opens
	// (first call, with the epsilon) and reopens (second call, adopting it)
	// the same directory.
	runStore := func(t *testing.T, open func(Options) (equivDB, error)) equivDB {
		db, err := open(Options{Epsilon: 0.3, Seed: 7})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		equivApply(t, db, videos[:30])
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		for _, v := range videos[30:] {
			if err := db.Add(v.ID, v.Frames); err != nil {
				t.Fatalf("post-checkpoint Add(%d): %v", v.ID, err)
			}
		}
		if err := db.Remove(videos[31].ID); err != nil {
			t.Fatalf("post-checkpoint Remove: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		reopened, err := open(Options{Seed: 7})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if reopened.Epsilon() != 0.3 {
			t.Fatalf("epsilon not adopted on reopen: %v", reopened.Epsilon())
		}
		if got := reopened.Durable(); !got {
			t.Fatal("reopened store is not durable")
		}
		return reopened
	}

	// openOracle and openSharded open a fresh in-memory store with the
	// hooks set after every open (recovery builds no index, so they land
	// before the first build). The sharded store's first open creates n
	// shards; the reopen adopts them.
	openOracle := func(h tierHooks) func(Options) (equivDB, error) {
		fsys := vfs.NewMemFS()
		return func(o Options) (equivDB, error) {
			r, err := openRef("store", o, fsys)
			if err != nil {
				return nil, err
			}
			h.setEngine(r.e)
			return r, nil
		}
	}
	openSharded := func(n int, h tierHooks) func(Options) (equivDB, error) {
		fsys := vfs.NewMemFS()
		return func(o Options) (equivDB, error) {
			o.Shards, n = n, 0
			o.Durable = &DurableOptions{FS: fsys}
			db, err := OpenDurable("store", o)
			if err != nil {
				return nil, err
			}
			h.set(db)
			return db, nil
		}
	}
	rows := []struct {
		name string
		h    tierHooks
	}{
		{"", tierHooks{}},
		{"space-center/", tierHooks{spaceCenter: true}},
	}
	for _, row := range rows {
		row := row
		oracle := runStore(t, openOracle(row.h)).(*refDB)
		for _, n := range equivShardCounts {
			n := n
			t.Run(row.name+shardName(n), func(t *testing.T) {
				sharded := runStore(t, openSharded(n, row.h)).(*DB)
				if len(sharded.shards) != n {
					t.Fatalf("reopen recovered %d shards, want %d", len(sharded.shards), n)
				}
				checkEquiv(t, oracle, sharded, queries, 8)
				if row.h.spaceCenter {
					checkWork(t, oracle, sharded, sharded.Triplets(), queries, 8, false)
					return
				}
				twin := runStore(t, openSharded(n, tierHooks{noSig: true})).(*DB)
				checkWork(t, twin, sharded, sharded.Triplets(), queries, 8, true)
			})
		}
	}
}

// TestShardEquivalencePreFilterOff crosses the shard matrix with the
// engine knobs that must not change any observable: signature tier off,
// unquantized float64 leaves, and both at once. Every configuration is
// checked against the same default-engine oracle — bit-identical
// rankings and byte-identical contents (checkEquiv). The work counters
// are checked per row: the default rows against a tier-off build with
// the same leaf encoding at the same shard count, the space-center rows
// against the space-center oracle (checkWork). Sharded configurations
// with the tier disabled must report zero signature skips.
func TestShardEquivalencePreFilterOff(t *testing.T) {
	videos := ingestCorpus(87, 40)
	queries := equivQueries(6)
	opts := Options{Epsilon: 0.3, Seed: 7}
	oracle := newRef(opts)
	equivApply(t, oracle, videos)
	sc := tierHooks{spaceCenter: true}
	scOracle := newRef(opts)
	sc.setEngine(scOracle.e)
	equivApply(t, scOracle, videos)
	configs := []struct {
		name       string
		noSig, unq bool
	}{
		{"prefilter-off", true, false},
		{"unquantized", false, true},
		{"both-off", true, true},
	}
	for _, spaceCenter := range []bool{false, true} {
		for _, n := range []int{1, 3} {
			for _, cfg := range configs {
				spaceCenter, n, cfg := spaceCenter, n, cfg
				name := shardName(n) + "/" + cfg.name
				if spaceCenter {
					name = "space-center/" + name
				}
				t.Run(name, func(t *testing.T) {
					opts := opts
					opts.Shards = n
					db := newTierDB(opts, tierHooks{noSig: cfg.noSig, unquantized: cfg.unq, spaceCenter: spaceCenter})
					equivApply(t, db, videos)
					if spaceCenter {
						checkEquiv(t, scOracle, db, queries, 10)
						checkWork(t, scOracle, db, db.Triplets(), queries, 10, false)
					} else {
						checkEquiv(t, oracle, db, queries, 10)
						twin := newTierDB(opts, tierHooks{noSig: true, unquantized: cfg.unq})
						equivApply(t, twin, videos)
						checkWork(t, twin, db, db.Triplets(), queries, 10, true)
					}
					if cfg.noSig {
						for qi := range queries {
							_, stats, err := db.SearchSummary(&queries[qi], 10, Composed)
							if err != nil {
								t.Fatalf("query %d: %v", qi, err)
							}
							if stats.SignatureSkips != 0 {
								t.Fatalf("query %d: %d signature skips with the tier disabled", qi, stats.SignatureSkips)
							}
						}
					}
				})
			}
		}
	}
}

// TestShardRebuildEmpty pins Rebuild's empty-database contract across the
// shard matrix: ErrEmptyDB exactly when every shard is empty — the rule
// scatter applies to searches — and success as soon as one shard holds a
// video, however many siblings are still empty.
func TestShardRebuildEmpty(t *testing.T) {
	videos := ingestCorpus(88, 1)
	for _, n := range equivShardCounts {
		n := n
		t.Run(shardName(n), func(t *testing.T) {
			db := New(Options{Epsilon: 0.3, Seed: 7, Shards: n})
			if err := db.Rebuild(); !errors.Is(err, ErrEmptyDB) {
				t.Fatalf("Rebuild on an empty database: %v, want ErrEmptyDB", err)
			}
			if _, _, err := db.SearchSummary(&equivQueries(1)[0], 3, Composed); !errors.Is(err, ErrEmptyDB) {
				t.Fatalf("search on an empty database: %v, want ErrEmptyDB", err)
			}
			if err := db.Add(videos[0].ID, videos[0].Frames); err != nil {
				t.Fatal(err)
			}
			if err := db.Rebuild(); err != nil {
				t.Fatalf("Rebuild with one video: %v", err)
			}
		})
	}
}

// TestOneShardAggregatesExact: at one shard every aggregate the router
// computes must be the lone engine's own answer bit-for-bit — a mean of
// one value, a sum of one term and a max of one element are that value.
// LeafFill is the sharp one (a weighted mean formed as
// Σ(fill·leaves)/Σleaves is not guaranteed to round-trip in float64), so
// the corpus sizes span one-leaf and multi-leaf trees.
func TestOneShardAggregatesExact(t *testing.T) {
	for _, size := range []int{7, 19, 48, 90} {
		dopts := DurableOptions{FS: vfs.NewMemFS()}
		db, err := OpenDurable("store", Options{Epsilon: 0.3, Seed: 7, Durable: &dopts})
		if err != nil {
			t.Fatal(err)
		}
		equivApply(t, db, ingestCorpus(89, size))
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		e := db.shards[0]

		want, err := e.stats()
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || math.Float64bits(got.LeafFill) != math.Float64bits(want.LeafFill) {
			t.Errorf("size %d: Stats = %+v, engine %+v", size, got, want)
		}
		if got, want := math.Float64bits(db.DriftAngle()), math.Float64bits(e.driftAngle()); got != want {
			t.Errorf("size %d: DriftAngle bits %x, engine %x", size, got, want)
		}
		if got, want := db.PagerStats(), e.pagerStats(); got != want {
			t.Errorf("size %d: PagerStats = %+v, engine %+v", size, got, want)
		}
		wantDur := DurabilityStats{
			Enabled:         true,
			Dir:             "store",
			SnapshotSeq:     e.dur.snapLastSeq,
			SnapshotVersion: e.dur.snapVersion,
			Checkpoints:     1,
			Journal:         e.dur.wal.Stats(),
		}
		if got := db.DurabilityStats(); !reflect.DeepEqual(got, wantDur) {
			t.Errorf("size %d: DurabilityStats = %+v, engine %+v", size, got, wantDur)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// shardName labels a subtest by shard count.
func shardName(n int) string {
	return map[int]string{1: "shards=1", 2: "shards=2", 3: "shards=3", 8: "shards=8"}[n]
}
