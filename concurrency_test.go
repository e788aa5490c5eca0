package vitri

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"vitri/internal/vec"
)

// stressVideo synthesizes a small clustered video for the stress test.
func stressVideo(r *rand.Rand, dim, frames int) []Vector {
	center := make(vec.Vector, dim)
	for j := range center {
		center[j] = 0.2 + 0.6*r.Float64()
	}
	out := make([]Vector, frames)
	for f := range out {
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = center[j] + r.NormFloat64()*0.02
		}
		out[f] = p
	}
	return out
}

// TestConcurrentMixedWorkload interleaves Add, Remove, Search (single and
// batch), Rebuild, and drift checks from many goroutines on one DB. It
// exists to run under -race: the assertions are per-query stats sanity
// while mutations are in flight, and full structural consistency once the
// storm has passed.
func TestConcurrentMixedWorkload(t *testing.T) {
	const (
		dim     = 8
		base    = 10
		workers = 6
		ops     = 12
	)
	db := New(Options{Epsilon: 0.3, Seed: 1})
	seedRng := rand.New(rand.NewSource(21))
	for id := 0; id < base; id++ {
		if err := db.Add(id, stressVideo(seedRng, dim, 20)); err != nil {
			t.Fatal(err)
		}
	}
	query := Summarize(-1, stressVideo(seedRng, dim, 20), 0.3, 99)

	errs := make(chan error, workers*ops+workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			// Each worker owns a disjoint id range so adds never collide.
			nextID := 1000 + w*ops
			var mine []int
			for i := 0; i < ops; i++ {
				switch op := r.Intn(5); {
				case op == 0 && len(mine) > 0: // remove one of our own
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := db.Remove(id); err != nil {
						errs <- err
						return
					}
				case op == 1:
					if err := db.Rebuild(); err != nil {
						errs <- err
						return
					}
					db.DriftAngle()
				case op == 2: // batch of two queries through the pool
					batch, err := db.SearchBatch([]Summary{query, query}, 5, Composed)
					if err != nil {
						errs <- err
						return
					}
					for _, item := range batch {
						if item.Err != nil {
							errs <- item.Err
							return
						}
					}
				case op == 3: // single search with stats sanity
					_, stats, err := db.SearchSummary(&query, 5, Composed)
					if err != nil {
						errs <- err
						return
					}
					if stats.Ranges < 1 || stats.PageReads < 1 {
						errs <- fmt.Errorf("worker %d: implausible stats %+v on a non-empty index", w, stats)
						return
					}
					if stats.SimilarityOps > stats.Candidates*len(query.Triplets) {
						errs <- fmt.Errorf("worker %d: %d similarity ops for %d candidates", w, stats.SimilarityOps, stats.Candidates)
						return
					}
				default: // add a fresh video
					if err := db.Add(nextID, stressVideo(r, dim, 20)); err != nil {
						errs <- err
						return
					}
					mine = append(mine, nextID)
					nextID++
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := db.CheckIndex(); err != nil {
		t.Fatalf("index inconsistent after mixed workload: %v", err)
	}
	if db.Len() < base {
		t.Fatalf("base videos went missing: Len() = %d", db.Len())
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != int64(db.Triplets()) {
		t.Fatalf("tree reports %d entries, catalog-backed count says %d", st.Entries, db.Triplets())
	}
	// A quiet-state search is reproducible: same query, same stats, twice.
	_, s1, err := db.SearchSummary(&query, 5, Composed)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := db.SearchSummary(&query, 5, Composed)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("quiet-state stats not reproducible: %+v vs %+v", s1, s2)
	}
}

// TestConcurrentCheckpointStress runs Search, AddSummary and Remove
// against back-to-back looping Checkpoints on a durable store. It exists
// to run under -race: the non-blocking checkpoint reads the summaries
// and journal cut under a read hold, writes the snapshot with mutators
// in flight, and rotates the journal under the writer's own mutex — any
// unsynchronized sharing between those phases and the mutation paths is
// what the detector is pointed at. Once the storm has passed, the store
// is closed and recovered, and the recovered contents must equal the
// final in-memory state — concurrent checkpoints lost nothing durable.
func TestConcurrentCheckpointStress(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	const seedVideos = 40
	for i := 0; i < seedVideos; i++ {
		if err := db.AddSummary(crashSummary(i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	errCh := make(chan error, 8)
	removable := make(chan int, 1024)
	var nextID atomic.Int64
	nextID.Store(seedVideos)
	var wg sync.WaitGroup

	// Adders: fresh ids, half published for removal.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := int(nextID.Add(1))
				if err := db.AddSummary(crashSummary(id)); err != nil {
					errCh <- fmt.Errorf("add %d: %w", id, err)
					return
				}
				if id%2 == 0 {
					select {
					case removable <- id:
					default:
					}
				}
			}
		}()
	}
	// Remover: consumes published ids.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case id := <-removable:
				if err := db.Remove(id); err != nil {
					errCh <- fmt.Errorf("remove %d: %w", id, err)
					return
				}
			}
		}
	}()
	// Searchers: force index use while checkpoints capture summaries.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(qid int) {
			defer wg.Done()
			q := crashSummary(qid)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := db.SearchSummary(&q, 5, Composed); err != nil {
					errCh <- fmt.Errorf("search: %w", err)
					return
				}
			}
		}(g)
	}
	// Stats poller: the counters a checkpoint advances are read beside it,
	// as /stats does, and the checkpointed seq never moves backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq := db.DurabilityStats().SnapshotSeq
			if seq < last {
				errCh <- fmt.Errorf("SnapshotSeq went back from %d to %d", last, seq)
				return
			}
			last = seq
		}
	}()
	// Checkpointer: back-to-back folds while all of the above runs.
	checkpoints := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := db.Checkpoint(); err != nil {
				errCh <- fmt.Errorf("checkpoint %d: %w", i, err)
				return
			}
			checkpoints++
		}
		close(stop)
	}()

	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if checkpoints != 25 {
		t.Fatalf("only %d/25 checkpoints completed", checkpoints)
	}

	want := dbContents(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDurable(dir, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatalf("recovery after checkpoint storm: %v", err)
	}
	defer db2.Close()
	got := dbContents(t, db2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered contents diverge from pre-close state: %s", describeDiff(got, want))
	}
	if err := db2.CheckIndex(); err == nil {
		// CheckIndex is nil before the index builds; force a build and
		// re-verify so the recovered structure is actually exercised.
		q := crashSummary(1)
		if _, _, serr := db2.SearchSummary(&q, 3, Composed); serr != nil {
			t.Fatalf("search on recovered store: %v", serr)
		}
		if cerr := db2.CheckIndex(); cerr != nil {
			t.Fatalf("recovered index inconsistent: %v", cerr)
		}
	}
}

// TestRemoveDuringAddDropsTemporalSignature: a Remove that lands while an
// Add is still in flight must take the video's temporal signature with
// it. Goroutine A adds a long video while the test goroutine spins Remove
// until it succeeds — the first instant the video is visible. The id is
// then re-added as a bare summary, which has no shot order on record, so
// SearchTemporal must report Temporal == 0 for it: a signature derived
// from the removed video's frames must not survive into its successor.
func TestRemoveDuringAddDropsTemporalSignature(t *testing.T) {
	const id = 5
	frames := shotVideo(rand.New(rand.NewSource(51)), []int{0, 1, 2}, 1000)
	db := New(Options{Epsilon: 0.3, Seed: 1})
	done := make(chan error, 1)
	go func() { done <- db.Add(id, frames) }()
	var addErr error
	added := false
	for {
		err := db.Remove(id)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("Remove: %v", err)
		}
		if added {
			t.Fatalf("Add returned %v, yet the video never became removable", addErr)
		}
		select {
		case addErr = <-done:
			added = true // one more Remove attempt, then give up
		default:
		}
	}
	if !added {
		addErr = <-done
	}
	if addErr != nil {
		t.Fatalf("Add: %v", addErr)
	}
	if err := db.AddSummary(Summarize(id, frames, 0.3, 1+id)); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.SearchTemporal(frames, 1, 0.5, Composed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].VideoID != id {
		t.Fatalf("SearchTemporal = %+v, want video %d", res, id)
	}
	if res[0].Temporal != 0 {
		t.Fatalf("re-added bare summary reranked by the removed video's shot order: Temporal = %v", res[0].Temporal)
	}
}
