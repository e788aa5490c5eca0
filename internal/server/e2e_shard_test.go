package server

// Sharded end-to-end matrix: the workloads the flat e2e suite gates on,
// run against a durable shard-per-core engine at -shards 1, 2 and 8.
// Beyond the flat bars (zero 5xx, exact /stats I/O attribution,
// structured responses through a mid-flight drain, 429 admission), the
// matrix adds the sharding bar: the same verification queries must
// return byte-identical matches at every shard count — scatter-gather
// over HTTP is indistinguishable from the single engine. These run under
// `make e2e` (and `make check`, with -race) via the TestE2E name prefix.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vitri"
)

// shardedDurableCorpus opens a durable DB split over the given shard
// count in a temp dir and loads n synthetic videos through the
// journaled, routed path. The corpus is identical for every shard count
// (fixed seed), so results are comparable across the matrix.
func shardedDurableCorpus(t *testing.T, n, shards int, opts vitri.Options) (*vitri.DB, [][]vitri.Vector) {
	t.Helper()
	opts.Epsilon = 0.3
	opts.Seed = 1
	opts.Shards = shards
	db, err := vitri.OpenDurable(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(77))
	videos := make([][]vitri.Vector, n)
	for i := range videos {
		videos[i] = synthVideo(r, 8, 2, 15, 0.2, 0.8)
		if err := db.Add(i, videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, videos
}

// TestE2EShardMatrix runs the concurrent-load acceptance bar at shard
// counts 1, 2 and 8 over a durable store: every request completes, the
// cumulative /stats search_page_reads equals the sum of per-request
// attributions, /checkpoint folds every shard under one manifest commit,
// and the verification queries return byte-identical matches at every
// shard count (the shards=1 run is the oracle).
func TestE2EShardMatrix(t *testing.T) {
	const nVideos, clients, perClient = 16, 24, 3
	var refMatches [][]matchJSON // shards=1 results: the cross-shard oracle
	for _, shards := range []int{1, 2, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			db, videos := shardedDurableCorpus(t, nVideos, shards, vitri.Options{})
			srv := New(db, Config{MaxInFlight: 128, RequestTimeout: time.Minute, ErrorLog: quietLog()})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			// Identical bodies per shard count: same seed, same sequence.
			r := rand.New(rand.NewSource(41))
			bodies := make([][]byte, clients)
			wants := make([]int, clients)
			scratch := make([][]byte, clients)
			for i := range bodies {
				src := i % len(videos)
				bodies[i] = mustMarshal(map[string]interface{}{"frames": framesJSON(noisyCopy(r, videos[src], 0.01)), "k": 4})
				wants[i] = src
				// Scratch inserts live far from every query sphere (corpus in
				// [0.2, 0.8]^8), so concurrent routed mutations cannot perturb
				// the compared search results.
				scratch[i] = mustMarshal(map[string]interface{}{"id": 1000 + i, "frames": framesJSON(synthVideo(r, 8, 1, 8, 1.5, 1.6))})
			}

			var (
				wg        sync.WaitGroup
				totalIO   atomic.Uint64
				failures  atomic.Int64
				firstFail atomic.Value
			)
			fail := func(msg string) {
				failures.Add(1)
				firstFail.CompareAndSwap(nil, msg)
			}
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					// One routed insert per client, interleaved with scatter
					// searches from every other client.
					resp, err := http.Post(ts.URL+"/insert", "application/json", bytesReader(scratch[c]))
					if err != nil {
						fail(fmt.Sprintf("client %d insert: %v", c, err))
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						fail(fmt.Sprintf("client %d insert: status %d", c, resp.StatusCode))
						return
					}
					for rep := 0; rep < perClient; rep++ {
						resp, err := http.Post(ts.URL+"/search", "application/json", bytesReader(bodies[c]))
						if err != nil {
							fail(fmt.Sprintf("client %d: %v", c, err))
							return
						}
						var sr searchResponse
						err = json.NewDecoder(resp.Body).Decode(&sr)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							fail(fmt.Sprintf("client %d: status %d, decode %v", c, resp.StatusCode, err))
							return
						}
						if len(sr.Matches) == 0 || sr.Matches[0].VideoID != wants[c] {
							fail(fmt.Sprintf("client %d: top match %+v, want video %d", c, sr.Matches, wants[c]))
							return
						}
						totalIO.Add(sr.Stats.PageReads)
					}
				}(c)
			}
			wg.Wait()
			if n := failures.Load(); n > 0 {
				t.Fatalf("%d client failures; first: %v", n, firstFail.Load())
			}

			// Remove the scratch ids so every shard count converges on the
			// same base corpus before the cross-shard comparison.
			for i := 0; i < clients; i++ {
				resp := postJSON(t, ts.URL+"/remove", map[string]int{"id": 1000 + i})
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("remove scratch %d: status %d", i, resp.StatusCode)
				}
			}

			// Exact attribution, aggregated over every shard's pager.
			resp, err := http.Get(ts.URL + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st statsResponse
			decodeBody(t, resp, &st)
			if st.SearchQueries != clients*perClient {
				t.Fatalf("search_queries = %d, want %d", st.SearchQueries, clients*perClient)
			}
			if st.SearchPageReads != totalIO.Load() {
				t.Fatalf("stats search_page_reads = %d, clients observed %d", st.SearchPageReads, totalIO.Load())
			}
			if st.Durability == nil {
				t.Fatal("durable sharded DB reported no durability stats")
			}
			for _, ep := range []string{epSearch, epInsert, epRemove, epStats} {
				if st.Endpoints[ep].Errors5xx != 0 {
					t.Fatalf("%s reported 5xx: %+v", ep, st.Endpoints[ep])
				}
			}

			// One manifest-committed fold across every shard.
			var ck checkpointResponse
			resp = postJSON(t, ts.URL+"/checkpoint", struct{}{})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("checkpoint: status %d", resp.StatusCode)
			}
			decodeBody(t, resp, &ck)
			if ck.JournalDepth != 0 || ck.Checkpoints != 1 {
				t.Fatalf("checkpoint response = %+v, want depth 0, count 1", ck)
			}

			// The sharding bar: byte-identical matches at every shard count.
			got := make([][]matchJSON, clients)
			for i := range bodies {
				resp, err := http.Post(ts.URL+"/search", "application/json", bytesReader(bodies[i]))
				if err != nil {
					t.Fatalf("verify query %d: %v", i, err)
				}
				var sr searchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("verify query %d: status %d, decode %v", i, resp.StatusCode, err)
				}
				got[i] = sr.Matches
			}
			if shards == 1 {
				refMatches = got
			} else {
				for i := range got {
					if len(got[i]) != len(refMatches[i]) {
						t.Fatalf("query %d: %d matches at %d shards, oracle has %d", i, len(got[i]), shards, len(refMatches[i]))
					}
					for j, m := range got[i] {
						if m != refMatches[i][j] {
							t.Fatalf("query %d match %d at %d shards: got %+v, single-engine oracle %+v",
								i, j, shards, m, refMatches[i][j])
						}
					}
				}
			}
			if err := srv.Close(context.Background()); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}

// TestE2EShardDrainDuringCheckpoint mixes routed inserts and removes,
// scatter searches and POST /checkpoint folds on a durable 4-shard
// store, then begins a graceful shutdown while all of it is mid-flight.
// The sequential per-shard fold and the manifest commit must drain
// cleanly: every client gets a structured HTTP response — never a
// connection reset — and the post-drain gate answers 503.
func TestE2EShardDrainDuringCheckpoint(t *testing.T) {
	db, videos := shardedDurableCorpus(t, 12, 4, vitri.Options{})
	srv := New(db, Config{MaxInFlight: 64, RequestTimeout: time.Minute, ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := rand.New(rand.NewSource(53))
	const workers = 32
	searchBodies := make([][]byte, workers)
	insertBodies := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		searchBodies[i] = mustMarshal(map[string]interface{}{"frames": framesJSON(noisyCopy(r, videos[i%len(videos)], 0.01)), "k": 3})
		insertBodies[i] = mustMarshal(map[string]interface{}{
			"id":     1000 + i,
			"frames": framesJSON(synthVideo(r, 8, 1, 8, 0.2, 0.8)),
		})
	}

	var (
		wg        sync.WaitGroup
		transport atomic.Int64 // transport-level failures (connection resets)
		badStatus atomic.Value // unexpected HTTP statuses
	)
	do := func(w int, path string, body []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", bytesReader(body))
		if err != nil {
			transport.Add(1)
			return
		}
		defer resp.Body.Close()
		var decoded struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			badStatus.CompareAndSwap(nil, fmt.Sprintf("worker %d %s: undecodable body (status %d): %v", w, path, resp.StatusCode, err))
			return
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusConflict, http.StatusNotFound:
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			// Shed or draining: valid, structured responses.
		default:
			badStatus.CompareAndSwap(nil, fmt.Sprintf("worker %d %s: status %d error %q", w, path, resp.StatusCode, decoded.Error))
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				switch (w + rep) % 4 {
				case 0:
					do(w, "/insert", insertBodies[w])
				case 1:
					do(w, "/remove", mustMarshal(map[string]int{"id": 1000 + w}))
				case 2:
					do(w, "/checkpoint", mustMarshal(struct{}{}))
				default:
					do(w, "/search", searchBodies[w])
				}
			}
		}(w)
	}
	// Begin the graceful shutdown while checkpoints and mutations are
	// mid-flight.
	time.Sleep(5 * time.Millisecond)
	closeErr := make(chan error, 1)
	go func() { closeErr <- srv.Close(context.Background()) }()

	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatalf("close during sharded checkpoint traffic: %v", err)
	}
	if n := transport.Load(); n != 0 {
		t.Fatalf("%d transport-level failures (connection resets) during drain", n)
	}
	if m := badStatus.Load(); m != nil {
		t.Fatalf("unexpected response: %v", m)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after close: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close = %d, want 503", resp.StatusCode)
	}
}

// TestE2EShardAdmission proves load shedding composes with the shard
// router: with both admission slots held inside scatter searches on a
// 3-shard durable store, the next request is shed immediately with 429 +
// Retry-After and a structured error body, and the held requests still
// complete once released.
func TestE2EShardAdmission(t *testing.T) {
	db, videos := shardedDurableCorpus(t, 4, 3, vitri.Options{})
	srv := New(db, Config{MaxInFlight: 2, RetryAfter: 3 * time.Second, ErrorLog: quietLog()})
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	srv.testHookAdmitted = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := map[string]interface{}{"frames": framesJSON(videos[0])}
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/search", body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until both slots are provably held.
	<-entered
	<-entered

	resp := postJSON(t, ts.URL+"/search", body)
	var e errorResponse
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if e.Error == "" {
		t.Fatal("429 body has no error message")
	}

	close(release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("held request %d status = %d", i, c)
		}
	}
	if got := srv.met.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d", got)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}
