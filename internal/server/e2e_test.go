package server

// End-to-end tests against a real httptest.Server: heavy concurrent
// load, exact /stats I/O attribution, shutdown mid-flight, and fault
// injection through pager.Faulty. These are the tests `make e2e` (and
// `make check`, under -race) gates every PR on.

import (
	"bytes"
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
	"vitri/internal/pager"
)

// TestE2EConcurrentLoadAttribution drives 64 concurrent clients through
// a server and checks the acceptance bar: every request completes, zero
// 5xx, and /stats' cumulative search_page_reads equals the sum of the
// per-request attributions the clients saw — per-scan I/O attribution
// composed all the way up through HTTP.
func TestE2EConcurrentLoadAttribution(t *testing.T) {
	db, videos := testCorpus(t, 24, vitri.Options{})
	srv := New(db, Config{MaxInFlight: 128, RequestTimeout: time.Minute, ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pre-build one query body per client (rand.Rand is not
	// goroutine-safe).
	r := rand.New(rand.NewSource(11))
	const clients, perClient = 64, 3
	bodies := make([][]byte, clients)
	wants := make([]int, clients)
	for i := range bodies {
		src := i % len(videos)
		q := framesJSON(noisyCopy(r, videos[src], 0.01))
		b, err := json.Marshal(map[string]interface{}{"frames": q, "k": 4})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], wants[i] = b, src
	}

	var (
		wg        sync.WaitGroup
		totalIO   atomic.Uint64
		failures  atomic.Int64
		firstFail atomic.Value
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < perClient; rep++ {
				resp, err := http.Post(ts.URL+"/search", "application/json", bytesReader(bodies[c]))
				if err != nil {
					failures.Add(1)
					firstFail.CompareAndSwap(nil, fmt.Sprintf("client %d: %v", c, err))
					return
				}
				var sr searchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					firstFail.CompareAndSwap(nil, fmt.Sprintf("client %d: status %d, decode %v", c, resp.StatusCode, err))
					return
				}
				if len(sr.Matches) == 0 || sr.Matches[0].VideoID != wants[c] {
					failures.Add(1)
					firstFail.CompareAndSwap(nil, fmt.Sprintf("client %d: top match %+v, want video %d", c, sr.Matches, wants[c]))
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
	for _, ep := range []string{epSearch, epStats} {
		if st.Endpoints[ep].Errors5xx != 0 {
			t.Fatalf("%s reported 5xx: %+v", ep, st.Endpoints[ep])
		}
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestE2ERaceStressShutdownMidFlight mixes concurrent /search, /insert
// and /remove traffic and begins a graceful shutdown while requests are
// mid-flight. Every client must receive a real HTTP response — success,
// a mapped client error, or the drain gate's 503 — and never a
// connection reset. Run under -race (make check does).
func TestE2ERaceStressShutdownMidFlight(t *testing.T) {
	db, videos := testCorpus(t, 16, vitri.Options{})
	srv := New(db, Config{MaxInFlight: 64, RequestTimeout: time.Minute, ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := rand.New(rand.NewSource(21))
	const workers = 64
	searchBodies := make([][]byte, workers)
	insertBodies := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		q := framesJSON(noisyCopy(r, videos[i%len(videos)], 0.01))
		b, err := json.Marshal(map[string]interface{}{"frames": q, "k": 3})
		if err != nil {
			t.Fatal(err)
		}
		searchBodies[i] = b
		// Scratch inserts live in a disjoint id range.
		ib, err := json.Marshal(map[string]interface{}{
			"id":     1000 + i,
			"frames": framesJSON(synthVideo(r, 8, 1, 8, 0.2, 0.8)),
		})
		if err != nil {
			t.Fatal(err)
		}
		insertBodies[i] = ib
	}

	var (
		wg        sync.WaitGroup
		transport atomic.Int64 // transport-level failures (connection resets)
		badStatus atomic.Value // unexpected HTTP statuses
	)
	do := func(w int, path string, body []byte) bool {
		resp, err := http.Post(ts.URL+path, "application/json", bytesReader(body))
		if err != nil {
			transport.Add(1)
			return false
		}
		defer resp.Body.Close()
		var decoded struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			badStatus.CompareAndSwap(nil, fmt.Sprintf("worker %d %s: undecodable body (status %d): %v", w, path, resp.StatusCode, err))
			return false
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusConflict, http.StatusNotFound:
			return true
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			return true // shed or draining: valid, structured responses
		default:
			badStatus.CompareAndSwap(nil, fmt.Sprintf("worker %d %s: status %d error %q", w, path, resp.StatusCode, decoded.Error))
			return false
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
				default:
					do(w, "/search", searchBodies[w])
				}
			}
		}(w)
	}
	// Begin the graceful shutdown while the stress is mid-flight.
	time.Sleep(5 * time.Millisecond)
	closeErr := make(chan error, 1)
	go func() { closeErr <- srv.Close(context.Background()) }()

	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatalf("close during traffic: %v", err)
	}
	if n := transport.Load(); n != 0 {
		t.Fatalf("%d transport-level failures (connection resets) during drain", n)
	}
	if m := badStatus.Load(); m != nil {
		t.Fatalf("unexpected response: %v", m)
	}

	// After the drain the gate answers 503 — still a clean response.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after close: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close = %d, want 503", resp.StatusCode)
	}
}

// TestE2EFaultyPager serves from a database whose page store injects
// read faults. Injected faults must surface as structured 5xx JSON
// errors, and — the corruption bar — queries that succeed afterwards
// must return results identical to a fault-free database over the same
// corpus. Scratch inserts live in a region of feature space disjoint
// from every query, so even records orphaned by failed best-effort
// insert rollbacks cannot perturb the compared results.
func TestE2EFaultyPager(t *testing.T) {
	const nVideos = 16
	faultyNew := func() pager.Pager {
		f := pager.NewFaulty(pager.NewMem(), 31)
		f.ReadFailProb = 0.05
		return f
	}
	db, videos := testCorpus(t, nVideos, vitri.Options{NewPager: faultyNew})
	refDB, _ := testCorpus(t, nVideos, vitri.Options{})
	srv := New(db, Config{MaxInFlight: 64, RequestTimeout: time.Minute, ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := rand.New(rand.NewSource(31))
	queries := make([][]vitri.Vector, nVideos)
	bodies := make([][]byte, nVideos)
	for i := range queries {
		queries[i] = noisyCopy(r, videos[i], 0.01)
		bodies[i] = mustMarshal(map[string]interface{}{"frames": framesJSON(queries[i]), "k": 3})
	}
	scratch := make([][]byte, 8)
	for i := range scratch {
		// Far region of feature space (corpus lives in [0.2, 0.8]^8):
		// every scratch sphere is ≫ ε away from every query sphere, so
		// even records orphaned by failed rollbacks cannot score.
		scratch[i] = mustMarshal(map[string]interface{}{
			"id":     2000 + i,
			"frames": framesJSON(synthVideo(r, 8, 1, 8, 1.5, 1.6)),
		})
	}

	var (
		wg         sync.WaitGroup
		fives      atomic.Int64
		oks        atomic.Int64
		unexpected atomic.Value
	)
	post := func(w int, path string, body []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", bytesReader(body))
		if err != nil {
			unexpected.CompareAndSwap(nil, fmt.Sprintf("worker %d: transport error: %v", w, err))
			return
		}
		defer resp.Body.Close()
		var decoded struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			unexpected.CompareAndSwap(nil, fmt.Sprintf("worker %d %s: status %d with undecodable body: %v", w, path, resp.StatusCode, err))
			return
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			oks.Add(1)
		case resp.StatusCode >= 500:
			if decoded.Error == "" {
				unexpected.CompareAndSwap(nil, fmt.Sprintf("worker %d %s: 5xx without error body", w, path))
			}
			fives.Add(1)
		case resp.StatusCode == http.StatusConflict, resp.StatusCode == http.StatusNotFound:
			// Valid outcomes for racing scratch inserts/removes.
		default:
			unexpected.CompareAndSwap(nil, fmt.Sprintf("worker %d %s: status %d error %q", w, path, resp.StatusCode, decoded.Error))
		}
	}
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				switch (w + rep) % 4 {
				case 0:
					post(w, "/insert", scratch[w%len(scratch)])
				case 1:
					post(w, "/remove", mustMarshal(map[string]int{"id": 2000 + w%len(scratch)}))
				default:
					post(w, "/search", bodies[(w+rep)%len(bodies)])
				}
			}
		}(w)
	}
	wg.Wait()
	if m := unexpected.Load(); m != nil {
		t.Fatalf("unexpected response under faults: %v", m)
	}
	if oks.Load() == 0 {
		t.Fatal("no request survived the injected faults; fault rate too high to test anything")
	}
	t.Logf("faulty stress: %d ok, %d injected 5xx", oks.Load(), fives.Load())

	// Corruption check: every query, retried past injected faults, must
	// return exactly what the fault-free reference database returns.
	for i := range queries {
		q := vitri.Summarize(-1, queries[i], refDB.Epsilon(), refDB.Seed())
		wantMatches, _, err := refDB.SearchSummary(&q, 3, vitri.Composed)
		if err != nil {
			t.Fatalf("reference search %d: %v", i, err)
		}
		var got searchResponse
		ok := false
		for attempt := 0; attempt < 200 && !ok; attempt++ {
			resp, err := http.Post(ts.URL+"/search", "application/json", bytesReader(bodies[i]))
			if err != nil {
				t.Fatalf("verify query %d: transport: %v", i, err)
			}
			if resp.StatusCode == http.StatusOK {
				decodeBody(t, resp, &got)
				ok = true
			} else {
				resp.Body.Close()
			}
		}
		if !ok {
			t.Fatalf("verify query %d: no success in 200 attempts", i)
		}
		if len(got.Matches) != len(wantMatches) {
			t.Fatalf("query %d: %d matches, reference has %d", i, len(got.Matches), len(wantMatches))
		}
		for j, m := range got.Matches {
			if m.VideoID != wantMatches[j].VideoID || m.Similarity != wantMatches[j].Similarity {
				t.Fatalf("query %d match %d: got {%d %v}, reference {%d %v} — data corruption after injected faults",
					i, j, m.VideoID, m.Similarity, wantMatches[j].VideoID, wantMatches[j].Similarity)
			}
		}
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func mustMarshal(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func bytesReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }
