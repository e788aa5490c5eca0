package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vitri"
	"vitri/internal/vfs"
)

// synthVideo makes a video of a few gaussian shots. Shot centers are
// drawn from [lo, hi]^dim so tests can place video populations in
// disjoint regions of feature space.
func synthVideo(r *rand.Rand, dim, shots, perShot int, lo, hi float64) []vitri.Vector {
	var frames []vitri.Vector
	for s := 0; s < shots; s++ {
		center := make(vitri.Vector, dim)
		for j := range center {
			center[j] = lo + (hi-lo)*r.Float64()
		}
		for f := 0; f < perShot; f++ {
			p := make(vitri.Vector, dim)
			for j := range p {
				p[j] = center[j] + r.NormFloat64()*0.02
			}
			frames = append(frames, p)
		}
	}
	return frames
}

func noisyCopy(r *rand.Rand, frames []vitri.Vector, sigma float64) []vitri.Vector {
	out := make([]vitri.Vector, len(frames))
	for i, f := range frames {
		p := make(vitri.Vector, len(f))
		for j := range f {
			p[j] = f[j] + r.NormFloat64()*sigma
		}
		out[i] = p
	}
	return out
}

// testCorpus builds a DB over n synthetic videos (ids 0..n-1) in the
// [0.2, 0.8] region and returns it with the videos' frames.
func testCorpus(t *testing.T, n int, opts vitri.Options) (*vitri.DB, [][]vitri.Vector) {
	t.Helper()
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.3
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	db := vitri.New(opts)
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

func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

func framesJSON(frames []vitri.Vector) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = f
	}
	return out
}

func TestSearchSingleAndBatch(t *testing.T) {
	db, videos := testCorpus(t, 12, vitri.Options{})
	srv := New(db, Config{ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := rand.New(rand.NewSource(5))
	q := framesJSON(noisyCopy(r, videos[7], 0.01))

	resp := postJSON(t, ts.URL+"/search", map[string]interface{}{"frames": q, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single search status = %d", resp.StatusCode)
	}
	var single searchResponse
	decodeBody(t, resp, &single)
	if len(single.Matches) == 0 || single.Matches[0].VideoID != 7 {
		t.Fatalf("single search matches = %+v", single.Matches)
	}
	if single.Stats.PageReads == 0 || single.Stats.Ranges == 0 {
		t.Fatalf("single search stats not attributed: %+v", single.Stats)
	}

	q2 := framesJSON(noisyCopy(r, videos[3], 0.01))
	resp = postJSON(t, ts.URL+"/search", map[string]interface{}{"queries": [][][]float64{q, q2}, "k": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch search status = %d", resp.StatusCode)
	}
	var batch batchResponse
	decodeBody(t, resp, &batch)
	if len(batch.Results) != 2 {
		t.Fatalf("batch results = %d", len(batch.Results))
	}
	if batch.Results[0].Matches[0].VideoID != 7 || batch.Results[1].Matches[0].VideoID != 3 {
		t.Fatalf("batch matches = %+v", batch.Results)
	}

	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestRequestValidation(t *testing.T) {
	db, videos := testCorpus(t, 4, vitri.Options{})
	srv := New(db, Config{MaxBodyBytes: 1 << 20, ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := framesJSON(videos[0])

	cases := []struct {
		name string
		body interface{}
		want int
	}{
		{"neither frames nor queries", map[string]interface{}{"k": 3}, http.StatusBadRequest},
		{"both frames and queries", map[string]interface{}{"frames": q, "queries": [][][]float64{q}}, http.StatusBadRequest},
		{"k too large", map[string]interface{}{"frames": q, "k": 10_000}, http.StatusBadRequest},
		{"negative k", map[string]interface{}{"frames": q, "k": -1}, http.StatusBadRequest},
		{"bad mode", map[string]interface{}{"frames": q, "mode": "psychic"}, http.StatusBadRequest},
		{"empty frames", map[string]interface{}{"frames": [][]float64{}}, http.StatusBadRequest},
		{"ragged frames", map[string]interface{}{"frames": [][]float64{{1, 2}, {1}}}, http.StatusBadRequest},
		{"unknown field", map[string]interface{}{"frames": q, "wat": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/search", tc.body)
		var e errorResponse
		decodeBody(t, resp, &e)
		if resp.StatusCode != tc.want || e.Error == "" {
			t.Errorf("%s: status = %d (error %q), want %d", tc.name, resp.StatusCode, e.Error, tc.want)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search status = %d", resp.StatusCode)
	}
}

func TestBodyTooLarge(t *testing.T) {
	db, videos := testCorpus(t, 4, vitri.Options{})
	srv := New(db, Config{MaxBodyBytes: 64, ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/search", map[string]interface{}{"frames": framesJSON(videos[0])})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestInsertRemoveLifecycle(t *testing.T) {
	db, videos := testCorpus(t, 6, vitri.Options{})
	srv := New(db, Config{ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := rand.New(rand.NewSource(9))
	newFrames := framesJSON(synthVideo(r, 8, 2, 12, 0.2, 0.8))

	resp := postJSON(t, ts.URL+"/insert", map[string]interface{}{"id": 100, "frames": newFrames})
	var mut mutateResponse
	decodeBody(t, resp, &mut)
	if resp.StatusCode != http.StatusOK || mut.Videos != 7 {
		t.Fatalf("insert: status %d, %+v", resp.StatusCode, mut)
	}

	// Duplicate id → 409.
	resp = postJSON(t, ts.URL+"/insert", map[string]interface{}{"id": 100, "frames": newFrames})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate insert status = %d, want 409", resp.StatusCode)
	}
	// Negative id → 400.
	resp = postJSON(t, ts.URL+"/insert", map[string]interface{}{"id": -1, "frames": newFrames})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative-id insert status = %d, want 400", resp.StatusCode)
	}

	// The inserted video is searchable.
	q := framesJSON(noisyCopy(r, toVectorsMust(t, newFrames), 0.01))
	resp = postJSON(t, ts.URL+"/search", map[string]interface{}{"frames": q, "k": 2})
	var sr searchResponse
	decodeBody(t, resp, &sr)
	if resp.StatusCode != http.StatusOK || len(sr.Matches) == 0 || sr.Matches[0].VideoID != 100 {
		t.Fatalf("search for inserted video: status %d, %+v", resp.StatusCode, sr.Matches)
	}

	resp = postJSON(t, ts.URL+"/remove", map[string]interface{}{"id": 100})
	decodeBody(t, resp, &mut)
	if resp.StatusCode != http.StatusOK || mut.Videos != 6 {
		t.Fatalf("remove: status %d, %+v", resp.StatusCode, mut)
	}
	// Removing again → 404.
	resp = postJSON(t, ts.URL+"/remove", map[string]interface{}{"id": 100})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second remove status = %d, want 404", resp.StatusCode)
	}
	_ = videos
}

func toVectorsMust(t *testing.T, frames [][]float64) []vitri.Vector {
	t.Helper()
	v, err := toVectors(frames)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHealthzAndStats(t *testing.T) {
	db, videos := testCorpus(t, 5, vitri.Options{})
	srv := New(db, Config{ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthzResponse
	decodeBody(t, resp, &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Videos != 5 {
		t.Fatalf("healthz: status %d, %+v", resp.StatusCode, h)
	}

	// One search, then stats must reflect it.
	postJSON(t, ts.URL+"/search", map[string]interface{}{"frames": framesJSON(videos[1])}).Body.Close()

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	decodeBody(t, resp, &st)
	if st.Videos != 5 || st.SearchQueries != 1 || st.SearchPageReads == 0 {
		t.Fatalf("stats = %+v", st)
	}
	ep, ok := st.Endpoints[epSearch]
	if !ok || ep.Requests != 1 || ep.LatencyMaxS <= 0 {
		t.Fatalf("search endpoint stats = %+v (present %v)", ep, ok)
	}
	if st.AdmissionLimit == 0 {
		t.Fatalf("admission limit missing: %+v", st)
	}
}

func TestPanicRecovery(t *testing.T) {
	db, videos := testCorpus(t, 4, vitri.Options{})
	srv := New(db, Config{ErrorLog: quietLog()})
	var once int32
	srv.testHookAdmitted = func() {
		if atomic.CompareAndSwapInt32(&once, 0, 1) {
			panic("boom")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := map[string]interface{}{"frames": framesJSON(videos[0])}
	resp := postJSON(t, ts.URL+"/search", body)
	var e errorResponse
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusInternalServerError || e.Error == "" {
		t.Fatalf("panicking request: status %d, error %q", resp.StatusCode, e.Error)
	}

	// The process survived; the next request succeeds and the panic is
	// counted.
	resp = postJSON(t, ts.URL+"/search", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status %d", resp.StatusCode)
	}
	if got := srv.met.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d", got)
	}
	// The admission slot was released despite the panic.
	if held := srv.adm.held(); held != 0 {
		t.Fatalf("admission slots leaked: %d", held)
	}
}

func TestAdmissionControl(t *testing.T) {
	db, videos := testCorpus(t, 4, vitri.Options{})
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

	// The N+1st request is shed immediately with 429 + Retry-After.
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
}

// gatedSnapshotFS, once armed, parks every Sync of a snapshot temp file
// until gate closes, and signals parked when the first one arrives: a
// checkpoint held mid-write while journal commits go through.
type gatedSnapshotFS struct {
	vfs.FS
	armed  atomic.Bool
	gate   chan struct{}
	parked chan struct{}
}

func (g *gatedSnapshotFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, "snapshot.vitri.tmp") {
		return f, err
	}
	return &gatedSnapshotFile{File: f, fs: g}, nil
}

type gatedSnapshotFile struct {
	vfs.File
	fs *gatedSnapshotFS
}

func (f *gatedSnapshotFile) Sync() error {
	if f.fs.armed.Load() {
		select {
		case f.fs.parked <- struct{}{}:
		default:
		}
		<-f.fs.gate
	}
	return f.File.Sync()
}

// TestRequestTimeout: a timed-out search answers 504, and graceful Close
// drains everything the server left running — the search its handler
// abandoned and an automatic checkpoint parked in its snapshot fsync.
// Each order of release checks that Close waits for the one still in
// flight: a Close whose context expires first leaves the store open, an
// unbounded one returns only after it. Afterwards every goroutine the
// server started has exited.
func TestRequestTimeout(t *testing.T) {
	for _, tc := range []struct {
		name         string
		searchFirst  bool
		stillRunning string
	}{
		{"checkpoint finishes first", false, "the abandoned search"},
		{"search finishes first", true, "the automatic checkpoint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := &gatedSnapshotFS{FS: vfs.NewMemFS(), gate: make(chan struct{}), parked: make(chan struct{}, 1)}
			db, err := vitri.OpenDurable("db", vitri.Options{Epsilon: 0.3, Seed: 1, Durable: &vitri.DurableOptions{FS: fsys}})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(77))
			videos := make([][]vitri.Vector, 4)
			for i := range videos {
				videos[i] = synthVideo(r, 8, 2, 15, 0.2, 0.8)
				if err := db.Add(i, videos[i]); err != nil {
					t.Fatal(err)
				}
			}
			fsys.armed.Store(true)
			goroutines := runtime.NumGoroutine()

			srv := New(db, Config{RequestTimeout: 50 * time.Millisecond, CheckpointEvery: 1, ErrorLog: quietLog()})
			release := make(chan struct{})
			var parkedWork atomic.Bool
			srv.testHookWork = func() {
				// Only the first request's work (the search) parks.
				if parkedWork.CompareAndSwap(false, true) {
					<-release
				}
			}
			releaseSearch := sync.OnceFunc(func() { close(release) })
			releaseCheckpoint := sync.OnceFunc(func() { close(fsys.gate) })
			defer releaseCheckpoint()
			defer releaseSearch()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp := postJSON(t, ts.URL+"/search", map[string]interface{}{"frames": framesJSON(videos[0])})
			var e errorResponse
			decodeBody(t, resp, &e)
			if resp.StatusCode != http.StatusGatewayTimeout || e.Error == "" {
				t.Fatalf("timed-out request: status %d, error %q", resp.StatusCode, e.Error)
			}
			if got := srv.met.timeouts.Value(); got != 1 {
				t.Fatalf("timeouts counter = %d", got)
			}

			// The insert crosses CheckpointEvery; its detached checkpoint
			// parks in the snapshot fsync.
			resp = postJSON(t, ts.URL+"/insert", insertRequest{ID: 4, Frames: framesJSON(synthVideo(r, 8, 2, 15, 0.2, 0.8))})
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("insert: status %d", resp.StatusCode)
			}
			select {
			case <-fsys.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("automatic checkpoint never reached its snapshot fsync")
			}

			if tc.searchFirst {
				releaseSearch()
			} else {
				releaseCheckpoint()
			}
			// With one of them still running, a Close whose context
			// expires gives up and leaves the store open.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			closed := make(chan error, 1)
			go func() { closed <- srv.Close(ctx) }()
			select {
			case err := <-closed:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Close with %s still running: %v, want its context's deadline", tc.stillRunning, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Close ignored its deadline while %s was still running", tc.stillRunning)
			}
			if !db.DurabilityStats().Enabled {
				t.Fatalf("an interrupted Close closed the store under %s", tc.stillRunning)
			}

			go func() { closed <- srv.Close(context.Background()) }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned while %s was still running: %v", tc.stillRunning, err)
			case <-time.After(30 * time.Millisecond):
			}
			releaseSearch()
			releaseCheckpoint()
			if err := <-closed; err != nil {
				t.Fatalf("close: %v", err)
			}
			if got := db.DurabilityStats(); got.Enabled {
				t.Fatalf("database still durable after Close: %+v", got)
			}

			ts.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines 5s after Close, %d before the server started", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func TestGracefulShutdown(t *testing.T) {
	db, videos := testCorpus(t, 4, vitri.Options{})
	srv := New(db, Config{ErrorLog: quietLog()})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHookAdmitted = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := map[string]interface{}{"frames": framesJSON(videos[2])}
	inFlight := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/search", body)
		resp.Body.Close()
		inFlight <- resp.StatusCode
	}()
	<-entered

	// Begin shutdown while the request is mid-flight.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close(context.Background()) }()

	// New work is rejected with 503 as soon as draining begins.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz during drain: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server kept accepting requests")
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight request still completes with a full response.
	close(release)
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: status %d", code)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}

	// After Close, the DB's pager is closed: a direct search fails.
	q := vitri.Summarize(-1, videos[0], db.Epsilon(), db.Seed())
	if _, _, err := db.SearchSummary(&q, 1, vitri.Composed); err == nil {
		t.Fatal("search succeeded on a closed database")
	}
	// Close is idempotent.
	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestCloseDrainDeadline(t *testing.T) {
	db, videos := testCorpus(t, 4, vitri.Options{})
	srv := New(db, Config{ErrorLog: quietLog()})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHookAdmitted = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postJSON(t, ts.URL+"/search", map[string]interface{}{"frames": framesJSON(videos[0])})
		resp.Body.Close()
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Close(ctx); err == nil {
		t.Fatal("Close with stuck in-flight work returned nil before the drain finished")
	}
	// The pager must still be open: the stuck request finishes fine.
	close(release)
	<-done

	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("final close: %v", err)
	}
}

func TestSearchModesAgree(t *testing.T) {
	db, videos := testCorpus(t, 10, vitri.Options{})
	srv := New(db, Config{ErrorLog: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := rand.New(rand.NewSource(3))
	q := framesJSON(noisyCopy(r, videos[4], 0.01))
	get := func(mode string) searchResponse {
		resp := postJSON(t, ts.URL+"/search", map[string]interface{}{"frames": q, "k": 5, "mode": mode})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s status = %d", mode, resp.StatusCode)
		}
		var sr searchResponse
		decodeBody(t, resp, &sr)
		return sr
	}
	composed, naive := get("composed"), get("naive")
	if fmt.Sprintf("%v", composed.Matches) != fmt.Sprintf("%v", naive.Matches) {
		t.Fatalf("modes disagree:\ncomposed %v\nnaive    %v", composed.Matches, naive.Matches)
	}
}
