package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"vitri"
	"vitri/internal/dataset"
	"vitri/internal/server"
)

// frameInputs is a frame-bearing population with query clips derived from
// it: what http-video serves, and the shape churn-durable ingests.
type frameInputs struct {
	videos   []vitri.Video // the population a workload ingests
	spare    []vitri.Video // generated but left out of it
	frames   int           // of videos
	triplets int           // the summaries of videos hold, as the engine will count them
	clips    [][]vitri.Vector
}

// genFrameInputs synthesizes a histogram-space corpus at the given scale,
// takes its videos in seed order until their summaries hold the target
// number of triplets — the generator fixes the video count, but index size,
// query cost and heap follow the triplets, which otherwise differ by ±5 %
// from seed to seed — and derives nClips near-duplicate query clips from
// that population, their sources stratified by length (request cost grows
// with the frames posted).
func genFrameInputs(scale float64, seed int64, triplets, nClips int) (*frameInputs, error) {
	c, err := dataset.GenerateHist(dataset.DefaultHistConfig(scale, seed))
	if err != nil {
		return nil, err
	}
	// What Add will make of each video: it summarizes with seed + video id.
	counts := make([]int, len(c.Videos))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(c.Videos); i += workers {
				v := &c.Videos[i]
				s := vitri.Summarize(v.ID, v.Frames, epsilon, seed+int64(v.ID))
				counts[i] = len(s.Triplets)
			}
		}(w)
	}
	wg.Wait()

	rng := rand.New(rand.NewSource(seed ^ 0xc11b))
	in := &frameInputs{}
	for _, vi := range rng.Perm(len(c.Videos)) {
		v := vitri.Video{ID: c.Videos[vi].ID, Frames: c.Videos[vi].Frames}
		if in.triplets >= triplets {
			in.spare = append(in.spare, v)
			continue
		}
		in.videos = append(in.videos, v)
		in.frames += len(v.Frames)
		in.triplets += counts[vi]
	}
	if in.triplets < triplets {
		return nil, fmt.Errorf("corpus at scale %g holds %d triplets, the population needs %d", scale, in.triplets, triplets)
	}
	if nClips > len(in.videos) {
		return nil, fmt.Errorf("%d clips from %d videos", nClips, len(in.videos))
	}
	for _, vi := range stratifiedPick(rng, nClips, len(in.videos), func(i int) int { return len(in.videos[i].Frames) }) {
		in.clips = append(in.clips, dataset.PerturbFrames(in.videos[vi].Frames, dataset.DefaultPerturb, rng))
	}
	return in, nil
}

// buildFrameDB is one cold set-up of an in-memory engine from frames:
// batch ingest (summarization dominates) and the index build forced by
// one search.
func buildFrameDB(in *frameInputs, opts vitri.Options) (*vitri.DB, error) {
	db := vitri.New(opts)
	if err := addBatch(db, in.videos); err != nil {
		return nil, err
	}
	if _, err := db.Search(in.clips[0], topK); err != nil {
		return nil, err
	}
	return db, nil
}

// addBatch is AddBatch with per-item failures folded into the error.
func addBatch(db *vitri.DB, videos []vitri.Video) error {
	errs, err := db.AddBatch(videos)
	if err != nil {
		return err
	}
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("video %d: %w", videos[i].ID, e)
		}
	}
	return nil
}

// searchBody is the /search request: raw frames, summarized server-side.
func searchBody(frames [][]float64) ([]byte, error) {
	return json.Marshal(struct {
		Frames [][]float64 `json:"frames"`
		K      int         `json:"k"`
	}{frames, topK})
}

// searchReply is the part of the /search response the benchmark checks.
type searchReply struct {
	Matches []struct {
		VideoID    int     `json:"video_id"`
		Similarity float64 `json:"similarity"`
	} `json:"matches"`
}

func (r *searchReply) digest() uint64 {
	ms := make([]vitri.Match, len(r.Matches))
	for i, m := range r.Matches {
		ms[i] = vitri.Match{VideoID: m.VideoID, Similarity: m.Similarity}
	}
	return matchDigest(ms)
}

// httpClient posts search bodies to one server over one keep-alive
// connection and digests the replies.
type httpClient struct {
	url string
	c   *http.Client
}

func (hc *httpClient) search(body []byte) (uint64, error) {
	resp, err := hc.c.Post(hc.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	var reply searchReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return 0, err
	}
	if len(reply.Matches) == 0 {
		return 0, fmt.Errorf("no matches")
	}
	return reply.digest(), nil
}

// serveDB mounts the service's handler on a loopback listener in this
// process: the default server.Config apart from a one-minute deadline.
func serveDB(db *vitri.DB) (*server.Server, *httptest.Server, *httpClient) {
	srv := server.New(db, server.Config{RequestTimeout: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	return srv, ts, &httpClient{url: ts.URL + "/search", c: ts.Client()}
}

// runHTTP is the untraced run of http-video.
func runHTTP(e *env, t *tally) (map[string]metric, error) {
	in, err := genFrameInputs(e.sz.httpScale, e.cfg.seed, e.sz.httpTriplets, e.sz.httpQueries)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(in.clips))
	kb := 0.0
	for i, clip := range in.clips {
		if bodies[i], err = searchBody(clip); err != nil {
			return nil, err
		}
		kb += float64(len(bodies[i])) / 1024
	}
	db, setup, reps, err := measureSetup(e.sz.httpReps, e.sz.setupFloor,
		func() (*vitri.DB, error) { return buildFrameDB(in, e.options()) },
		(*vitri.DB).Close)
	if err != nil {
		return nil, err
	}
	srv, ts, client := serveDB(db)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		e.closing("server and engine", func() error { return srv.Close(ctx) }) // drains, then closes db
	}()
	e.printf("corpus          videos=%d frames=%d triplets=%d\n", db.Len(), in.frames, db.Triplets())
	e.printf("requests        %d bodies, mean %.1f KiB of JSON, one closed-loop client on one keep-alive connection\n", len(bodies), kb/float64(len(bodies)))
	printSetup(e, setup, reps)

	// The answer every pass must reproduce is the in-process one.
	want := make([]uint64, len(in.clips))
	for i, clip := range in.clips {
		ms, err := db.Search(clip, topK)
		if err != nil {
			return nil, fmt.Errorf("in-process search %d: %w", i, err)
		}
		want[i] = matchDigest(ms)
	}
	in.videos, in.clips = nil, nil

	ph := closedLoop(len(bodies), e.duration(), func(i int) (uint64, error) {
		d, err := client.search(bodies[i])
		if err == nil && d != want[i] {
			err = fmt.Errorf("matches differ from in-process DB.Search (digest %#x, want %#x)", d, want[i])
		}
		return d, err
	}, t)

	m := map[string]metric{"setup_s": {setup, "s"}}
	if err := queryMetrics(e, &ph, m); err != nil {
		return nil, err
	}
	bodies = nil
	m["heap_live_mb"] = metric{heapLiveMB(), "MiB"}
	runtime.KeepAlive(db)
	e.printf("results_digest  %#016x\n", ph.digest)
	return m, nil
}

// middleFrames takes the middle frame of every clip: the image probes of
// a frame workload's traced run.
func middleFrames(clips [][]vitri.Vector) []vitri.Vector {
	out := make([]vitri.Vector, len(clips))
	for i, c := range clips {
		out[i] = c[len(c)/2]
	}
	return out
}

// summarizeClips summarizes query clips the way Search does.
func summarizeClips(clips [][]vitri.Vector, seed int64) []vitri.Summary {
	out := make([]vitri.Summary, len(clips))
	for i, c := range clips {
		out[i] = vitri.Summarize(-1, c, epsilon, seed)
	}
	return out
}

// traceHTTP is the traced run of http-video: every layer is on the
// request's path, so one operation decomposes from the loopback round trip
// down to the leaf scan; only the write path is probed beside it, on a
// durable twin of the same corpus.
func traceHTTP(e *env, t *tally) (map[string]metric, error) {
	in, err := genFrameInputs(e.sz.httpScale, e.cfg.seed, e.sz.httpTriplets, e.sz.httpQueries)
	if err != nil {
		return nil, err
	}
	db, err := buildFrameDB(in, e.options())
	if err != nil {
		return nil, err
	}
	defer db.Close()
	e.printf("corpus          videos=%d frames=%d triplets=%d\n", db.Len(), in.frames, db.Triplets())
	dur, err := openDurableWith(e, in.videos)
	if err != nil {
		return nil, err
	}
	// The handle live at exit: the write-path probe re-opens.
	defer e.closing("durable twin", func() error { return dur.db.Close() })

	ops := min(e.sz.traceOps, len(in.clips))
	clips := in.clips[:ops]
	fx, err := newFrameFixture(in.videos, clips, e.cfg.seed)
	if err != nil {
		return nil, err
	}
	fx.db, fx.dur, fx.newcomers = db, dur, clipsAsVideos(clips)
	in.videos = nil
	bodies := make([][]byte, ops)
	for i, c := range clips {
		if bodies[i], err = searchBody(c); err != nil {
			return nil, err
		}
	}
	r := &tracedRun{e: e, t: t, fx: fx, ops: ops, viaHTTP: true,
		ix: &indexFixture{db: db, sums: fx.sums, qsums: summarizeClips(clips, db.Seed()), probes: middleFrames(clips)}}
	r.e2e = func(i int) error {
		_, err := r.client.search(bodies[i])
		return err
	}
	return r.run()
}
