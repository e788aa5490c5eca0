package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vitri"
	"vitri/internal/index"
	"vitri/internal/journal"
	"vitri/internal/storefmt"
	"vitri/internal/vfs"
)

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit. BENCHMARK.json's per_layer names exactly these.
var layerMetrics = map[string]string{
	"vitri.search_summary_ms": "ms", "vitri.search_image_ms": "ms", "vitri.add_ms": "ms", "vitri.remove_ms": "ms",
	"vitri.checkpoint_ms": "ms", "vitri.open_recover_s": "s", "vitri.lock_wait_frac": "frac", "vitri.write_per_s": "1/s",
	"server.roundtrip_ms": "ms", "server.handler_ms": "ms", "server.overhead_ms": "ms", "server.net_ms": "ms",
	"server.request_kb": "KiB", "server.rejected": "count",
	"core.summarize_query_ms": "ms", "core.summarize_frames_per_s": "1/s", "core.triplets_per_video": "count",
	"index.search_ms": "ms", "index.build_s": "s", "index.insert_ms": "ms", "index.ranges_per_query": "count",
	"index.candidates_per_query": "count", "index.selectivity": "frac", "index.similarity_ops_per_query": "count",
	"index.signature_skip_frac": "frac", "index.page_reads_per_query": "count",
	"btree.scan_ns_per_entry": "ns", "btree.bulkload_s": "s", "btree.height": "count", "btree.leaf_nodes": "count", "btree.leaf_fill": "frac",
	"sig.gap_ns_per_pair": "ns", "sig.build_us_per_video": "us",
	"geometry.shared_frames_ns_per_op": "ns",
	"refpoint.new_s":                   "s", "refpoint.range_width_frac": "frac",
	"journal.append_commit_us": "us", "journal.fsyncs_per_write": "count", "journal.bytes_per_write": "B",
	"storefmt.snapshot_write_ms": "ms", "storefmt.snapshot_read_ms": "ms", "storefmt.bytes_per_triplet": "B",
	"temporal.new_signature_ms": "ms", "temporal.rerank_ms": "ms", "shard.speedup_2": "ratio",
	"runtime.alloc_kb_per_query": "KiB", "runtime.allocs_per_query": "count", "runtime.gc_pause_ms_total": "ms",
	"trace.overhead_frac": "frac",
}

// indexFixture is what the index-tier replay runs on: always the
// workload's own corpus, engine and queries.
type indexFixture struct {
	db     *vitri.DB
	sums   []vitri.Summary // the corpus, video id ascending
	qsums  []vitri.Summary // whole-video queries
	probes []vitri.Vector  // single-frame probes
	image  bool            // the workload's operation is SearchImage over probes, not SearchSummary over qsums
}

// search issues query i against db: probe i when image, else whole-video
// query i.
func (ix *indexFixture) search(db *vitri.DB, i int, image bool) ([]vitri.Match, vitri.SearchStats, error) {
	if image {
		return db.SearchImage(ix.probes[i], topK, vitri.Composed)
	}
	return db.SearchSummary(&ix.qsums[i], topK, vitri.Composed)
}

// spanOfShape names the end-to-end span of a query shape.
func spanOfShape(image bool) string {
	if image {
		return "vitri.search_image"
	}
	return "vitri.search_summary"
}

// frameFixture is what the request-path and write-path probes run on:
// frame-bearing videos behind a served engine and a durable one. A
// workload that has frames brings its own population. knn-100k and
// image-100k have none, and the benchmark's contract makes every traced
// run report every per-layer metric, so they bring a small side corpus
// from the same seed; their numbers for these layers describe that corpus
// (the run prints which), not the workload, whose measured path never
// enters them.
type frameFixture struct {
	db      *vitri.DB       // served by the request-path probe
	dur     *durable        // mutated by the write-path probe; dur.db may be db
	sums    []vitri.Summary // the fixture's videos, summarized standalone
	sumSecs float64         // what that summarization took
	// tsigs are the videos' shot-order signatures. The frames themselves
	// are not kept: hundreds of megabytes of live harness heap would tax
	// every collection during the probes.
	tsigs     map[int]*vitri.TemporalSignature
	frames    int
	clips     [][]vitri.Vector // request bodies and reader queries derive from these
	newcomers []vitri.Video    // held by neither engine: the write-path probe adds and removes them
}

// summarizeAll summarizes videos the way Add does (seed + video id), on
// one goroutine, timed: the standalone cost of the core layer at ingest.
func summarizeAll(videos []vitri.Video, seed int64) ([]vitri.Summary, float64) {
	sums := make([]vitri.Summary, len(videos))
	t0 := time.Now()
	for i, v := range videos {
		sums[i] = vitri.Summarize(v.ID, v.Frames, epsilon, seed+int64(v.ID))
	}
	secs := time.Since(t0).Seconds()
	storefmt.SortSummaries(sums)
	return sums, secs
}

// clipsAsVideos gives query clips fresh ids: near-duplicate uploads.
func clipsAsVideos(clips [][]vitri.Vector) []vitri.Video {
	out := make([]vitri.Video, len(clips))
	for i, c := range clips {
		out[i] = vitri.Video{ID: 1<<20 + i, Frames: c}
	}
	return out
}

// openDurableWith opens a durable engine in a fresh directory holding
// videos, checkpointed.
func openDurableWith(e *env, videos []vitri.Video) (*durable, error) {
	dir, err := e.work.fresh("probe-store")
	if err != nil {
		return nil, err
	}
	db, err := vitri.OpenDurable(dir, e.options())
	if err != nil {
		return nil, err
	}
	if err := addBatch(db, videos); err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return &durable{db: db, dir: dir}, nil
}

func newFrameFixture(videos []vitri.Video, clips [][]vitri.Vector, seed int64) (*frameFixture, error) {
	f := &frameFixture{tsigs: make(map[int]*vitri.TemporalSignature), clips: clips}
	f.sums, f.sumSecs = summarizeAll(videos, seed)
	byID := make(map[int]*vitri.Summary, len(f.sums))
	for i := range f.sums {
		byID[f.sums[i].VideoID] = &f.sums[i]
	}
	for _, v := range videos {
		f.frames += len(v.Frames)
		ts, err := vitri.NewTemporalSignature(v.Frames, byID[v.ID])
		if err != nil {
			return nil, fmt.Errorf("temporal signature of video %d: %w", v.ID, err)
		}
		f.tsigs[v.ID] = ts
	}
	return f, nil
}

// tracedRun is one workload's separate traced run: warm-up, a plain pass
// (no spans) for the tracing overhead and the allocation counts, the
// traced pass, then the probes of the layers the operations do not
// decompose into.
type tracedRun struct {
	e  *env
	t  *tally
	tr *tracer
	ix *indexFixture
	fx *frameFixture
	tw *indexTwin
	m  map[string]metric
	// e2e runs the workload's own operation i, untraced.
	e2e func(i int) error
	ops int
	// viaHTTP says the workload's operation is the HTTP request, so the
	// index replay hangs under the request's spans instead of running as
	// operations of its own.
	viaHTTP bool
	// handler and client reach the frame fixture's served engine: in
	// process, and over loopback.
	handler http.Handler
	client  *httpClient

	stats     []vitri.SearchStats
	replays   []replayCounts
	unlike    int       // replays whose counts differ from the engine's SearchStats
	rootMs    []float64 // the traced pass's end-to-end spans
	buf       [2][]pair
	kb        float64
	rejected  int
	overheads []float64
	nets      []float64
}

func (r *tracedRun) set(name string, v float64) {
	r.m[name] = metric{v, layerMetrics[name]}
}

// run executes the traced run and returns every per-layer metric.
func (r *tracedRun) run() (map[string]metric, error) {
	e := r.e
	r.tr, r.m = newTracer(), make(map[string]metric)
	var err error
	if r.tw, err = buildTwin(r.ix.sums); err != nil {
		return nil, err
	}
	defer e.closing("index twin", r.tw.close)
	for name, v := range r.tw.built {
		r.m[name] = v
	}
	// The server is never closed — that would close the engine under its
	// owner — only its listener; every request has returned by then.
	srv, ts, client := serveDB(r.fx.db)
	defer ts.Close()
	r.handler, r.client = srv.Handler(), client

	// Warm-up, then the plain pass.
	for i := 0; i < r.ops; i++ {
		if err := r.e2e(i); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var plainMs []float64
	for i := 0; i < r.ops; i++ {
		t0 := time.Now()
		if err := r.e2e(i); err != nil {
			return nil, fmt.Errorf("plain op %d: %w", i, err)
		}
		plainMs = append(plainMs, float64(time.Since(t0))/1e6)
	}
	runtime.ReadMemStats(&after)
	n := float64(r.ops)
	r.set("runtime.alloc_kb_per_query", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	r.set("runtime.allocs_per_query", float64(after.Mallocs-before.Mallocs)/n)

	// The traced pass.
	for i := 0; i < r.ops; i++ {
		if r.viaHTTP {
			err = r.traceRequest(i, i)
		} else {
			_, _, err = r.traceQuery(i, "", i)
		}
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
	}
	r.set("trace.overhead_frac", median(r.rootMs)/median(plainMs)-1)

	// The query shape the workload does not issue, end to end only; on a
	// frame workload, also the request path it is not behind.
	for i := 0; i < r.ops && i < len(r.ix.probes) && i < len(r.ix.qsums); i++ {
		if err := r.traceOtherShape(i); err != nil {
			return nil, err
		}
	}
	if !r.viaHTTP {
		for i := 0; i < r.ops && i < len(r.fx.clips); i++ {
			if err := r.traceRequest(1000+i, i); err != nil {
				return nil, fmt.Errorf("request probe %d: %w", i, err)
			}
		}
	}
	if err := r.shardSpeedup(); err != nil {
		return nil, err
	}
	if err := r.writePath(); err != nil {
		return nil, err
	}
	r.assemble()
	// GC pauses over the whole run: a single pass of a small workload
	// may not see one collection.
	runtime.ReadMemStats(&after)
	r.set("runtime.gc_pause_ms_total", float64(after.PauseTotalNs)/1e6)

	out := e.cfg.traceOut
	if out == "" {
		out = defaultTraceOut(e.cfg)
	}
	if err := r.tr.write(out); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	e.printf("spans           %d written to %s\n", len(r.tr.spans), out)
	e.printf("replay          %d of %d replayed queries evaluated exactly the pairs the engine's SearchStats count\n", len(r.replays)-r.unlike, len(r.replays))
	r.tr.printSelfTimes(e)
	for name := range layerMetrics {
		if _, ok := r.m[name]; !ok {
			return nil, fmt.Errorf("traced run did not measure %s", name)
		}
	}
	return r.m, nil
}

// traceQuery replays query i of the index fixture: the end-to-end call
// into the DB, the same query straight into the twin index, and the
// twin's leaf scan, signature gate and exact fold.
func (r *tracedRun) traceQuery(op int, parent string, i int) (ms []vitri.Match, searchMs float64, err error) {
	image := r.ix.image
	var st vitri.SearchStats
	name := spanOfShape(image)
	searchMs = r.tr.do(name, parent, op, func() { ms, st, err = r.ix.search(r.ix.db, i, image) })
	q := r.ix.qsums[i]
	if err == nil && image {
		q, err = r.ix.db.ImageSummary(r.ix.probes[i])
	}
	if err != nil {
		return nil, 0, err
	}
	if parent == "" {
		r.rootMs = append(r.rootMs, searchMs)
	}
	r.tr.counts(map[string]float64{"ranges": float64(st.Ranges), "candidates": float64(st.Candidates), "similarity_ops": float64(st.SimilarityOps),
		"signature_skips": float64(st.SignatureSkips), "page_reads": float64(st.PageReads)})
	r.stats = append(r.stats, st)

	var twinMs []vitri.Match
	r.tr.do("index.search", name, op, func() { twinMs, err = r.tw.search(&q, image) })
	if err != nil {
		return nil, 0, err
	}
	r.t.check(matchDigest(twinMs) == matchDigest(ms), "op %d: twin index ranks differently from the engine", op)

	rc, err := r.tw.replay(r.tr, op, &q, &r.buf)
	if err != nil {
		return nil, 0, err
	}
	r.replays = append(r.replays, rc)
	// Every reported count is the engine's own (SearchStats). The replay
	// only gives the kernels pairs to be timed on; when it evaluates other
	// pairs than the engine — a later engine may prune differently — the
	// per-pair times still hold and the difference is printed, not failed.
	if rc.candidates != st.Candidates || rc.pageReads != st.PageReads || rc.ops != st.SimilarityOps || rc.pairs-rc.ops != st.SignatureSkips {
		r.unlike++
		r.e.printf("replay          op %d did candidates=%d reads=%d ops=%d skips=%d, engine reports %d %d %d %d\n", op,
			rc.candidates, rc.pageReads, rc.ops, rc.pairs-rc.ops, st.Candidates, st.PageReads, st.SimilarityOps, st.SignatureSkips)
	}
	return ms, searchMs, nil
}

// traceOtherShape issues the query shape the workload does not, end to
// end only.
func (r *tracedRun) traceOtherShape(i int) error {
	var err error
	other := !r.ix.image
	r.tr.do(spanOfShape(other), "", 3000+i, func() { _, _, err = r.ix.search(r.ix.db, i, other) })
	return err
}

// traceRequest replays clip i of the frame fixture through the request
// path: over loopback, straight into the handler, and then the two things
// the handler does — summarize the frames and search. It also times the
// temporal layer on the same clip, which no end-to-end workload reaches.
func (r *tracedRun) traceRequest(op, i int) error {
	clip := r.fx.clips[i]
	body, err := searchBody(clip)
	if err != nil {
		return err
	}
	r.kb += float64(len(body)) / 1024
	var round, handler, summarize, search float64
	round = r.tr.do("server.roundtrip", "", op, func() { _, err = r.client.search(body) })
	if err != nil {
		r.rejected++
		return err
	}
	if r.viaHTTP {
		r.rootMs = append(r.rootMs, round)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	handler = r.tr.do("server.handler", "server.roundtrip", op, func() { r.handler.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		r.rejected++
		return fmt.Errorf("handler status %d", rec.Code)
	}
	var q vitri.Summary
	summarize = r.tr.do("core.summarize_query", "server.handler", op, func() { q = vitri.Summarize(-1, clip, epsilon, r.fx.db.Seed()) })
	var ms []vitri.Match
	if r.viaHTTP {
		ms, search, err = r.traceQuery(op, "server.handler", i)
	} else {
		search = r.tr.do("vitri.search_probe", "server.handler", op, func() { ms, _, err = r.fx.db.SearchSummary(&q, topK, vitri.Composed) })
	}
	if err != nil {
		return err
	}
	r.overheads = append(r.overheads, handler-summarize-search)
	r.nets = append(r.nets, round-handler)

	// Temporal: the query's shot-order signature, then a re-rank of the
	// matches against the signatures of the matched videos.
	var qsig *vitri.TemporalSignature
	r.tr.do("temporal.new_signature", "", op, func() { qsig, err = vitri.NewTemporalSignature(clip, &q) })
	if err != nil {
		return err
	}
	r.tr.do("temporal.rerank", "", op, func() { ms = vitri.RerankTemporal(qsig, ms, r.fx.tsigs, 0.5) })
	r.t.check(len(ms) > 0, "op %d: temporal re-rank returned nothing", op)
	return nil
}

// shardSpeedup times the traced operations, one client, on a two-shard
// engine over the same corpus against the workload's one-shard engine,
// and checks the two rank identically.
func (r *tracedRun) shardSpeedup() error {
	opts := r.e.options()
	opts.Shards = 2
	db2 := vitri.New(opts)
	defer r.e.closing("two-shard engine", db2.Close)
	for i := range r.ix.sums {
		if err := db2.AddSummary(r.ix.sums[i]); err != nil {
			return err
		}
	}
	query := func(db *vitri.DB, i int) ([]vitri.Match, error) {
		ms, _, err := r.ix.search(db, i, r.ix.image)
		return ms, err
	}
	if _, err := query(db2, 0); err != nil { // builds both shards' indexes
		return err
	}
	var secs [2]float64
	digests := make([]uint64, r.ops)
	for side, db := range []*vitri.DB{r.ix.db, db2} {
		t0 := time.Now()
		for i := 0; i < r.ops; i++ {
			ms, err := query(db, i)
			if err != nil {
				return err
			}
			if d := matchDigest(ms); side == 0 {
				digests[i] = d
			} else {
				r.t.check(d == digests[i], "query %d ranks differently at 2 shards", i)
			}
		}
		secs[side] = time.Since(t0).Seconds()
	}
	r.set("shard.speedup_2", secs[0]/secs[1])
	return nil
}

// writePath probes the durable write path on the frame fixture's durable
// engine: first the real thing beside a reader, then — engine quiet —
// each thing an Add does on its own, so the part of an Add that is none of
// them (waiting for the lock the reader holds, and the router) can be told
// apart; then snapshot encode/decode and recovery.
func (r *tracedRun) writePath() error {
	reader := summarizeClips(r.fx.clips, r.fx.dur.db.Seed())
	if err := r.writeBesideReader(reader); err != nil {
		return fmt.Errorf("write-path probe: %w", err)
	}
	if err := r.addLayersAlone(); err != nil {
		return fmt.Errorf("write-path layers: %w", err)
	}
	if err := r.recoverEngine(&reader[0]); err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	return nil
}

// writeBesideReader adds the newcomers, checkpoints, removes them and
// checkpoints again, twice, while one closed-loop reader searches beside
// the writer: the shape of churn-durable.
func (r *tracedRun) writeBesideReader(reader []vitri.Summary) error {
	fx, db := r.fx, r.fx.dur.db
	if _, _, err := db.SearchSummary(&reader[0], topK, vitri.Composed); err != nil {
		return err
	}
	stop := make(chan struct{})
	var (
		wg      sync.WaitGroup
		readErr error // the reader's, read after wg.Wait
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := db.SearchSummary(&reader[i%len(reader)], topK, vitri.Composed); err != nil {
				readErr = err
			}
		}
	}()
	var (
		werr      error
		busy      time.Duration
		mutations int
		j0, j1    journal.Stats
	)
	timed := func(name string, op int, f func() error) time.Duration {
		t0 := time.Now()
		r.tr.do(name, "", op, func() {
			if err := f(); err != nil {
				werr = err
			}
		})
		return time.Since(t0)
	}
	for round := 0; round < 2 && werr == nil; round++ {
		if round == 1 {
			j0 = db.DurabilityStats().Journal
		}
		for i := range fx.newcomers {
			v := &fx.newcomers[i]
			busy += timed("vitri.add", 2000+i, func() error { return db.Add(v.ID, v.Frames) })
		}
		if round == 1 {
			j1 = db.DurabilityStats().Journal
		}
		timed("vitri.checkpoint", 2000+2*round, db.Checkpoint)
		for i := range fx.newcomers {
			id := fx.newcomers[i].ID
			busy += timed("vitri.remove", 2000+i, func() error { return db.Remove(id) })
		}
		timed("vitri.checkpoint", 2001+2*round, db.Checkpoint)
		mutations += 2 * len(fx.newcomers)
	}
	close(stop)
	wg.Wait()
	if werr != nil || readErr != nil {
		return fmt.Errorf("writer: %v, reader: %v", werr, readErr)
	}
	adds := float64(len(fx.newcomers))
	r.set("vitri.write_per_s", float64(mutations)/busy.Seconds())
	r.set("journal.fsyncs_per_write", float64(j1.Fsyncs-j0.Fsyncs)/adds)
	r.set("journal.bytes_per_write", float64(j1.Bytes-j0.Bytes)/adds)
	return nil
}

// addLayersAlone repeats the newcomers' Adds one layer at a time — the
// summarization, the index insert, the journal append and commit — and
// then encodes and decodes a snapshot of the fixture's corpus, all on the
// store's filesystem with nothing else running.
func (r *tracedRun) addLayersAlone() error {
	fx := r.fx
	// An index of the frame fixture's own size to insert into.
	twinIx, err := index.Build(fx.sums, index.Options{Epsilon: epsilon})
	if err != nil {
		return err
	}
	defer r.e.closing("insert-probe index", twinIx.Close)
	dir, err := r.e.work.fresh("probe-files")
	if err != nil {
		return err
	}
	jw, err := journal.Open(vfs.OS{}, filepath.Join(dir, "probe.wal"), journal.Config{StartSeq: 1}, func(journal.Entry) error { return nil })
	if err != nil {
		return err
	}
	defer r.e.closing("probe journal", jw.Close)
	for i := range fx.newcomers {
		v := &fx.newcomers[i]
		var s vitri.Summary
		r.tr.do("core.summarize_video", "vitri.add", 2000+i, func() { s = vitri.Summarize(v.ID, v.Frames, epsilon, fx.dur.db.Seed()+int64(v.ID)) })
		r.tr.do("index.insert", "vitri.add", 2000+i, func() { err = twinIx.Insert(s) })
		if err == nil {
			err = twinIx.Remove(v.ID)
		}
		if err != nil {
			return err
		}
		r.tr.do("journal.append_commit", "vitri.add", 2000+i, func() {
			var seq uint64
			if seq, err = jw.AppendAdd(&s); err == nil {
				err = jw.Commit(seq)
			}
		})
		if err != nil {
			return err
		}
	}

	snap := &storefmt.Snapshot{Version: storefmt.Version3, Epsilon: epsilon, LastSeq: 1, Summaries: fx.sums}
	snapPath := filepath.Join(dir, "probe.snapshot")
	for rep := 0; rep < 3; rep++ {
		r.tr.do("storefmt.snapshot_write", "vitri.checkpoint", 2100+rep, func() { err = storefmt.WriteSnapshotFile(vfs.OS{}, snapPath, snap) })
		if err != nil {
			return err
		}
		var got *storefmt.Snapshot
		r.tr.do("storefmt.snapshot_read", "vitri.open_recover", 2100+rep, func() { got, err = storefmt.ReadSnapshotFile(vfs.OS{}, snapPath) })
		if err != nil {
			return err
		}
		r.t.check(len(got.Summaries) == len(fx.sums), "snapshot read back %d summaries of %d", len(got.Summaries), len(fx.sums))
	}
	return nil
}

// recoverEngine closes the durable engine and times its recovery: re-open
// and the first search. The re-opened handle replaces the closed one
// wherever the fixtures held it.
func (r *tracedRun) recoverEngine(first *vitri.Summary) error {
	fx, db := r.fx, r.fx.dur.db
	bytes, err := storeBytes(fx.dur.dir)
	if err != nil {
		return err
	}
	r.set("storefmt.bytes_per_triplet", float64(bytes)/float64(db.Triplets()))
	wantLen := db.Len()
	if err := db.Close(); err != nil {
		return err
	}
	var reopened *vitri.DB
	recoverMs := r.tr.do("vitri.open_recover", "", 2200, func() {
		if reopened, err = vitri.OpenDurable(fx.dur.dir, r.e.options()); err == nil {
			_, _, err = reopened.SearchSummary(first, topK, vitri.Composed)
		}
	})
	if err != nil {
		return err
	}
	r.t.check(reopened.Len() == wantLen, "re-open: Len %d, was %d", reopened.Len(), wantLen)
	if fx.db == db {
		fx.db = reopened
	}
	if r.ix.db == db {
		r.ix.db = reopened
	}
	fx.dur.db = reopened
	r.set("vitri.open_recover_s", recoverMs/1e3)
	return nil
}

// assemble derives the per-layer metrics from the spans and counts.
func (r *tracedRun) assemble() {
	tr := r.tr
	for name, span := range map[string]string{
		"vitri.search_summary_ms": "vitri.search_summary", "vitri.search_image_ms": "vitri.search_image",
		"vitri.add_ms": "vitri.add", "vitri.remove_ms": "vitri.remove", "vitri.checkpoint_ms": "vitri.checkpoint",
		"server.roundtrip_ms": "server.roundtrip", "server.handler_ms": "server.handler",
		"core.summarize_query_ms": "core.summarize_query", "index.search_ms": "index.search", "index.insert_ms": "index.insert",
		"storefmt.snapshot_write_ms": "storefmt.snapshot_write", "storefmt.snapshot_read_ms": "storefmt.snapshot_read",
		"temporal.new_signature_ms": "temporal.new_signature", "temporal.rerank_ms": "temporal.rerank",
	} {
		r.set(name, tr.med(span))
	}
	r.set("journal.append_commit_us", tr.med("journal.append_commit")*1e3)
	r.set("vitri.lock_wait_frac", 1-(tr.med("core.summarize_video")+tr.med("index.insert")+tr.med("journal.append_commit"))/tr.med("vitri.add"))
	r.set("server.overhead_ms", median(r.overheads))
	r.set("server.net_ms", median(r.nets))
	r.set("server.request_kb", r.kb/float64(len(r.overheads)))
	r.set("server.rejected", float64(r.rejected))
	r.set("core.summarize_frames_per_s", float64(r.fx.frames)/r.fx.sumSecs)

	triplets := 0
	for i := range r.ix.sums {
		triplets += len(r.ix.sums[i].Triplets)
	}
	r.set("core.triplets_per_video", float64(triplets)/float64(len(r.ix.sums)))
	var ranges, cands, ops, skips, reads, width, pairs, opened float64
	for _, st := range r.stats {
		ranges += float64(st.Ranges)
		cands += float64(st.Candidates)
		ops += float64(st.SimilarityOps)
		skips += float64(st.SignatureSkips)
		reads += float64(st.PageReads)
	}
	for _, rc := range r.replays {
		width += rc.rangeWidth
		pairs += float64(rc.pairs)
		opened += float64(rc.ops)
	}
	n := float64(len(r.stats))
	r.set("index.ranges_per_query", ranges/n)
	r.set("index.candidates_per_query", cands/n)
	r.set("index.selectivity", cands/n/float64(triplets))
	r.set("index.similarity_ops_per_query", ops/n)
	r.set("index.signature_skip_frac", skips/(ops+skips))
	r.set("index.page_reads_per_query", reads/n)
	r.set("refpoint.range_width_frac", width/n)
	sum := func(name string) (t float64) {
		for _, ms := range tr.ms[name] {
			t += ms
		}
		return t
	}
	r.set("sig.gap_ns_per_pair", sum("sig.gap")*1e6/pairs)
	r.set("geometry.shared_frames_ns_per_op", sum("geometry.shared_frames")*1e6/opened)
	if st, err := r.ix.db.Stats(); err == nil {
		r.set("btree.height", float64(st.Height))
		r.set("btree.leaf_nodes", float64(st.LeafNodes))
		r.set("btree.leaf_fill", st.LeafFill)
	}
}
