package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vitri"
)

// churnInputs is a frame population split into the base ingested before
// timing and the churn set the writer adds and removes every cycle, plus
// the reader's pre-summarized queries.
type churnInputs struct {
	base    []vitri.Video
	set     []vitri.Video
	clips   [][]vitri.Vector // what the queries are summaries of
	queries []vitri.Summary
}

// genChurnInputs takes the base as the fixed-triplet population of the
// generated corpus and the churn set from the videos left over, stratified
// by length (an Add's cost grows with the frames it summarizes).
func genChurnInputs(e *env) (*churnInputs, int, error) {
	in, err := genFrameInputs(e.sz.churnScale, e.cfg.seed, e.sz.churnTriplets, e.sz.churnQueries)
	if err != nil {
		return nil, 0, err
	}
	if e.sz.churnSet > len(in.spare) {
		return nil, 0, fmt.Errorf("a churn set of %d from the %d videos the base leaves over", e.sz.churnSet, len(in.spare))
	}
	ci := &churnInputs{base: in.videos, clips: in.clips, queries: summarizeClips(in.clips, e.cfg.seed)}
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0xc4a2))
	for _, vi := range stratifiedPick(rng, e.sz.churnSet, len(in.spare), func(i int) int { return len(in.spare[i].Frames) }) {
		ci.set = append(ci.set, in.spare[vi])
	}
	return ci, in.frames, nil
}

// buildDurable is one cold set-up of the durable engine in a fresh
// directory: batch ingest of the base, checkpoint, close, and the recovery
// re-open with its index build forced by one search.
func buildDurable(e *env, in *churnInputs) (*durable, error) {
	dir, err := e.work.fresh("store")
	if err != nil {
		return nil, err
	}
	db, err := vitri.OpenDurable(dir, e.options())
	if err != nil {
		return nil, err
	}
	if err := addBatch(db, in.base); err != nil {
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if db, err = vitri.OpenDurable(dir, e.options()); err != nil {
		return nil, err
	}
	if _, _, err := db.SearchSummary(&in.queries[0], topK, vitri.Composed); err != nil {
		return nil, err
	}
	return &durable{db: db, dir: dir}, nil
}

// durable is an open durable engine and the directory it lives in.
type durable struct {
	db  *vitri.DB
	dir string
}

func (d *durable) close() error { return d.db.Close() }

// churnPhase is what cycles of the writer beside the reader measured: the
// reader's side as a phase (every query it completed; passes are the
// writer's cycles), and the latency of every acknowledged write.
type churnPhase struct {
	phase
	writeMs []float64
}

// churn runs the workload's two clients until the writer has completed
// whole cycles covering minDur (at least minCycles): the writer adds the
// whole churn set, then removes it, with an inline Checkpoint every
// ckptEvery mutations — by count, so no timer sits in the measured path;
// the reader searches closed-loop over the query list until the writer is
// done. Every mutation must be acknowledged and Len must be back at the
// base count after every cycle.
func churn(db *vitri.DB, in *churnInputs, ckptEvery, minCycles int, minDur time.Duration, t *tally) churnPhase {
	var (
		ph      churnPhase
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		queryMs []float64 // owned by the reader until wg.Wait returns; -1 marks a failed query
		readErr error
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
			q := &in.queries[i%len(in.queries)]
			t0 := time.Now()
			ms, _, err := db.SearchSummary(q, topK, vitri.Composed)
			lat := time.Since(t0)
			if err != nil || len(ms) == 0 {
				readErr = err
				queryMs = append(queryMs, -1)
				continue
			}
			queryMs = append(queryMs, float64(lat)/1e6)
		}
	}()

	base := db.Len()
	mutations := 0
	write := func(what string, id int, f func() error) {
		t0 := time.Now()
		err := f()
		lat := time.Since(t0)
		if err != nil {
			t.fail("%s %d: %v", what, id, err)
		} else {
			t.ok()
			ph.writeMs = append(ph.writeMs, float64(lat)/1e6)
		}
		if mutations++; mutations%ckptEvery == 0 {
			if err := db.Checkpoint(); err != nil {
				t.fail("checkpoint after %d mutations: %v", mutations, err)
			}
		}
	}
	start := time.Now()
	for ph.passes < minCycles || time.Since(start) < minDur {
		for i := range in.set {
			v := &in.set[i]
			write("add", v.ID, func() error { return db.Add(v.ID, v.Frames) })
		}
		for i := range in.set {
			id := in.set[i].ID
			write("remove", id, func() error { return db.Remove(id) })
		}
		ph.passes++
		if n := db.Len(); n != base {
			t.fail("cycle %d: Len %d, base is %d", ph.passes, n, base)
		}
	}
	ph.wall = time.Since(start)
	close(stop)
	wg.Wait()

	for _, ms := range queryMs {
		if ms < 0 {
			t.fail("reader query failed or came back empty (last error: %v)", readErr)
			continue
		}
		t.ok()
		ph.ms = append(ph.ms, ms)
	}
	return ph
}

// storeBytes sums the sizes of the regular files under dir.
func storeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// runChurn is the untraced run of churn-durable.
func runChurn(e *env, t *tally) (map[string]metric, error) {
	in, frames, err := genChurnInputs(e)
	if err != nil {
		return nil, err
	}
	d, setup, reps, err := measureSetup(e.sz.churnReps, e.sz.setupFloor,
		func() (*durable, error) { return buildDurable(e, in) },
		(*durable).close)
	if err != nil {
		return nil, err
	}
	db := d.db
	// Whichever handle is live at exit; Close is idempotent and the one
	// that matters is checked below.
	defer e.closing("engine", func() error { return db.Close() })
	in.base, in.clips = nil, nil
	e.printf("corpus          base videos=%d frames=%d triplets=%d, churn set=%d videos\n", db.Len(), frames, db.Triplets(), len(in.set))
	e.printf("durability      engine-default flush policy: fsync on every group commit, never disabled; store under %s\n", filepath.Dir(d.dir))
	e.printf("clients         1 writer (add x%d, remove x%d, checkpoint every %d mutations) + 1 closed-loop reader\n", len(in.set), len(in.set), e.sz.ckptEvery)
	printSetup(e, setup, reps)

	// One whole untimed cycle warms both clients.
	churn(db, in, e.sz.ckptEvery, 1, 0, t)
	runtime.GC()
	before := db.DurabilityStats()
	ph := churn(db, in, e.sz.ckptEvery, minPasses, e.duration(), t)
	after := db.DurabilityStats()

	m := map[string]metric{"setup_s": {setup, "s"}}
	if err := queryMetrics(e, &ph.phase, m); err != nil {
		return nil, err
	}

	// Recovery must reproduce what was acknowledged.
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	bytes, err := storeBytes(d.dir)
	if err != nil {
		return nil, err
	}
	fixed := &in.queries[0]
	wantLen, wantTriplets := db.Len(), db.Triplets()
	wantMs, _, err := db.SearchSummary(fixed, topK, vitri.Composed)
	if err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if db, err = vitri.OpenDurable(d.dir, e.options()); err != nil {
		return nil, fmt.Errorf("re-open: %w", err)
	}
	gotMs, _, err := db.SearchSummary(fixed, topK, vitri.Composed)
	if err != nil {
		return nil, err
	}
	t.check(db.Len() == wantLen && db.Triplets() == wantTriplets && matchDigest(gotMs) == matchDigest(wantMs),
		"re-open: Len %d Triplets %d digest %#x, before close %d %d %#x",
		db.Len(), db.Triplets(), matchDigest(gotMs), wantLen, wantTriplets, matchDigest(wantMs))

	in.set, in.clips, in.queries = nil, nil, nil
	m["heap_live_mb"] = metric{heapLiveMB(), "MiB"}
	runtime.KeepAlive(db)

	writes := float64(len(ph.writeMs))
	e.printf("writes          %d acknowledged in %d cycles\n", len(ph.writeMs), ph.passes)
	e.printf("write_p50_ms    %.4f ms   (acknowledged durable Add/Remove; reported, not bounded)\n", median(ph.writeMs))
	e.printf("write_per_s     %.2f 1/s\n", writes/ph.wall.Seconds())
	e.printf("fsyncs_per_write %.3f\n", float64(after.Journal.Fsyncs-before.Journal.Fsyncs)/writes)
	e.printf("store_bytes_per_triplet %.2f B   (%d bytes after the final checkpoint / %d live triplets)\n", float64(bytes)/float64(wantTriplets), bytes, wantTriplets)
	e.printf("results_digest  %#016x   (fixed query, identical after re-open)\n", matchDigest(wantMs))
	return m, nil
}

// traceChurn is the traced run of churn-durable: the reader's queries are
// replayed through the index tier, and the write path is probed on the
// workload's own durable engine with the churn set, beside a reader, as
// in the timed phase.
func traceChurn(e *env, t *tally) (map[string]metric, error) {
	in, frames, err := genChurnInputs(e)
	if err != nil {
		return nil, err
	}
	d, err := buildDurable(e, in)
	if err != nil {
		return nil, err
	}
	// The handle live at exit: the write-path probe re-opens.
	defer e.closing("engine", func() error { return d.db.Close() })
	e.printf("corpus          base videos=%d frames=%d triplets=%d, churn set=%d videos\n", d.db.Len(), frames, d.db.Triplets(), len(in.set))

	ops := min(e.sz.traceOps, len(in.clips))
	fx, err := newFrameFixture(in.base, in.clips[:ops], e.cfg.seed)
	if err != nil {
		return nil, err
	}
	fx.db, fx.dur = d.db, d
	in.base = nil
	fx.newcomers = in.set[:min(2*ops, len(in.set))]
	r := &tracedRun{e: e, t: t, fx: fx, ops: ops,
		ix: &indexFixture{db: d.db, sums: fx.sums, qsums: in.queries[:ops], probes: middleFrames(in.clips[:ops])}}
	r.e2e = func(i int) error {
		_, _, err := r.ix.db.SearchSummary(&in.queries[i], topK, vitri.Composed)
		return err
	}
	return r.run()
}
