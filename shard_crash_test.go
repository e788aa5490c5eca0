package vitri

import (
	"math/rand"
	"reflect"
	"testing"

	"vitri/internal/core"
	"vitri/internal/crashfs"
	"vitri/internal/shard"
	"vitri/internal/vfs"
)

// Sharded crash-simulation suite. The flat suite (crash_test.go) proves
// one journal + snapshot survives a power cut at every write boundary;
// this file proves the sharded composition does too: N independent
// per-shard stores plus the cross-shard MANIFEST that commits their
// layout and checkpoint cuts. Two things change versus the flat model:
//
//   - a multi-shard batch group-commits each shard's journal
//     independently, so the state recovered after a mid-batch cut is the
//     acknowledged oracle plus any PRODUCT of per-shard prefixes of the
//     in-flight call (shard A may have persisted all its items while
//     shard B persisted none);
//   - the checkpoint's commit point is the manifest rename. The teeth
//     test swaps the atomic rename for an in-place overwrite and demands
//     the suite notice the difference.

// shardCall is one DB call's span in the op log, its logical ops grouped
// by home shard. Recovery may surface any combination of per-group
// prefixes of an in-flight call; an acknowledged call applies fully.
type shardCall struct {
	start, end int
	perShard   [][]crashOp
}

// shardCrashShards is the shard count the crash workload runs at.
const shardCrashShards = 3

// shardCrashOpts is the workload/recovery configuration: Shards is 0 on
// recovery so the manifest (or, for a pre-manifest crash, its absence)
// decides the layout.
func shardCrashOpts(fsys vfs.FS, shards int) Options {
	return Options{Epsilon: 0.3, Durable: &DurableOptions{FS: fsys}, Shards: shards}
}

// single wraps one op as a one-group call body.
func single(op crashOp) [][]crashOp { return [][]crashOp{{op}} }

// shardCrashWorkload drives the sharded durable workload on rec: singles
// across every shard, a checkpoint, a real multi-shard AddBatch, a
// mid-stream checkpoint with mutations injected into a shard's unlocked
// commit windows, and removes. nonAtomicManifest is the teeth switch.
func shardCrashWorkload(t *testing.T, rec *crashfs.Recorder, nonAtomicManifest bool) []shardCall {
	t.Helper()
	db, err := OpenDurable("db", shardCrashOpts(rec, shardCrashShards))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	db.testNonAtomicManifest = nonAtomicManifest
	calls := []shardCall{{start: 0, end: rec.Ops()}} // the open (manifest + empty shards)

	record := func(start int, groups [][]crashOp) {
		calls = append(calls, shardCall{start: start, end: rec.Ops(), perShard: groups})
	}
	add := func(id int) {
		start := rec.Ops()
		s := crashSummary(id)
		if err := db.AddSummary(s); err != nil {
			t.Fatalf("AddSummary(%d): %v", id, err)
		}
		record(start, single(crashOp{id: id, summary: s}))
	}
	remove := func(id int) {
		start := rec.Ops()
		if err := db.Remove(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
		record(start, single(crashOp{remove: true, id: id}))
	}
	checkpoint := func() {
		start := rec.Ops()
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		record(start, nil)
	}

	// Phase 1: enough singles that every shard holds data (ids 1..8 cover
	// all three shards under shard.Route), then fold them into per-shard
	// snapshots and a fresh manifest epoch.
	for id := 1; id <= 8; id++ {
		add(id)
	}
	checkpoint()

	// Phase 2: a real multi-shard AddBatch — the group commits run
	// concurrently per shard, so its acceptance is the per-shard-prefix
	// product. The oracle's summaries replicate AddBatch's summarization
	// (per-video seed = Options.Seed + id with the default zero seed).
	batchStart := rec.Ops()
	r := rand.New(rand.NewSource(19))
	videos := make([]Video, 5)
	groups := make([][]crashOp, shardCrashShards)
	for i := range videos {
		id := 20 + i
		videos[i] = Video{ID: id, Frames: synthVideo(r, 8, 2, 4)}
		s := Summarize(id, videos[i].Frames, 0.3, int64(id))
		home := shard.Route(id, shardCrashShards)
		groups[home] = append(groups[home], crashOp{id: id, summary: s})
	}
	itemErrs, err := db.AddBatch(videos)
	if err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	for i, e := range itemErrs {
		if e != nil {
			t.Fatalf("AddBatch item %d: %v", i, e)
		}
	}
	record(batchStart, groups)

	// Phase 3: a checkpoint with mutations landing inside shard 0's
	// unlocked commit windows — acknowledged after the capture, absent
	// from the snapshots being written, surviving only through the
	// retained journal suffixes and the manifest's cut sequences.
	ckptStart := rec.Ops()
	var hookCalls []shardCall
	db.shards[0].testBeforeSnapshotWrite = func() {
		for _, id := range []int{30, 31} {
			start := rec.Ops()
			s := crashSummary(id)
			if err := db.AddSummary(s); err != nil {
				t.Fatalf("mid-checkpoint AddSummary(%d): %v", id, err)
			}
			hookCalls = append(hookCalls, shardCall{start: start, end: rec.Ops(), perShard: single(crashOp{id: id, summary: s})})
		}
	}
	db.shards[0].testBeforeRotate = func() {
		start := rec.Ops()
		if err := db.Remove(30); err != nil {
			t.Fatalf("mid-checkpoint Remove(30): %v", err)
		}
		hookCalls = append(hookCalls, shardCall{start: start, end: rec.Ops(), perShard: single(crashOp{remove: true, id: 30})})
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("mid-stream Checkpoint: %v", err)
	}
	db.shards[0].testBeforeSnapshotWrite, db.shards[0].testBeforeRotate = nil, nil
	record(ckptStart, nil)
	calls = append(calls, hookCalls...)

	// Phase 4: removes and a few more singles on top of the new epoch.
	for _, id := range []int{2, 5, 21} {
		remove(id)
	}
	for id := 40; id <= 43; id++ {
		add(id)
	}

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return calls
}

// shardAcceptable reports whether got matches the oracle after the acked
// calls plus any product of per-shard prefixes of the call in flight at
// crash point p.
func shardAcceptable(got map[int]core.Summary, calls []shardCall, p int) (bool, string) {
	state := make(map[int]core.Summary)
	var inflight [][]crashOp
	for _, c := range calls {
		switch {
		case c.end <= p:
			for _, g := range c.perShard {
				for _, o := range g {
					oracleApply(state, o)
				}
			}
		case c.start <= p && p < c.end && len(c.perShard) > 0:
			inflight = c.perShard
		}
	}
	// Enumerate the prefix product across the in-flight call's shard
	// groups (each shard's journal recovers to an independent prefix of
	// its items).
	prefixes := make([]int, len(inflight))
	for {
		trial := make(map[int]core.Summary, len(state))
		for k, v := range state {
			trial[k] = v
		}
		for gi, g := range inflight {
			for _, o := range g[:prefixes[gi]] {
				oracleApply(trial, o)
			}
		}
		if reflect.DeepEqual(got, trial) {
			return true, ""
		}
		// Advance the mixed-radix prefix counter.
		gi := 0
		for ; gi < len(inflight); gi++ {
			if prefixes[gi] < len(inflight[gi]) {
				prefixes[gi]++
				break
			}
			prefixes[gi] = 0
		}
		if gi == len(inflight) {
			break
		}
	}
	full := make(map[int]core.Summary, len(state))
	for k, v := range state {
		full[k] = v
	}
	for _, g := range inflight {
		for _, o := range g {
			oracleApply(full, o)
		}
	}
	return false, describeDiff(got, full)
}

// verifyShardCrashState recovers one post-crash image (shard count
// adopted from the manifest; a cut before the first manifest commit
// legitimately recovers an empty flat store) and checks the full
// invariant, including that the recovered store still accepts and keeps
// a fresh insert across a reopen.
func verifyShardCrashState(st crashfs.State, calls []shardCall) string {
	open := func(fsys vfs.FS) (*DB, string) {
		db, err := OpenDurable("db", shardCrashOpts(fsys, 0))
		if err != nil {
			return nil, "recovery failed: " + err.Error()
		}
		return db, ""
	}
	db, msg := open(st.FS)
	if msg != "" {
		return msg
	}
	sums, err := db.summaries()
	if err != nil {
		return "summaries: " + err.Error()
	}
	got := make(map[int]core.Summary, len(sums))
	for _, s := range sums {
		got[s.VideoID] = s
	}
	ok, diff := shardAcceptable(got, calls, st.Point)
	if !ok {
		return "recovered contents diverge from oracle: " + diff
	}

	fresh := crashSummary(9900)
	if err := db.AddSummary(fresh); err != nil {
		return "post-recovery insert: " + err.Error()
	}
	if err := db.Close(); err != nil {
		return "post-recovery close: " + err.Error()
	}
	db2, msg := open(st.FS)
	if msg != "" {
		return "reopen after insert: " + msg
	}
	defer db2.Close()
	sums2, err := db2.summaries()
	if err != nil {
		return "reopen summaries: " + err.Error()
	}
	got2 := make(map[int]core.Summary, len(sums2))
	for _, s := range sums2 {
		got2[s.VideoID] = s
	}
	if _, ok := got2[9900]; !ok {
		return "acknowledged post-recovery insert lost on reopen"
	}
	delete(got2, 9900)
	if !reflect.DeepEqual(got2, got) {
		return "reopen changed recovered contents: " + describeDiff(got2, got)
	}
	return ""
}

// TestCrashShardedRecoveryExhaustive enumerates a power cut at every
// write boundary of the sharded workload — per-shard journal appends and
// group commits, per-shard snapshot writes and rotations, and both
// manifest commits — and requires every recovered image to satisfy the
// invariant.
func TestCrashShardedRecoveryExhaustive(t *testing.T) {
	rec := crashfs.NewRecorder()
	calls := shardCrashWorkload(t, rec, false)
	states := rec.CrashStates()
	if rec.Ops() < 100 {
		t.Fatalf("workload produced only %d crash boundaries, want hundreds of injected crash points", rec.Ops())
	}
	failures := 0
	for _, st := range states {
		if msg := verifyShardCrashState(st, calls); msg != "" {
			failures++
			t.Errorf("%s: %s", st.Desc, msg)
			if failures >= 10 {
				t.Fatalf("stopping after %d failing crash states (of %d)", failures, len(states))
			}
		}
	}
	t.Logf("verified %d crash states across %d boundaries", len(states), rec.Ops()+1)
}

// TestCrashShardedManifestHasTeeth breaks the manifest's atomic-replace
// discipline on purpose — checkpoints overwrite MANIFEST in place, in
// two unsynced writes — and demands the suite notice. A cut inside the
// overwrite leaves a truncated or half-written manifest that must brick
// or corrupt recovery somewhere in the enumeration; if it never does,
// the manifest boundaries prove nothing.
func TestCrashShardedManifestHasTeeth(t *testing.T) {
	rec := crashfs.NewRecorder()
	calls := shardCrashWorkload(t, rec, true)
	failures := 0
	for _, st := range rec.CrashStates() {
		if msg := verifyShardCrashState(st, calls); msg != "" {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("non-atomic manifest replacement passed every crash state — the manifest commit boundaries have no teeth")
	}
	t.Logf("non-atomic manifest replacement failed %d crash states, as it should", failures)
}
