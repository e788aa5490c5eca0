package vitri

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"vitri/internal/core"
	"vitri/internal/crashfs"
	"vitri/internal/storefmt"
	"vitri/internal/vec"
	"vitri/internal/vfs"
)

// The crash-simulation suite. A deterministic durable workload runs
// against a recording filesystem; crashfs then enumerates a simulated
// power cut at EVERY write/sync boundary (with torn, reordered and
// dropped-write variants at each), and recovery runs against every
// resulting disk image. The invariant checked on each image:
//
//  1. OpenDurable succeeds — no post-crash state may brick the store;
//  2. the recovered contents equal the oracle after exactly the
//     acknowledged operations, plus at most a prefix of the single call
//     that was in flight at the cut (an op that reached the journal but
//     was never acknowledged may legitimately survive — it must apply
//     fully or not at all, never partially);
//  3. the store still works: one more insert, close, reopen, and the
//     fresh insert plus everything from (2) is intact. This step is what
//     gives the torn-tail truncation teeth — see TestCrashSuiteHasTeeth.

// crashOp is one logical mutation for the oracle.
type crashOp struct {
	remove  bool
	id      int
	summary core.Summary
}

// ackedCall records one DB call's position in the filesystem op log:
// ops issued in [start, end). Its logical ops are acknowledged once the
// crash point reaches end.
type ackedCall struct {
	start, end int
	ops        []crashOp
}

// crashSummary builds a small deterministic summary for id.
func crashSummary(id int) core.Summary {
	base := float64(id)
	return core.Summary{
		VideoID:    id,
		FrameCount: 4 + id%3,
		Triplets: []core.ViTri{
			core.NewViTri(vec.Vector{base + 0.125, 0.5, -base * 0.0625}, 0.25, 1+id%4),
			core.NewViTri(vec.Vector{base * 0.5, -1.25, 0.75}, 0.375, 2),
		},
	}
}

// wlStep is one step of a crash workload.
type wlStep struct {
	checkpoint bool
	batch      []int // AddBatch when len > 1, AddSummary when len == 1
	remove     int   // Remove when > 0 and batch empty and !checkpoint
	// preWrite and preRotate are mutations injected inside a checkpoint's
	// unlocked windows via the DB's test hooks (checkpoint must be true):
	// preWrite runs after the capture but before the snapshot write,
	// preRotate after the snapshot write but before the journal rotation.
	// Positive ids are adds, negative ids removes. These are the ops the
	// retained-suffix rotation exists for — acknowledged after the cut,
	// absent from the snapshot being written, surviving only through the
	// journal.
	preWrite  []int
	preRotate []int
}

// defaultCrashWorkload: 8 adds, a checkpoint, then 36 journaled ops
// (adds, removes and one group-committed batch) with a second checkpoint
// mid-stream — the shape the acceptance bar asks for: every boundary of
// snapshot writing plus a journal at least 32 operations deep. The
// mid-stream checkpoint runs with concurrent mutations in flight: three
// adds land between the capture and the snapshot write, and one more add
// plus a remove (of a just-added id) land between the write and the
// journal rotation — power cuts at every boundary of the snapshot write
// and the retained-suffix rotation are enumerated with those acked ops
// living only in the journal suffix.
func defaultCrashWorkload() []wlStep {
	var steps []wlStep
	for i := 1; i <= 8; i++ {
		steps = append(steps, wlStep{batch: []int{i}})
	}
	steps = append(steps, wlStep{checkpoint: true})
	// 36 journaled ops: 20 adds, one 6-video batch, 10 removes.
	for i := 9; i <= 28; i++ {
		steps = append(steps, wlStep{batch: []int{i}})
		if i == 18 {
			steps = append(steps, wlStep{checkpoint: true, preWrite: []int{60, 61, 62}, preRotate: []int{63, -61}})
		}
	}
	steps = append(steps, wlStep{batch: []int{40, 41, 42, 43, 44, 45}})
	for i := 1; i <= 10; i++ {
		steps = append(steps, wlStep{remove: i})
	}
	return steps
}

// runCrashWorkload executes steps durably on fsys, recording each call's
// op-log span. Every step must succeed — the workload is the golden run.
func runCrashWorkload(t *testing.T, rec *crashfs.Recorder, steps []wlStep) []ackedCall {
	return runCrashWorkloadOpts(t, rec, steps, false)
}

// runCrashWorkloadOpts is runCrashWorkload with the retained-suffix
// rotation optionally broken (dropRetain) — the teeth switch: with the
// old rotate-to-empty, mutations acknowledged during a checkpoint's
// unlocked write are wiped from the journal.
func runCrashWorkloadOpts(t *testing.T, rec *crashfs.Recorder, steps []wlStep, dropRetain bool) []ackedCall {
	t.Helper()
	db, err := OpenDurable("db", Options{Epsilon: 0.3, Durable: &DurableOptions{FS: rec}})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	db.shards[0].testDropRetainedSuffix = dropRetain
	// applyHook runs one hook-injected mutation inside a checkpoint's
	// unlocked window. Each is its own acknowledged call whose op-log
	// span nests inside the checkpoint's span.
	applyHook := func(id int) ackedCall {
		start := rec.Ops()
		var op crashOp
		if id < 0 {
			if err := db.Remove(-id); err != nil {
				t.Fatalf("mid-checkpoint Remove(%d): %v", -id, err)
			}
			op = crashOp{remove: true, id: -id}
		} else {
			s := crashSummary(id)
			if err := db.AddSummary(s); err != nil {
				t.Fatalf("mid-checkpoint AddSummary(%d): %v", id, err)
			}
			op = crashOp{id: id, summary: s}
		}
		return ackedCall{start: start, end: rec.Ops(), ops: []crashOp{op}}
	}
	calls := []ackedCall{{start: 0, end: rec.Ops()}} // the open itself
	for _, st := range steps {
		start := rec.Ops()
		var ops []crashOp
		switch {
		case st.checkpoint:
			var hookCalls []ackedCall
			if len(st.preWrite) > 0 {
				db.shards[0].testBeforeSnapshotWrite = func() {
					for _, id := range st.preWrite {
						hookCalls = append(hookCalls, applyHook(id))
					}
				}
			}
			if len(st.preRotate) > 0 {
				db.shards[0].testBeforeRotate = func() {
					for _, id := range st.preRotate {
						hookCalls = append(hookCalls, applyHook(id))
					}
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			db.shards[0].testBeforeSnapshotWrite, db.shards[0].testBeforeRotate = nil, nil
			// The checkpoint's own (op-free) call is recorded at the end
			// of the loop body like every step; the nested hook calls
			// carry the in-flight mutations. acceptable() matches calls
			// on spans, not slice order.
			calls = append(calls, hookCalls...)
		case st.remove > 0:
			if err := db.Remove(st.remove); err != nil {
				t.Fatalf("Remove(%d): %v", st.remove, err)
			}
			ops = []crashOp{{remove: true, id: st.remove}}
		case len(st.batch) == 1:
			s := crashSummary(st.batch[0])
			if err := db.AddSummary(s); err != nil {
				t.Fatalf("AddSummary(%d): %v", st.batch[0], err)
			}
			ops = []crashOp{{id: s.VideoID, summary: s}}
		default:
			// Exercise the group-commit path with pre-made summaries via
			// AddSummary under one batch… AddBatch summarizes from frames;
			// journaling order inside one call is what matters, so issue
			// the adds back-to-back and treat them as one in-flight call.
			for _, id := range st.batch {
				s := crashSummary(id)
				if err := db.AddSummary(s); err != nil {
					t.Fatalf("AddSummary(batch %d): %v", id, err)
				}
				ops = append(ops, crashOp{id: s.VideoID, summary: s})
			}
		}
		calls = append(calls, ackedCall{start: start, end: rec.Ops(), ops: ops})
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return calls
}

// oracleApply folds ops into a contents map.
func oracleApply(state map[int]core.Summary, o crashOp) {
	if o.remove {
		delete(state, o.id)
	} else {
		state[o.id] = o.summary
	}
}

// dbContents reads back a database's full contents.
func dbContents(t *testing.T, db *DB) map[int]core.Summary {
	t.Helper()
	sums, err := db.summaries()
	if err != nil {
		t.Fatalf("summaries: %v", err)
	}
	out := make(map[int]core.Summary, len(sums))
	for _, s := range sums {
		out[s.VideoID] = s
	}
	return out
}

// acceptable reports whether got matches the oracle after acked calls
// plus some prefix (possibly empty, possibly all) of the in-flight
// call's ops at crash point p.
func acceptable(got map[int]core.Summary, calls []ackedCall, p int) (bool, string) {
	state := make(map[int]core.Summary)
	var inflight []crashOp
	for _, c := range calls {
		switch {
		case c.end <= p:
			for _, o := range c.ops {
				oracleApply(state, o)
			}
		case c.start <= p && p < c.end && len(c.ops) > 0:
			// The op-carrying call in flight at p. Op-free calls
			// (checkpoints) must not claim the slot: a mutation injected
			// inside a checkpoint's unlocked window has its span nested
			// inside the checkpoint's, and at most one op-carrying call
			// overlaps any point (hook mutations run synchronously).
			inflight = c.ops
		}
	}
	for k := 0; k <= len(inflight); k++ {
		if k > 0 {
			oracleApply(state, inflight[k-1])
		}
		if reflect.DeepEqual(got, state) {
			return true, ""
		}
	}
	return false, describeDiff(got, state)
}

// describeDiff renders a compact got-vs-want id diff for failures (want
// is the oracle with the whole in-flight call applied).
func describeDiff(got, want map[int]core.Summary) string {
	var missing, extra []int
	for id := range want {
		if _, ok := got[id]; !ok {
			missing = append(missing, id)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			extra = append(extra, id)
		}
	}
	return "missing=" + intsString(missing) + " extra=" + intsString(extra)
}

func intsString(ids []int) string {
	if len(ids) == 0 {
		return "[]"
	}
	s := "["
	for i, id := range ids {
		if i > 0 {
			s += ","
		}
		s += itoa(id)
	}
	return s + "]"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// verifyCrashState runs recovery on one post-crash image and checks the
// full invariant. Returns an error string ("" = pass) so the teeth test
// can count failures without failing.
func verifyCrashState(st crashfs.State, calls []ackedCall, keepTail bool) string {
	open := func(fsys vfs.FS) (*DB, string) {
		opts := Options{Epsilon: 0.3, Durable: &DurableOptions{FS: fsys, keepCorruptTail: keepTail}}
		db, err := OpenDurable("db", opts)
		if err != nil {
			return nil, "recovery failed: " + err.Error()
		}
		return db, ""
	}
	db, msg := open(st.FS)
	if msg != "" {
		return msg
	}
	got := make(map[int]core.Summary)
	sums, err := db.summaries()
	if err != nil {
		return "summaries: " + err.Error()
	}
	for _, s := range sums {
		got[s.VideoID] = s
	}
	ok, diff := acceptable(got, calls, st.Point)
	if !ok {
		return "recovered contents diverge from oracle: " + diff
	}

	// The store must still accept writes and keep them: one fresh insert,
	// close, reopen, and both the insert and the recovered set survive.
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
	got2 := make(map[int]core.Summary)
	sums2, err := db2.summaries()
	if err != nil {
		return "reopen summaries: " + err.Error()
	}
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

// TestCrashRecoveryExhaustive is the headline suite: every boundary,
// every scenario family, full invariant. Run with -v for the state count.
func TestCrashRecoveryExhaustive(t *testing.T) {
	rec := crashfs.NewRecorder()
	calls := runCrashWorkload(t, rec, defaultCrashWorkload())
	states := rec.CrashStates()
	if rec.Ops() < 100 {
		t.Fatalf("workload produced only %d crash boundaries, want hundreds of injected crash points", rec.Ops())
	}
	failures := 0
	for _, st := range states {
		if msg := verifyCrashState(st, calls, false); msg != "" {
			failures++
			t.Errorf("%s: %s", st.Desc, msg)
			if failures >= 10 {
				t.Fatalf("stopping after %d failing crash states (of %d)", failures, len(states))
			}
		}
	}
	t.Logf("verified %d crash states across %d boundaries", len(states), rec.Ops()+1)
}

// TestCrashSuiteHasTeeth breaks recovery on purpose — keepCorruptTail
// skips the torn-tail truncation — and demands the suite notice. If this
// test fails, the exhaustive suite is vacuous.
func TestCrashSuiteHasTeeth(t *testing.T) {
	rec := crashfs.NewRecorder()
	calls := runCrashWorkload(t, rec, defaultCrashWorkload())
	failures := 0
	for _, st := range rec.CrashStates() {
		if msg := verifyCrashState(st, calls, true); msg != "" {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("recovery without torn-tail truncation passed every crash state — the suite has no teeth")
	}
	t.Logf("broken recovery failed %d crash states, as it should", failures)
}

// TestMidCheckpointCrashSuiteHasTeeth breaks the retained-suffix
// rotation on purpose — the checkpoint reverts to the old
// rotate-to-empty while mutations land in its unlocked windows — and
// demands the suite notice: acknowledged mid-checkpoint mutations then
// live only in the journal bytes the rotation wipes, so crash states at
// and after the rotation must diverge from the oracle. If this passes
// every state, the new mid-checkpoint boundaries prove nothing.
func TestMidCheckpointCrashSuiteHasTeeth(t *testing.T) {
	rec := crashfs.NewRecorder()
	calls := runCrashWorkloadOpts(t, rec, defaultCrashWorkload(), true)
	failures := 0
	for _, st := range rec.CrashStates() {
		if msg := verifyCrashState(st, calls, false); msg != "" {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("rotate-to-empty under concurrent mutations passed every crash state — the retained-suffix rotation is not load-bearing or the suite is vacuous")
	}
	t.Logf("broken retained-suffix rotation failed %d crash states, as it should", failures)
}

// TestCheckpointEquivalence proves the non-blocking checkpoint is
// observationally identical to the blocking fold: the same logical
// mutation sequence — once applied around a checkpoint (the blocking
// path's only possibility), once injected into the checkpoint's
// unlocked windows — recovers to deep-equal contents, and folding both
// stores once more yields byte-identical snapshot files (summaries are
// written in canonical order, so logical equality is byte equality).
func TestCheckpointEquivalence(t *testing.T) {
	build := func(concurrent bool) (map[int]core.Summary, []byte) {
		fsys := vfs.NewMemFS()
		db, err := OpenDurable("db", Options{Epsilon: 0.3, Durable: &DurableOptions{FS: fsys}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10; i++ {
			if err := db.AddSummary(crashSummary(i)); err != nil {
				t.Fatal(err)
			}
		}
		mid := func(ids []int) {
			for _, id := range ids {
				if id < 0 {
					if err := db.Remove(-id); err != nil {
						t.Fatal(err)
					}
				} else if err := db.AddSummary(crashSummary(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		preWrite, preRotate := []int{11, 12, 13, -2}, []int{14, -11}
		if concurrent {
			db.shards[0].testBeforeSnapshotWrite = func() { mid(preWrite) }
			db.shards[0].testBeforeRotate = func() { mid(preRotate) }
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint (concurrent=%v): %v", concurrent, err)
		}
		db.shards[0].testBeforeSnapshotWrite, db.shards[0].testBeforeRotate = nil, nil
		if !concurrent {
			// The blocking path: the same mutations, after the fold.
			mid(preWrite)
			mid(preRotate)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// Recover — the concurrent variant replays its retained journal
		// suffix here — then fold once more for a canonical snapshot.
		db2, err := OpenDurable("db", Options{Epsilon: 0.3, Durable: &DurableOptions{FS: fsys}})
		if err != nil {
			t.Fatalf("recovery (concurrent=%v): %v", concurrent, err)
		}
		contents := dbContents(t, db2)
		if err := db2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
		return contents, fsys.Snapshot()["db/snapshot.vitri"]
	}
	blockingContents, blockingSnap := build(false)
	concurrentContents, concurrentSnap := build(true)
	if !reflect.DeepEqual(blockingContents, concurrentContents) {
		t.Fatalf("recovered contents diverge: %s", describeDiff(concurrentContents, blockingContents))
	}
	if len(blockingSnap) == 0 {
		t.Fatal("blocking snapshot file missing or empty")
	}
	if !bytes.Equal(blockingSnap, concurrentSnap) {
		t.Fatalf("snapshot files differ (%d vs %d bytes) for identical logical contents", len(blockingSnap), len(concurrentSnap))
	}
}

// TestCrashProperty drives random Add/Remove/Checkpoint interleavings
// through the same exhaustive verification. The seed is logged so any
// failure replays exactly.
func TestCrashProperty(t *testing.T) {
	seed := rand.Int63()
	if env := os.Getenv("VITRI_CRASH_SEED"); env != "" {
		var parsed int64
		for _, c := range env {
			if c < '0' || c > '9' {
				t.Fatalf("VITRI_CRASH_SEED %q is not a number", env)
			}
			parsed = parsed*10 + int64(c-'0')
		}
		seed = parsed
	}
	t.Logf("seed=%d (replay with VITRI_CRASH_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	for iter := 0; iter < 3; iter++ {
		var steps []wlStep
		live := make(map[int]bool)
		next := 1
		for len(steps) < 24 {
			switch r := rng.Intn(10); {
			case r < 5 || len(live) == 0:
				steps = append(steps, wlStep{batch: []int{next}})
				live[next] = true
				next++
			case r < 8:
				// Remove a random live id (deterministic pick via sorted order).
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sortInts(ids)
				id := ids[rng.Intn(len(ids))]
				steps = append(steps, wlStep{remove: id})
				delete(live, id)
			default:
				steps = append(steps, wlStep{checkpoint: true})
			}
		}
		rec := crashfs.NewRecorder()
		calls := runCrashWorkload(t, rec, steps)
		for _, st := range rec.CrashStates() {
			if msg := verifyCrashState(st, calls, false); msg != "" {
				t.Fatalf("iter %d seed %d: %s: %s", iter, seed, st.Desc, msg)
			}
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestSaveCrashSafety is the Save regression: Save over an existing store
// must never damage it. The old implementation truncated in place
// (os.Create) before writing; a crash mid-save destroyed both versions.
// Every post-crash image must load as either the old or the new store.
func TestSaveCrashSafety(t *testing.T) {
	oldDB := New(Options{Epsilon: 0.3})
	for i := 1; i <= 4; i++ {
		if err := oldDB.AddSummary(crashSummary(i)); err != nil {
			t.Fatal(err)
		}
	}
	newDB := New(Options{Epsilon: 0.3})
	for i := 10; i <= 16; i++ {
		if err := newDB.AddSummary(crashSummary(i)); err != nil {
			t.Fatal(err)
		}
	}

	rec := crashfs.NewRecorder()
	if err := oldDB.saveFS(rec, "store.vitri"); err != nil {
		t.Fatalf("first save: %v", err)
	}
	mark := rec.Ops()
	if err := newDB.saveFS(rec, "store.vitri"); err != nil {
		t.Fatalf("second save: %v", err)
	}

	for _, st := range rec.CrashStates() {
		if st.Point < mark {
			continue // crashes during the first save have no prior store to protect
		}
		img := st.FS.Snapshot()
		data, ok := img["store.vitri"]
		if !ok {
			t.Fatalf("%s: store file vanished", st.Desc)
		}
		snap, err := storefmt.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: store unreadable after crash: %v", st.Desc, err)
		}
		if snap.Epsilon != 0.3 {
			t.Fatalf("%s: epsilon %v", st.Desc, snap.Epsilon)
		}
		sums := snap.Summaries
		switch first := sums[0].VideoID; {
		case len(sums) == 4 && first == 1: // old store intact
		case len(sums) == 7 && first == 10: // new store complete
		default:
			t.Fatalf("%s: store is neither old nor new (%d summaries, first id %d)", st.Desc, len(sums), first)
		}
	}
}
