package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vitri"
)

const (
	// epsilon and topK are the engine defaults every workload runs at:
	// what a vitriserve user gets without flags.
	epsilon = 0.3
	topK    = 10
	// minSamples is the fewest query samples a timed phase may report
	// percentiles from; minPasses the fewest whole passes it may cover.
	minSamples = 100
	minPasses  = 3
)

// sizes fixes a run's populations. Durations shrink; corpora never do.
type sizes struct {
	triplets     int     // knn-100k / image-100k corpus, in triplets
	knnQueries   int     // near-duplicate queries per pass
	imageProbes  int     // single-frame probes per pass
	summaryReps  int     // set-up reps of the summary-corpus workloads
	httpScale    float64 // http-video corpus scale (1.0 = the paper's 6,587 ads)
	httpQueries  int
	httpReps     int
	churnScale   float64
	churnSet     int // held-out videos added and removed every cycle
	churnQueries int
	churnReps    int
	ckptEvery    int // mutations between inline checkpoints
	// httpTriplets and churnTriplets fix the ingested population of the
	// frame workloads: videos are taken in seed order until their summaries
	// hold this many triplets, so every seed indexes the same amount.
	httpTriplets  int
	churnTriplets int
	setupFloor    time.Duration // set-up reps continue until they sum to this
	// sideScale and sideTriplets size the frame corpus a traced run of
	// knn-100k or image-100k probes the request and write paths on.
	sideScale    float64
	sideTriplets int
	traceOps     int // traced run: operations replayed layer by layer
}

// fullSizes is what BENCHMARK.json's numbers are measured at. Set-up reps
// are the fewest a workload runs (one extra, discarded, rep runs first);
// on the 2-core reference box they sum to more than setupFloor, and on a
// faster one reps continue until they do.
var fullSizes = sizes{
	triplets: 100000, knnQueries: 34, imageProbes: 34, summaryReps: 8,
	httpScale: 0.115, httpQueries: 60, httpReps: 16, httpTriplets: 4500,
	churnScale: 0.3, churnSet: 150, churnQueries: 60, churnReps: 6, ckptEvery: 100, churnTriplets: 10000,
	setupFloor: 5 * time.Second,
	sideScale:  0.03, sideTriplets: 1000, traceOps: 12,
}

// shortSizes is the toy scale of -short: every code path, no believable
// number.
var shortSizes = sizes{
	triplets: 3000, knnQueries: 25, imageProbes: 25, summaryReps: 2,
	httpScale: 0.01, httpQueries: 20, httpReps: 2, httpTriplets: 300,
	churnScale: 0.02, churnSet: 10, churnQueries: 20, churnReps: 2, ckptEvery: 10, churnTriplets: 600,
	sideScale: 0.01, sideTriplets: 300, traceOps: 4,
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	short    bool
}

// env is what a workload runs in: its configuration, populations, a
// place to report to and scratch space that is removed on every exit
// path.
type env struct {
	cfg  config
	sz   sizes
	out  io.Writer
	work *workDir
}

func (e *env) duration() time.Duration { return time.Duration(e.cfg.seconds) * time.Second }

func (e *env) options() vitri.Options { return vitri.Options{Epsilon: epsilon, Seed: e.cfg.seed} }

func (e *env) printf(format string, args ...interface{}) {
	fmt.Fprintf(e.out, format, args...)
}

// closing runs a release deferred to the end of a run and reports its
// failure; by then the numbers are taken, so it cannot fail the run.
func (e *env) closing(what string, release func() error) {
	if err := release(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: closing %s: %v\n", what, err)
	}
}

// workDir hands out scratch directories under one root inside the
// current directory (the benchmark never writes outside its checkout).
type workDir struct {
	root string
	n    int
}

func newWorkDir() *workDir {
	return &workDir{root: filepath.Join(".bench_work", fmt.Sprintf("%d", os.Getpid()))}
}

// fresh returns a new, empty directory.
func (w *workDir) fresh(prefix string) (string, error) {
	w.n++
	dir := filepath.Join(w.root, fmt.Sprintf("%s-%d", prefix, w.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	return dir, nil
}

// cleanup removes everything fresh handed out. The shared parent goes too
// when no concurrent run still uses it.
func (w *workDir) cleanup() {
	if err := os.RemoveAll(w.root); err != nil {
		fmt.Fprintf(os.Stderr, "bench: removing %s: %v\n", w.root, err)
	}
	_ = os.Remove(filepath.Dir(w.root)) // fails, as it should, while another run's directory is in it
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and correctness checks; a failed one is
// reported with its reason and misses every latency figure.
type tally struct {
	attempted, failed int
	out               io.Writer
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...interface{}) {
	t.attempted++
	t.failed++
	if t.failed <= 20 {
		fmt.Fprintf(t.out, "FAILED          %s\n", fmt.Sprintf(format, args...))
	}
}

// check records one correctness check.
func (t *tally) check(ok bool, format string, args ...interface{}) {
	if ok {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// measureSetup times cold builds of the workload's engine from already
// generated inputs and returns the median of all but the first (the first
// pays page faults and heap growth the later ones do not). It runs at
// least reps measured builds and goes on until they sum to floor, so
// setup_s never rests on less than that much measured work. Every engine
// but the last is torn down; the last is returned live for the timed
// phase.
func measureSetup[E any](reps int, floor time.Duration, build func() (E, error), teardown func(E) error) (E, float64, []float64, error) {
	var (
		live E
		secs []float64
		sum  time.Duration
	)
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := build()
		took := time.Since(t0)
		if err != nil {
			return live, 0, nil, fmt.Errorf("set-up rep %d: %w", i, err)
		}
		if i > 0 {
			secs = append(secs, took.Seconds())
			sum += took
		}
		if len(secs) >= reps && sum >= floor {
			live = e
			break
		}
		if err := teardown(e); err != nil {
			return live, 0, nil, fmt.Errorf("set-up rep %d teardown: %w", i, err)
		}
	}
	return live, median(secs), secs, nil
}

// printSetup reports the set-up reps behind setup_s.
func printSetup(e *env, setup float64, reps []float64) {
	lo, hi := reps[0], reps[0]
	sum := 0.0
	for _, r := range reps {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
		sum += r
	}
	e.printf("setup           reps=%d (one more, discarded, ran first) sum=%.2fs min=%.4fs max=%.4fs\n", len(reps), sum, lo, hi)
}

// phase is what a timed phase measured: every successful query's
// client-observed latency in milliseconds, the whole passes it covered and
// its wall time.
type phase struct {
	ms     []float64
	passes int
	wall   time.Duration
	digest uint64 // of the reference (warm-up) pass
}

// opFunc runs operation i and returns the digest of its output.
type opFunc func(i int) (uint64, error)

// closedLoop is the read workloads' run discipline: one client, one
// untimed warm-up pass over the whole operation list (which also fixes
// the reference digests), a GC, then whole timed passes until minDur has
// elapsed — at least minPasses of them and enough for minSamples. An
// operation that errs or whose output differs from the reference pass is
// a failed operation and misses every latency figure.
func closedLoop(n int, minDur time.Duration, op opFunc, t *tally) phase {
	ref := make([]uint64, n)
	for i := 0; i < n; i++ {
		d, err := op(i)
		if err != nil {
			t.fail("warm-up op %d: %v", i, err)
			continue
		}
		ref[i] = d
	}
	runtime.GC()

	need := minPasses
	if p := (minSamples + n - 1) / n; p > need {
		need = p
	}
	ph := phase{digest: foldDigests(ref)}
	start := time.Now()
	for ph.passes < need || time.Since(start) < minDur {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			d, err := op(i)
			lat := time.Since(t0)
			switch {
			case err != nil:
				t.fail("op %d pass %d: %v", i, ph.passes, err)
			case d != ref[i]:
				t.fail("op %d pass %d: digest %#x, reference pass had %#x", i, ph.passes, d, ref[i])
			default:
				t.ok()
				ph.ms = append(ph.ms, float64(lat)/1e6)
			}
		}
		ph.passes++
	}
	ph.wall = time.Since(start)
	return ph
}

// queryMetrics turns a timed phase into the three query metrics, all over
// every sample of the phase — what the one closed-loop client observed:
// the median latency, the 90th percentile (nearest rank) and completed
// queries over the phase's wall time.
//
// The run fails when the phase is too thin to report from: fewer than
// minSamples samples (the p90 needs ten beyond it) or fewer than minPasses
// whole passes.
func queryMetrics(e *env, ph *phase, m map[string]metric) error {
	if len(ph.ms) < minSamples {
		return fmt.Errorf("timed phase has %d query samples, need %d", len(ph.ms), minSamples)
	}
	if ph.passes < minPasses {
		return fmt.Errorf("timed phase has %d passes, need %d", ph.passes, minPasses)
	}
	p90, err := percentile(ph.ms, 90)
	if err != nil {
		return err
	}
	m["query_p50_ms"] = metric{median(ph.ms), "ms"}
	m["query_p90_ms"] = metric{p90, "ms"}
	m["query_per_s"] = metric{float64(len(ph.ms)) / ph.wall.Seconds(), "1/s"}
	e.printf("samples         queries=%d passes=%d wall=%.2fs beyond_p90=%d\n",
		len(ph.ms), ph.passes, ph.wall.Seconds(), len(ph.ms)-rankOfPercentile(len(ph.ms), 90))
	return nil
}

// heapLiveMB is HeapAlloc after two collections. The caller keeps the
// engine reachable across the call and has dropped the inputs it no
// longer needs, so the figure is the engine's footprint.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
