// Command bench is the repository's benchmark: four fixed-population
// workloads over the public engine surface, five bounded end-to-end
// metrics, and a separate traced run that replays every operation layer
// by layer. README.md in this directory says what is measured and why;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	go run -C bench . -workload knn-100k -seed 1            # one workload
//	go run -C bench . -workload http-video -seed 1 -trace 1 # per-layer breakdown
//	go run -C bench . -aa 5                                 # A/A: do two sets of runs agree?
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// workload is one entry of the benchmark: its name, why it exists, and
// its untraced and traced runs. Both return the metrics they measured;
// operations and correctness checks are counted on the tally.
type workload struct {
	name  string
	why   string
	run   func(e *env, t *tally) (map[string]metric, error)
	trace func(e *env, t *tally) (map[string]metric, error)
}

var workloads = []workload{
	{
		name:  "knn-100k",
		why:   "whole-video KNN over 100,000 triplets in process: the index tier (leaf scan, signature gate, exact fold) is all of the cost",
		run:   runSummary(false),
		trace: traceSummary(false),
	},
	{
		name:  "image-100k",
		why:   "single-frame probes over the same 100,000 triplets: one query triplet, so leaf scan and record decode dominate and fold gains predict no change",
		run:   runSummary(true),
		trace: traceSummary(true),
	},
	{
		name:  "http-video",
		why:   "raw frames posted to /search over loopback: JSON decode and query summarization, not the index, dominate the request path",
		run:   runHTTP,
		trace: traceHTTP,
	},
	{
		name:  "churn-durable",
		why:   "durable Add/Remove with inline checkpoints beside a closed-loop reader: the only workload with lock contention and the journal/store path",
		run:   runChurn,
		trace: traceChurn,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		cfg   config
		trace int
		aa    int
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "drives corpus, queries and order; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 30, "least length of the timed phase, in seconds (whole passes are never cut)")
	fs.IntVar(&trace, "trace", 0, "1 runs the separate traced run and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "file the traced run writes its spans to (default .bench_out/trace-<workload>-<seed>.json)")
	fs.BoolVar(&cfg.short, "short", false, "toy populations: exercises every code path, measures nothing believable")
	fs.IntVar(&aa, "aa", 0, "A/A mode: two interleaved sets of N runs of every workload; exits non-zero when they disagree beyond the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds < 10 && !cfg.short {
		fmt.Fprintln(os.Stderr, "bench: -seconds below 10 measures noise; refused outside -short")
		return 2
	}
	if aa > 0 {
		return runAA(aa, cfg, stdout)
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %s\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	e := &env{cfg: cfg, sz: fullSizes, out: stdout, work: newWorkDir()}
	if cfg.short {
		e.sz = shortSizes
	}
	// Scratch is removed on return and on SIGINT/SIGTERM alike.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-sigs:
			e.work.cleanup()
			os.Exit(130)
		case <-stop:
		}
	}()
	defer func() {
		signal.Stop(sigs)
		close(stop)
		wg.Wait()
		e.work.cleanup()
	}()

	res, err := runWorkload(w, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs w once under e and prints the human-readable report;
// the caller prints the result line.
func runWorkload(w *workload, e *env) (*result, error) {
	degraded := printStamp(e, w)
	t := &tally{out: e.out}
	run := w.run
	if e.cfg.trace {
		run = w.trace
	}
	m, err := run(e, t)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.printf("%-34s %s %s\n", name, strconv.FormatFloat(m[name].Value, 'g', -1, 64), m[name].Unit)
	}
	e.printf("ops_attempted   %d\nops_failed      %d\ndegraded        %v\n", t.attempted, t.failed, degraded)
	if t.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// printStamp records the environment a number was taken in and reports
// whether the run is degraded: fewer schedulable threads than cores, or
// another bench process competing for them.
func printStamp(e *env, w *workload) (degraded bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	others := otherBenchProcesses()
	degraded = runtime.GOMAXPROCS(0) != runtime.NumCPU() || others > 0
	mode := "end-to-end"
	if e.cfg.trace {
		mode = "traced"
	}
	e.printf("workload        %s (%s run)\nwhy             %s\n", w.name, mode, w.why)
	e.printf("env             cores=%d gomaxprocs=%d gogc=%s go=%s commit=%s seed=%d seconds=%d short=%v other_bench_processes=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), commit, e.cfg.seed, e.cfg.seconds, e.cfg.short, others)
	e.printf("engine          default Options: epsilon=%g shards=1 memory pager k=%d\n", epsilon, topK)
	return degraded
}

// otherBenchProcesses counts processes running this same executable,
// apart from this one and its parent (the A/A driver runs its children
// one at a time). Best effort: where /proc is absent it reports none.
func otherBenchProcesses() int {
	self, err := os.Executable()
	if err != nil {
		return 0
	}
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range ents {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil || pid == os.Getpid() || pid == os.Getppid() {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", ent.Name(), "exe"))
		if err == nil && filepath.Base(exe) == filepath.Base(self) {
			n++
		}
	}
	return n
}
