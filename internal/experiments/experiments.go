// Package experiments regenerates every table and figure of the paper's
// performance study (§6) on the synthetic corpus. Each runner returns
// metrics.Table values whose rows mirror what the paper reports; RunAll
// prints them in order. Absolute numbers differ from the paper's Sun E420
// testbed — the reproduction target is the shape of each result (who wins,
// by what factor, and how costs scale).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"vitri/internal/baseline"
	"vitri/internal/core"
	"vitri/internal/dataset"
	"vitri/internal/index"
	"vitri/internal/metrics"
)

// Config sizes the experiments. The defaults run the full suite in
// minutes on a laptop; the paper-scale settings are reachable by raising
// Scale and the ViTri counts.
type Config struct {
	// Scale is the corpus size relative to the paper's 6,587 clips, used
	// by the precision experiments (Tables 2–3, Figures 14–15).
	Scale float64
	// Queries is the number of near-duplicate queries averaged over
	// (the paper uses 50).
	Queries int
	// K is the KNN result size (the paper uses 50).
	K int
	// Epsilon is the default frame similarity threshold (0.3 in §6.2).
	Epsilon float64
	// Seed makes the whole suite deterministic.
	Seed int64

	// ViTriCounts is the database-size sweep for Figures 16–17.
	ViTriCounts []int
	// Dims is the dimensionality sweep for Figure 18.
	Dims []int
	// FixedViTris is the database size for Figure 18.
	FixedViTris int
	// InsertBatches are the dynamic-insertion batch sizes for Figure 19
	// (the paper uses 20000, 20000, 20000, 9477).
	InsertBatches []int
	// IndexQueries is the number of query videos averaged over in the
	// index experiments (Figures 16–19).
	IndexQueries int

	// Progress, when non-nil, receives one line per experiment stage.
	Progress io.Writer
}

// DefaultConfig returns a laptop-sized configuration that preserves every
// reported trend.
func DefaultConfig() Config {
	return Config{
		Scale:         0.05,
		Queries:       20,
		K:             50,
		Epsilon:       0.3,
		Seed:          1,
		ViTriCounts:   []int{10000, 20000, 40000, 80000},
		Dims:          []int{8, 16, 32, 64},
		FixedViTris:   20000,
		InsertBatches: []int{10000, 10000, 10000, 5000},
		IndexQueries:  10,
	}
}

// PaperConfig returns the paper-scale configuration (slow: the full
// 6,587-video corpus and 20k–90k ViTri sweeps).
func PaperConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 1.0
	cfg.Queries = 50
	cfg.ViTriCounts = []int{20000, 40000, 60000, 90000}
	cfg.InsertBatches = []int{20000, 20000, 20000, 9477}
	cfg.IndexQueries = 20
	return cfg
}

// logf emits progress when configured.
func (cfg *Config) logf(format string, args ...interface{}) {
	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, format+"\n", args...)
	}
}

// epsilonSweep is the ε axis of Table 3 and Figure 14.
var epsilonSweep = []float64{0.2, 0.3, 0.4, 0.5, 0.6}

// corpus generates the precision-experiment corpus for this config.
func (cfg *Config) corpus() (*dataset.Corpus, error) {
	return dataset.GenerateHist(dataset.DefaultHistConfig(cfg.Scale, cfg.Seed))
}

// summarizeCorpus summarizes every corpus video at the given ε, spreading
// videos across CPUs (summarization dominates the precision experiments'
// runtime and is embarrassingly parallel across videos).
func summarizeCorpus(c *dataset.Corpus, eps float64, seed int64) []core.Summary {
	out := make([]core.Summary, len(c.Videos))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				v := &c.Videos[i]
				out[i] = core.Summarize(v.ID, v.Frames, core.Options{Epsilon: eps, Seed: seed + int64(v.ID)})
			}
		}()
	}
	for i := range c.Videos {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// keyframesFromSummaries reuses ViTri cluster centers as the keyframe
// baseline's representatives (equal summarization budget, §6.2).
func keyframesFromSummaries(sums []core.Summary) []baseline.KeyframeSummary {
	out := make([]baseline.KeyframeSummary, len(sums))
	for i := range sums {
		ks := baseline.KeyframeSummary{VideoID: sums[i].VideoID}
		for j := range sums[i].Triplets {
			ks.Keyframes = append(ks.Keyframes, sums[i].Triplets[j].Position)
		}
		out[i] = ks
	}
	return out
}

// rankViTri scores every summary against the query summary with the core
// measure and returns the top-k video ids.
func rankViTri(q *core.Summary, sums []core.Summary, k int) []int {
	type scored struct {
		id  int
		sim float64
	}
	var ss []scored
	for i := range sums {
		if sim := core.VideoSimilarity(q, &sums[i]); sim > 0 {
			ss = append(ss, scored{sums[i].VideoID, sim})
		}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].sim != ss[j].sim {
			return ss[i].sim > ss[j].sim
		}
		return ss[i].id < ss[j].id
	})
	if len(ss) > k {
		ss = ss[:k]
	}
	ids := make([]int, len(ss))
	for i, s := range ss {
		ids[i] = s.id
	}
	return ids
}

// rankedIDs projects baseline.Ranked to ids.
func rankedIDs(rs []baseline.Ranked) []int {
	ids := make([]int, len(rs))
	for i, r := range rs {
		ids[i] = r.VideoID
	}
	return ids
}

// resultIDs projects index.Result to ids.
func resultIDs(rs []index.Result) []int {
	ids := make([]int, len(rs))
	for i, r := range rs {
		ids[i] = r.VideoID
	}
	return ids
}

// queryRng returns the RNG used for query derivation.
func (cfg *Config) queryRng() *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed + 777))
}

// timeIt runs f and returns its duration in microseconds.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start).Microseconds()), err
}

// RunAll executes every experiment and prints the tables to w.
func RunAll(cfg Config, w io.Writer) error {
	type runner struct {
		name string
		fn   func(Config) ([]*metrics.Table, error)
	}
	runners := []runner{
		{"Table 2", Table2},
		{"Table 3", Table3},
		{"Figure 14", Figure14},
		{"Figure 15", Figure15},
		{"Figure 16", Figure16},
		{"Figure 17", Figure17},
		{"Figure 18", Figure18},
		{"Figure 19", Figure19},
		{"Extension", ExtensionSummaries},
	}
	for _, r := range runners {
		cfg.logf("running %s ...", r.name)
		tables, err := r.fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		for _, t := range tables {
			if err := t.Fprint(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
