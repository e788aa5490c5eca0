// Command vitribench regenerates the paper's tables and figures on the
// synthetic corpus and prints them as text tables.
//
// Usage:
//
//	vitribench [flags] [experiment ...]
//
// With no experiment named the whole suite runs in paper order;
// vitribench -h lists the names.
//
// Examples:
//
//	vitribench                       # full suite at laptop scale
//	vitribench -scale 0.1 fig14      # one experiment, bigger corpus
//	vitribench -paper                # paper-scale settings (slow)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"vitri/internal/experiments"
	"vitri/internal/metrics"
)

var runners = map[string]func(experiments.Config) ([]*metrics.Table, error){
	"table2":    experiments.Table2,
	"table3":    experiments.Table3,
	"fig14":     experiments.Figure14,
	"fig15":     experiments.Figure15,
	"fig16":     experiments.Figure16,
	"fig17":     experiments.Figure17,
	"fig18":     experiments.Figure18,
	"fig19":     experiments.Figure19,
	"extension": experiments.ExtensionSummaries,
}

// experimentNames lists the runnable experiments, sorted.
func experimentNames() string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

func main() {
	var (
		scale    = flag.Float64("scale", 0, "corpus scale relative to the paper's 6,587 clips (0 = config default)")
		queries  = flag.Int("queries", 0, "number of queries to average over (0 = config default)")
		k        = flag.Int("k", 0, "KNN result size (0 = config default)")
		seed     = flag.Int64("seed", 1, "random seed for the whole suite")
		paper    = flag.Bool("paper", false, "use paper-scale settings (slow)")
		progress = flag.Bool("progress", true, "print progress to stderr")
		counts   = flag.String("vitris", "", "comma-separated ViTri counts for figures 16-17 (e.g. 20000,40000)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vitribench [flags] [experiment ...]\nexperiments: %s\n", experimentNames())
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = *seed
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *k > 0 {
		cfg.K = *k
	}
	if *counts != "" {
		cfg.ViTriCounts = nil
		for _, tok := range strings.Split(*counts, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &n); err != nil || n <= 0 {
				fatalf("invalid -vitris entry %q", tok)
			}
			cfg.ViTriCounts = append(cfg.ViTriCounts, n)
		}
	}
	if *progress {
		cfg.Progress = os.Stderr
	}

	names := flag.Args()
	if len(names) == 0 {
		if err := experiments.RunAll(cfg, os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	for _, name := range names {
		fn, ok := runners[strings.ToLower(name)]
		if !ok {
			fatalf("unknown experiment %q (have: %s)", name, experimentNames())
		}
		tables, err := fn(cfg)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		for _, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fatalf("%v", err)
			}
			fmt.Println()
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vitribench: "+format+"\n", args...)
	os.Exit(1)
}
