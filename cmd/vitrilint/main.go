// Command vitrilint runs this module's static-analysis suite: the
// stdlib-only analyzers of internal/lint (lint.All; -h lists them),
// which machine-check the invariants the concurrent engine depends on.
//
// Usage:
//
//	vitrilint [package pattern ...]
//
// Patterns are module-relative ("./...", "./internal/...",
// "./internal/btree"); the default is "./...". Diagnostics print as
//
//	file:line: [analyzer] message
//
// and the process exits 1 when any unsuppressed finding exists (2 on
// load/type-check failure). Intentional violations are suppressed in
// place with "//lint:ignore <analyzer> <reason>" on the flagged line or
// the line above; the summary line counts them.
//
// -stats prints a per-analyzer table (findings, suppressions, wall
// time) plus the module-load and call-graph construction times.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vitri/internal/lint"
)

func main() {
	stats := flag.Bool("stats", false, "print per-analyzer findings/suppressions/timings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vitrilint [-stats] [package pattern ...]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := lint.Run(root, patterns, lint.All())
	if err != nil {
		fatalf("%v", err)
	}
	for _, d := range res.Diagnostics {
		rel, rerr := filepath.Rel(cwd, d.Pos.Filename)
		if rerr != nil || strings.HasPrefix(rel, "..") {
			rel = d.Pos.Filename
		}
		fmt.Printf("%s:%d: [%s] %s\n", rel, d.Pos.Line, d.Analyzer, d.Message)
	}
	fmt.Fprintf(os.Stderr, "vitrilint: %d packages, %d findings, %d suppressed\n",
		res.Packages, len(res.Diagnostics), res.Suppressed)
	if *stats {
		printStats(res)
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}

// printStats renders the per-analyzer summary table.
func printStats(res *lint.Result) {
	fmt.Fprintf(os.Stderr, "\n%-17s %9s %11s %9s\n", "analyzer", "findings", "suppressed", "ms")
	for _, s := range res.Stats {
		fmt.Fprintf(os.Stderr, "%-17s %9d %11d %9.1f\n", s.Name, s.Findings, s.Suppressed, s.Millis)
	}
	fmt.Fprintf(os.Stderr, "load %.1fms, call graph %.1fms\n", res.LoadMillis, res.GraphMillis)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vitrilint: "+format+"\n", args...)
	os.Exit(2)
}
