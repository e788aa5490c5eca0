package lint

import (
	"sort"
	"time"
)

// AnalyzerStat is one analyzer's contribution to a run, for vitrilint's
// -stats table.
type AnalyzerStat struct {
	Name     string
	Findings int
	Millis   float64
}

// Result is one vitrilint run's outcome.
type Result struct {
	// Diagnostics are the findings, sorted by position.
	Diagnostics []Diagnostic
	// Packages is the number of packages analyzed.
	Packages int
	// Stats breaks findings and wall time down per analyzer, in the
	// order the analyzers were given.
	Stats []AnalyzerStat
	// LoadMillis times module loading and type checking.
	LoadMillis float64
}

// Run loads the module at root and applies the analyzers to every
// package matched by patterns.
func Run(root string, patterns []string, analyzers []*Analyzer) (*Result, error) {
	start := time.Now()
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	res := &Result{LoadMillis: millisSince(start), Stats: make([]AnalyzerStat, len(analyzers))}
	for i, a := range analyzers {
		res.Stats[i].Name = a.Name
	}
	for _, pkg := range mod.Pkgs {
		if !pkg.Match(patterns) {
			continue
		}
		res.Packages++
		for i, a := range analyzers {
			t := time.Now()
			stat := &res.Stats[i]
			a.Run(&Pass{
				Analyzer: a,
				Fset:     mod.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				report: func(d Diagnostic) {
					res.Diagnostics = append(res.Diagnostics, d)
					stat.Findings++
				},
			})
			stat.Millis += millisSince(t)
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

func millisSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
