package lint

import (
	"go/token"
	"sort"
	"strings"
	"time"
)

// AnalyzerStat is one analyzer's contribution to a run, for vitrilint's
// -stats table.
type AnalyzerStat struct {
	Name       string
	Findings   int // unsuppressed
	Suppressed int
	Millis     float64
}

// Result is one vitrilint run's outcome.
type Result struct {
	// Diagnostics are the unsuppressed findings, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by //lint:ignore directives.
	Suppressed int
	// Packages is the number of packages analyzed.
	Packages int
	// Stats breaks findings, suppressions and wall time down per
	// analyzer, in suite order ("lint" last for directive findings).
	Stats []AnalyzerStat
	// LoadMillis and GraphMillis time module loading and the shared
	// call-graph/lock-facts construction (zero when no module-level
	// analyzer ran).
	LoadMillis  float64
	GraphMillis float64
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers map[string]bool
	consumed  int // findings this directive suppressed in this run
}

// Run loads the module at root and applies the analyzers to every
// package matched by patterns. Per-package analyzers (Analyzer.Run) see
// only the matched packages; module-level analyzers (Analyzer.RunModule)
// always analyze the whole module on the shared call graph, with their
// diagnostics filtered to the matched packages.
//
// Findings carrying a "//lint:ignore <analyzer> <reason>" directive on
// their own line or the line above are counted as suppressed instead of
// reported. Malformed directives are themselves findings (analyzer
// "lint"), so a typo cannot silently disable a check — and so is a
// directive that suppressed nothing, provided every analyzer it names
// took part in the run: a stale suppression must not outlive the bug it
// excused.
func Run(root string, patterns []string, analyzers []*Analyzer) (*Result, error) {
	start := time.Now()
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	res := &Result{LoadMillis: millisSince(start)}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	running := make(map[string]bool)
	for _, a := range analyzers {
		running[a.Name] = true
	}

	var raw []Diagnostic
	var directives []*ignoreDirective
	matchedFiles := make(map[string]bool)
	statByName := make(map[string]*AnalyzerStat)
	statFor := func(name string) *AnalyzerStat {
		if s := statByName[name]; s != nil {
			return s
		}
		s := &AnalyzerStat{Name: name}
		statByName[name] = s
		return s
	}

	for _, pkg := range mod.Pkgs {
		if !pkg.Match(patterns) {
			continue
		}
		res.Packages++
		for _, fn := range pkg.FileNames {
			matchedFiles[fn] = true
		}
		dirs, malformed := collectDirectives(mod, pkg, known)
		directives = append(directives, dirs...)
		raw = append(raw, malformed...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			t := time.Now()
			pass := &Pass{
				Analyzer:   a,
				Fset:       mod.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Pkg,
				Info:       pkg.Info,
				PkgPath:    pkg.Path,
				ModulePath: mod.Path,
				report:     func(d Diagnostic) { raw = append(raw, d) },
			}
			a.Run(pass)
			statFor(a.Name).Millis += millisSince(t)
		}
	}

	// Module-level analyzers share one lazily built call graph + facts.
	var graph *CallGraph
	var facts *modFacts
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if graph == nil {
			t := time.Now()
			graph = BuildCallGraph(mod)
			facts = buildLockFacts(mod, graph)
			res.GraphMillis = millisSince(t)
		}
		t := time.Now()
		mp := &ModulePass{
			Analyzer: a,
			Mod:      mod,
			Graph:    graph,
			Facts:    facts,
			report: func(d Diagnostic) {
				if matchedFiles[d.Pos.Filename] {
					raw = append(raw, d)
				}
			},
		}
		a.RunModule(mp)
		statFor(a.Name).Millis += millisSince(t)
	}

	for _, d := range raw {
		if dir := suppressing(d, directives); dir != nil {
			dir.consumed++
			res.Suppressed++
			statFor(d.Analyzer).Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
		statFor(d.Analyzer).Findings++
	}

	// A directive that suppressed nothing is stale — but only when every
	// analyzer it names actually ran (a partial run proves nothing).
	for _, dir := range directives {
		if dir.consumed > 0 {
			continue
		}
		ran := true
		for name := range dir.analyzers {
			if !running[name] {
				ran = false
				break
			}
		}
		if !ran {
			continue
		}
		d := Diagnostic{
			Pos:      token.Position{Filename: dir.file, Line: dir.line, Column: 1},
			Analyzer: "lint",
			Message:  "stale //lint:ignore directive: " + directiveNames(dir) + " reports nothing here; remove it or fix the regression it now hides",
		}
		res.Diagnostics = append(res.Diagnostics, d)
		statFor("lint").Findings++
	}

	// Assemble Stats in suite order, "lint" last.
	for _, a := range All() {
		if running[a.Name] {
			if s := statByName[a.Name]; s != nil {
				res.Stats = append(res.Stats, *s)
			} else {
				res.Stats = append(res.Stats, AnalyzerStat{Name: a.Name})
			}
		}
	}
	if s := statByName["lint"]; s != nil {
		res.Stats = append(res.Stats, *s)
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

// collectDirectives parses every //lint:ignore comment in the package,
// returning well-formed directives and diagnostics for malformed ones.
func collectDirectives(mod *Module, pkg *Package, known map[string]bool) ([]*ignoreDirective, []Diagnostic) {
	var dirs []*ignoreDirective
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := mod.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer>[,<analyzer>] <reason>\"",
					})
					continue
				}
				names := make(map[string]bool)
				valid := true
				for _, n := range strings.Split(fields[0], ",") {
					if !known[n] {
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "//lint:ignore names unknown analyzer " + n,
						})
						valid = false
						break
					}
					names[n] = true
				}
				if !valid {
					continue
				}
				dirs = append(dirs, &ignoreDirective{file: pos.Filename, line: pos.Line, analyzers: names})
			}
		}
	}
	return dirs, bad
}

// suppressing returns the directive covering d (on its line or the line
// above), or nil.
func suppressing(d Diagnostic, dirs []*ignoreDirective) *ignoreDirective {
	if d.Analyzer == "lint" {
		return nil // directive hygiene findings cannot be suppressed
	}
	for _, dir := range dirs {
		if dir.file != d.Pos.Filename || !dir.analyzers[d.Analyzer] {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			return dir
		}
	}
	return nil
}

// directiveNames renders a directive's analyzer list deterministically.
func directiveNames(dir *ignoreDirective) string {
	names := make([]string, 0, len(dir.analyzers))
	for n := range dir.analyzers {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func millisSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
