// Package lint is a self-contained static-analysis framework for this
// module, built only on the standard library's go/parser, go/ast and
// go/types (the module carries no external dependencies, so
// golang.org/x/tools is deliberately off-limits).
//
// It machine-checks invariants whose violations the test suites can
// miss, because breaking them need not change a result a test compares:
//
//   - the checkpoint → shard-view → engine → Index → Tree → pager lock
//     hierarchy, unlock-on-every-path, and no ranked lock held across
//     an fsync or a blocking send (analyzer lockorder),
//   - byte-identical results regardless of parallelism, which forbids
//     float accumulation in map iteration order (analyzer floatorder),
//   - no silently dropped errors from module mutators (analyzer
//     droppederr),
//   - no per-iteration allocations from the vec helpers inside the
//     summarization hot loops, which the ingest pipeline's zero-alloc
//     Lloyd kernels depend on (analyzer hotalloc),
//   - every spawned goroutine has a provable join or cancel path —
//     WaitGroup, channel send/close, or a receive loop — and loops do
//     not spawn unboundedly without a semaphore (analyzer
//     goroutinelife),
//   - atomic/mutex consistency: a field touched through sync/atomic is
//     never accessed plainly, fields annotated "// guarded by <mu>" are
//     only touched with that mutex held (proved through the
//     interprocedural entry-lock sets), and every field of a
//     mutex-carrying struct in the durability and serving paths carries
//     a concurrency annotation (analyzer atomicmix).
//
// An analyzer stays only while it catches a seeded bug that go vet, the
// race-enabled test suites, the crash enumerator and the fuzzers all
// miss; README.md's static-analysis table records which bug that is.
//
// The lockorder, goroutinelife and atomicmix analyzers are
// interprocedural: they share a module-wide call graph (callgraph.go)
// and lock graph (lockgraph.go) that propagate which locks each call
// can acquire, whether it can fsync or block on a channel, and which
// locks every caller provably holds at a function's entry.
//
// The cmd/vitrilint driver loads the whole module, runs every analyzer
// and exits nonzero with "file:line: [analyzer] message" diagnostics.
// Intentional violations are suppressed in place with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line or the line above it; the driver counts
// suppressions in its summary line, and a directive that no longer
// suppresses anything is itself reported (analyzer lint), so stale
// suppressions cannot outlive the bug they excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the driver's diagnostic format: file:line: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package, a whole
// module, or both.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	// May be nil for module-only analyzers.
	Run func(pass *Pass)
	// RunModule inspects the whole module at once on the shared call
	// graph and lock facts (built lazily, once per lint run). The
	// driver filters its diagnostics to the packages the run selected.
	// May be nil for package-only analyzers.
	RunModule func(mp *ModulePass)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the package's import path; ModulePath the module's.
	PkgPath    string
	ModulePath string

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries the whole loaded module plus the shared
// interprocedural facts to a module-level analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module
	// Graph is the module-wide call graph; Facts the lock/flow facts
	// computed on it (held sets, transitive summaries, entry musts).
	Graph *CallGraph
	Facts *modFacts

	report func(Diagnostic)
}

// Reportf records a module-level finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	mp.report(Diagnostic{
		Pos:      mp.Mod.Fset.Position(pos),
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// typeOf returns the type of e, or nil.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// calleeFunc resolves the statically-known function or method a call
// invokes, or nil (calls through function values are not resolved).
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// All returns the full analyzer suite in stable reporting order.
func All() []*Analyzer {
	return []*Analyzer{LockOrder, FloatOrder, DroppedErr, HotAlloc, GoroutineLife, AtomicMix}
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// exprString renders a simple expression (identifiers, selectors, derefs)
// as source text for diagnostics and mutex identity. Unrenderable
// expressions collapse to "?", which deliberately never matches another
// mutex key.
func exprString(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Index) + "]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.BasicLit:
		return x.Value
	}
	return "?"
}

// deref removes one level of pointer indirection, if any.
func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// namedOf returns t's named type after stripping pointers and aliases.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if n, ok := deref(types.Unalias(t)).(*types.Named); ok {
		return n
	}
	return nil
}
