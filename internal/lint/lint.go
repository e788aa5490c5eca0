// Package lint is a self-contained static-analysis framework for this
// module, built only on the standard library's go/parser, go/ast and
// go/types (the module carries no external dependencies, so
// golang.org/x/tools is deliberately off-limits).
//
// It machine-checks two invariants whose violations the test suites can
// miss, because breaking them need not change a result a test compares:
//
//   - byte-identical results regardless of parallelism, which forbids
//     float accumulation in map iteration order (analyzer floatorder),
//   - no per-iteration allocations from the vec helpers inside the
//     summarization hot loops, which the ingest pipeline's zero-alloc
//     Lloyd kernels depend on (analyzer hotalloc).
//
// An analyzer stays only while it catches a seeded bug that go vet, the
// race-enabled test suites, the crash enumerator and the fuzzers all
// miss; README.md's static-analysis table records which bug that is, and
// which test now covers each analyzer that was deleted.
//
// The cmd/vitrilint driver loads the whole module, runs every analyzer
// over each package and exits nonzero with "file:line: [analyzer]
// message" diagnostics.
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

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

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
	return []*Analyzer{FloatOrder, HotAlloc}
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

// exprString renders a simple expression (identifiers, selectors, derefs,
// index expressions) as source text for diagnostics; anything else
// renders as "?".
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
