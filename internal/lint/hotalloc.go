package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc guards the allocation-free hot path of the summarization
// kernels: the ingest pipeline's throughput rests on Lloyd iterations and
// cluster generation performing zero allocations per pass, an invariant
// the testing.AllocsPerRun guards pin at the whole-run level but cannot
// attribute to a line. The analyzer flags calls to the allocating vec
// helpers — Add, Sub, Scale, Clone — inside any loop in a package named
// vec or cluster, where every loop is (or feeds) the hot path. The fix is
// the in-place counterpart (AddInPlace, AXPY, ScaleInPlace, copy into a
// scratch row). There is no suppression: a cold loop uses the in-place
// form too.
//
// Other packages are out of scope: a per-call allocation in a cmd or an
// experiment is not worth an annotation.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating vec helpers (Add/Sub/Scale/Clone) inside loops in the vec and cluster hot paths",
	Run:  runHotAlloc,
}

// hotAllocFuncs are the vec helpers that allocate their result.
var hotAllocFuncs = map[string]string{
	"Add":   "AddInPlace or AXPY",
	"Sub":   "AXPY with alpha -1",
	"Scale": "ScaleInPlace",
	"Clone": "copy into a reused buffer",
}

func runHotAlloc(pass *Pass) {
	if name := pass.Pkg.Name(); name != "vec" && name != "cluster" {
		return
	}
	for _, f := range pass.Files {
		// Collect every loop body's extent first, then flag calls whose
		// position falls inside one — nested loops report each call once.
		var loops []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ForStmt:
				loops = append(loops, s.Body)
			case *ast.RangeStmt:
				loops = append(loops, s.Body)
			}
			return true
		})
		if len(loops) == 0 {
			continue
		}
		inLoop := func(pos token.Pos) bool {
			for _, b := range loops {
				if b.Pos() <= pos && pos < b.End() {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !inLoop(call.Pos()) {
				return true
			}
			callee := pass.calleeFunc(call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Name() != "vec" {
				return true
			}
			fix, hot := hotAllocFuncs[callee.Name()]
			if !hot {
				return true
			}
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // a method that shares a helper's name is not the helper
			}
			pass.Reportf(call.Pos(),
				"vec.%s allocates on every iteration of a hot-path loop; use %s",
				callee.Name(), fix)
			return true
		})
	}
}
