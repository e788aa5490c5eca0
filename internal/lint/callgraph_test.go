package lint

import (
	"go/types"
	"testing"
)

// loadFixtureGraph loads the fixture module and builds the shared call
// graph once per test.
func loadFixtureGraph(t *testing.T) (*Module, *CallGraph) {
	t.Helper()
	mod, err := LoadModule(fixtureRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	return mod, BuildCallGraph(mod)
}

// lookupFunc finds a function in the graph by its display name.
func lookupFunc(t *testing.T, g *CallGraph, display string) *FuncInfo {
	t.Helper()
	for _, fi := range g.Order {
		if funcDisplay(fi.Fn) == display {
			return fi
		}
	}
	t.Fatalf("function %s not in call graph", display)
	return nil
}

// TestCallGraphInterfaceDispatch checks that a module-declared interface
// method resolves to its module implementations — the link that makes
// the cyclea/cycleb cross-package cycle visible.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	mod, g := loadFixtureGraph(t)
	var notify *types.Func
	for _, pkg := range mod.Pkgs {
		if pkg.Path != "fixture/cyclea" {
			continue
		}
		iface := pkg.Pkg.Scope().Lookup("Notifier").Type().Underlying().(*types.Interface)
		notify = iface.ExplicitMethod(0)
	}
	if notify == nil {
		t.Fatal("cyclea.Notifier.Notify not found")
	}
	targets := g.Targets(notify)
	if len(targets) != 1 || funcDisplay(targets[0]) != "cycleb.Peer.Notify" {
		names := make([]string, len(targets))
		for i, fn := range targets {
			names[i] = funcDisplay(fn)
		}
		t.Fatalf("Targets(Notifier.Notify) = %v, want [cycleb.Peer.Notify]", names)
	}
	// A concrete function with a body resolves to itself.
	wn := lookupFunc(t, g, "cyclea.Registry.WithNotifier")
	if self := g.Targets(wn.Fn); len(self) != 1 || self[0] != wn.Fn {
		t.Fatalf("Targets(concrete) should be the function itself")
	}
}

// TestCallGraphExternal checks the escape analysis behind entry-lock
// inference: exported functions are external (callable from anywhere),
// unexported functions whose address is never taken are not.
func TestCallGraphExternal(t *testing.T) {
	_, g := loadFixtureGraph(t)
	if !lookupFunc(t, g, "atomix.Gauge.Set").External {
		t.Errorf("exported Gauge.Set should be External")
	}
	if lookupFunc(t, g, "atomix.Gauge.setLocked").External {
		t.Errorf("unexported, non-escaping Gauge.setLocked should not be External")
	}
}

// TestCallGraphOrder checks the traversal order is topological over
// package imports, so callee summaries exist before their callers'.
func TestCallGraphOrder(t *testing.T) {
	_, g := loadFixtureGraph(t)
	pos := make(map[string]int)
	for i, fi := range g.Order {
		pos[funcDisplay(fi.Fn)] = i
	}
	if pos["cyclea.Registry.Poke"] > pos["cycleb.Peer.WithRegistry"] {
		t.Errorf("cyclea (imported) should precede cycleb in traversal order")
	}
}

// TestLockFactsSummaries checks the interprocedural summaries the
// analyzers consume: transitive may-acquire with witness chains,
// may-fsync through helpers, and entry-lock inference for *Locked
// helpers.
func TestLockFactsSummaries(t *testing.T) {
	mod, g := loadFixtureGraph(t)
	facts := buildLockFacts(mod, g)

	// WithRegistry transitively acquires Registry.mu through Poke.
	wr := lookupFunc(t, g, "cycleb.Peer.WithRegistry")
	found := false
	for cls := range facts.fns[wr.Fn].mayAcquire {
		if facts.classDisplay(cls) == "cyclea.Registry.mu" {
			found = true
		}
	}
	if !found {
		t.Errorf("WithRegistry should transitively acquire cyclea.Registry.mu")
	}

	// SyncViaHelper reaches an fsync through flush.
	sv := lookupFunc(t, g, "lockio.engine.SyncViaHelper")
	if facts.fns[sv.Fn].maySync == nil {
		t.Errorf("SyncViaHelper should have a transitive fsync witness")
	}

	// setLocked's entry set proves every caller holds g.mu exclusively.
	sl := lookupFunc(t, g, "atomix.Gauge.setLocked")
	entry := facts.fns[sl.Fn].entryMust
	if len(entry) != 1 {
		t.Fatalf("setLocked entryMust has %d locks, want 1", len(entry))
	}
	for cls, mode := range entry {
		if facts.classDisplay(cls) != "atomix.Gauge.mu" || mode != 2 {
			t.Errorf("setLocked entryMust = {%s: %d}, want {atomix.Gauge.mu: 2}", facts.classDisplay(cls), mode)
		}
	}
}
