package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// runLockOrderModule is lockorder's pass, running once per module on
// the shared lock graph. It reports:
//
//   - re-acquires and RLock→Lock upgrades, from the held set recorded
//     at each acquisition;
//   - locks a return path leaves held without a deferred release;
//   - hierarchy violations, both where an acquisition is spelled out
//     and at calls that transitively reach one, with the acquisition
//     chain;
//   - ranked locks held across fsync, directly or through callees;
//   - classed locks held across blocking channel sends, ditto;
//   - lock-order cycles among lock classes (one report per strongly
//     connected component, with the chain behind every edge). Cycles
//     whose every edge set already includes a reported hierarchy
//     violation are left to those reports.
//
// lockEdgeKey identifies one "from is held while to is acquired" pair.
type lockEdgeKey struct{ from, to *types.Var }

// lockEdge is the first witness recorded for one edge.
type lockEdge struct {
	fn      *types.Func
	pos     token.Pos // event position (acquire or call)
	fromPos token.Pos // where the held lock was acquired
	wit     *witness  // nil: local acquire of .to at pos
	hier    bool      // some occurrence was reported as a hierarchy violation
}

func runLockOrderModule(mp *ModulePass) {
	mf := mp.Facts

	leaked := make(map[token.Pos]bool)
	edges := make(map[lockEdgeKey]*lockEdge)
	addEdge := func(k lockEdgeKey, e *lockEdge) {
		if cur, ok := edges[k]; ok {
			cur.hier = cur.hier || e.hier
			return
		}
		edges[k] = e
	}

	for _, fi := range mp.Graph.Order {
		f := mf.fns[fi.Fn]

		// Local acquisitions: re-acquires, hierarchy check and cycle
		// edges.
		for i := range f.acquires {
			acq := &f.acquires[i]
			for _, h := range acq.held {
				if h.key == acq.op.key {
					if h.rlock && acq.op.name == "Lock" {
						mp.Reportf(acq.op.pos,
							"read-to-write upgrade: %s.Lock() while %s.RLock() is held self-deadlocks", h.key, h.key)
					} else {
						mp.Reportf(acq.op.pos, "%s.%s() while %s is already held (acquired at %s) self-deadlocks",
							h.key, acq.op.name, h.key, mf.shortPos(h.pos))
					}
				}
				hier := h.level >= 0 && acq.op.level >= 0 && acq.op.level <= h.level && h.key != acq.op.key
				if hier {
					mp.Reportf(acq.op.pos,
						"lock order violation: acquiring %s lock %s while holding %s lock %s; the hierarchy is checkpoint → shard-view → engine → Index → Tree → pager",
						lockLevelLabel[acq.op.level], acq.op.key, lockLevelLabel[h.level], h.key)
				}
				if h.class != nil && acq.op.class != nil && h.class != acq.op.class {
					addEdge(lockEdgeKey{h.class, acq.op.class},
						&lockEdge{fn: fi.Fn, pos: acq.op.pos, fromPos: h.pos, hier: hier})
				}
			}
		}

		// Locks a return path leaves held, once per acquisition site.
		for _, h := range f.leaks {
			if leaked[h.pos] {
				continue
			}
			leaked[h.pos] = true
			name, release := "Lock", "Unlock"
			if h.rlock {
				name, release = "RLock", "RUnlock"
			}
			mp.Reportf(h.pos, "%s.%s() is not released on every return path (missing %s.%s() or defer)",
				h.key, name, h.key, release)
		}

		// Direct fsyncs under a ranked engine lock.
		for i := range f.syncs {
			s := &f.syncs[i]
			for _, h := range s.held {
				if h.level >= 1 && h.level <= 5 {
					mp.Reportf(s.pos,
						"%s lock %s is held across %s, which fsyncs; fsync latency under the lock stalls every waiter — move the sync outside",
						lockLevelLabel[h.level], h.key, funcDisplay(s.callee))
				}
			}
		}

		// Direct blocking sends under any classed lock.
		for i := range f.sends {
			s := &f.sends[i]
			for _, h := range s.held {
				if h.class != nil {
					mp.Reportf(s.pos,
						"lock %s is held across a blocking channel send; a stalled receiver extends the critical section indefinitely", h.key)
				}
			}
		}

		// Call sites: what the callees can transitively do while we hold
		// locks. Goroutine launches are excluded — the spawned body
		// inherits nothing and is checked on its own state.
		for i := range f.calls {
			call := &f.calls[i]
			if call.kind == CallGo {
				continue
			}
			targets := mp.Graph.Targets(call.callee)
			if len(targets) == 0 {
				continue
			}
			mayAcq := make(map[*types.Var]*witness)
			var sy, se *witness
			for _, t := range targets {
				g := mf.fns[t]
				if g == nil || t == fi.Fn {
					continue
				}
				for c, tail := range g.mayAcquire {
					if mayAcq[c] == nil {
						mayAcq[c] = &witness{fn: fi.Fn, pos: call.pos, callee: t, tail: tail}
					}
				}
				if sy == nil && g.maySync != nil {
					sy = &witness{fn: fi.Fn, pos: call.pos, callee: t, tail: g.maySync}
				}
				if se == nil && g.maySend != nil {
					se = &witness{fn: fi.Fn, pos: call.pos, callee: t, tail: g.maySend}
				}
			}
			for _, h := range call.held {
				if h.class != nil {
					for c, wit := range mayAcq {
						if c != h.class {
							lvl := mf.classLevel(c)
							hier := h.level >= 0 && lvl >= 0 && lvl <= h.level
							addEdge(lockEdgeKey{h.class, c},
								&lockEdge{fn: fi.Fn, pos: call.pos, fromPos: h.pos, wit: wit, hier: hier})
						}
					}
					if se != nil {
						mp.Reportf(call.pos,
							"lock %s is held across a call that can block on a channel send (%s)",
							h.key, mf.chainString(se, sendLeaf))
					}
				}
				if h.level >= 0 {
					var viol []string
					var wit *witness
					var witClass string
					for c := range mayAcq {
						lvl := mf.classLevel(c)
						if c == h.class || lvl < 0 || lvl > h.level {
							continue
						}
						desc := fmt.Sprintf("%s lock %s", lockLevelLabel[lvl], mf.classDisplay(c))
						viol = append(viol, desc)
						if wit == nil || desc < witClass {
							wit, witClass = mayAcq[c], desc
						}
					}
					if len(viol) > 0 {
						sort.Strings(viol)
						mp.Reportf(call.pos,
							"lock order violation: %s lock %s is held across a call that may acquire %s (%s); the hierarchy is checkpoint → shard-view → engine → Index → Tree → pager",
							lockLevelLabel[h.level], h.key, strings.Join(viol, ", "), mf.chainString(wit, acquireLeaf))
					}
				}
				if h.level >= 1 && h.level <= 5 && sy != nil {
					mp.Reportf(call.pos,
						"%s lock %s is held across a call that can fsync (%s); fsync latency under the lock stalls every waiter — move the sync outside",
						lockLevelLabel[h.level], h.key, mf.chainString(sy, syncLeaf))
				}
			}
		}
	}

	mf.reportCycles(mp, edges)
}

// reportCycles finds strongly connected components among lock classes,
// ignoring edges already reported as hierarchy violations (those cycles
// are that diagnostic's job), and reports one diagnostic per component
// with the acquisition chain behind every edge of its shortest witness
// cycle, anchored at the lexicographically smallest class.
func (mf *modFacts) reportCycles(mp *ModulePass, edges map[lockEdgeKey]*lockEdge) {
	succ := make(map[*types.Var][]*types.Var)
	nodeSet := make(map[*types.Var]bool)
	for k, e := range edges {
		if e.hier {
			continue
		}
		succ[k.from] = append(succ[k.from], k.to)
		nodeSet[k.from] = true
		nodeSet[k.to] = true
	}
	var nodes []*types.Var
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return mf.classDisplay(nodes[i]) < mf.classDisplay(nodes[j]) })
	for _, n := range nodes {
		ss := succ[n]
		sort.Slice(ss, func(i, j int) bool { return mf.classDisplay(ss[i]) < mf.classDisplay(ss[j]) })
	}

	// Tarjan's SCC over the filtered graph.
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	var sccs [][]*types.Var
	next := 0
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sccs = append(sccs, comp)
			}
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}

	for _, comp := range sccs {
		sort.Slice(comp, func(i, j int) bool { return mf.classDisplay(comp[i]) < mf.classDisplay(comp[j]) })
		inComp := make(map[*types.Var]bool, len(comp))
		for _, n := range comp {
			inComp[n] = true
		}
		start := comp[0]
		cycle := shortestCycle(start, succ, inComp)
		if cycle == nil {
			continue
		}
		var names []string
		for _, n := range cycle {
			names = append(names, mf.classDisplay(n))
		}
		names = append(names, mf.classDisplay(start))
		var descs []string
		for i, n := range cycle {
			to := start
			if i+1 < len(cycle) {
				to = cycle[i+1]
			}
			e := edges[lockEdgeKey{n, to}]
			if e == nil {
				continue
			}
			if e.wit == nil {
				descs = append(descs, fmt.Sprintf("%s is held (acquired at %s) when %s acquires %s at %s",
					mf.classDisplay(n), mf.shortPos(e.fromPos), funcDisplay(e.fn),
					mf.classDisplay(to), mf.shortPos(e.pos)))
			} else {
				descs = append(descs, fmt.Sprintf("%s is held (acquired at %s) while %s",
					mf.classDisplay(n), mf.shortPos(e.fromPos), mf.chainString(e.wit, acquireLeaf)))
			}
		}
		first := edges[lockEdgeKey{cycle[0], cycleSecond(cycle, start)}]
		mp.Reportf(first.pos, "lock-order cycle: %s — %s",
			strings.Join(names, " → "), strings.Join(descs, "; "))
	}
}

func cycleSecond(cycle []*types.Var, start *types.Var) *types.Var {
	if len(cycle) > 1 {
		return cycle[1]
	}
	return start
}

// shortestCycle finds the shortest cycle through start inside one SCC
// via BFS, returning the node sequence starting at start (the closing
// edge back to start is implied).
func shortestCycle(start *types.Var, succ map[*types.Var][]*types.Var, inComp map[*types.Var]bool) []*types.Var {
	type path struct {
		node *types.Var
		prev *path
	}
	visited := map[*types.Var]bool{start: true}
	queue := []*path{{node: start}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, w := range succ[p.node] {
			if !inComp[w] {
				continue
			}
			if w == start {
				var rev []*types.Var
				for q := p; q != nil; q = q.prev {
					rev = append(rev, q.node)
				}
				out := make([]*types.Var, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			if visited[w] {
				continue
			}
			visited[w] = true
			queue = append(queue, &path{node: w, prev: p})
		}
	}
	return nil
}

// Leaf renderers for witness chains.
func acquireLeaf(mf *modFacts, w *witness) string {
	return fmt.Sprintf("%s locks at %s", funcDisplay(w.fn), mf.shortPos(w.pos))
}

func syncLeaf(mf *modFacts, w *witness) string {
	return fmt.Sprintf("%s fsyncs via %s at %s", funcDisplay(w.fn), funcDisplay(w.callee), mf.shortPos(w.pos))
}

func sendLeaf(mf *modFacts, w *witness) string {
	return fmt.Sprintf("%s sends at %s", funcDisplay(w.fn), mf.shortPos(w.pos))
}

// chainString renders a witness chain as "f → g → leaf-description".
func (mf *modFacts) chainString(w *witness, leaf func(*modFacts, *witness) string) string {
	var parts []string
	cur := w
	for cur.tail != nil {
		parts = append(parts, funcDisplay(cur.fn))
		cur = cur.tail
	}
	parts = append(parts, leaf(mf, cur))
	return strings.Join(parts, " → ")
}

// shortPos renders a position as "file.go:line" for in-message chains.
func (mf *modFacts) shortPos(pos token.Pos) string {
	p := mf.mod.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
