package core

import (
	"fmt"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
	"circuitfold/internal/pipeline"
)

// errBudget is returned when a BDD construction exceeds its node budget,
// the library's analogue of the paper's 300-second timeout. It wraps
// bdd.ErrNodeLimit (and through it pipeline.ErrBudgetExceeded), so the
// soft per-stage check and the manager's hard cap surface as the same
// error family.
var errBudget = fmt.Errorf("core: BDD node budget exceeded: %w", bdd.ErrNodeLimit)

// buildGCFloor is the smallest unique-table population at which
// buildOutputBDDs collects: below it a GC costs more than the dead
// nodes it frees.
const buildGCFloor = 16384

// buildOutputBDDs constructs BDDs for the given output literals of g in
// mgr, mapping PI index i to manager variable varOfPI[i]. A varOfPI entry
// of -1 marks an input that must not occur in the supports. The build
// aborts with errBudget when the manager grows past nodeBudget (0 = no
// limit) and with the run's typed error when the run is cancelled or
// past its deadline (nil run = never).
//
// Intermediate BDDs are collected as the build goes: each AIG node's
// fanouts within the roots' cone (a root counts as one) are counted up
// front and released as its parents are built, and whenever the unique
// table passes max(2·live, buildGCFloor) entries — live being the
// previous collection's survivors — mgr.GC runs over the BDDs still
// referenced and the outputs built so far. GC preserves the identity of
// every surviving node, so the returned BDDs are the same canonical
// nodes a collection-free build would return. Both passes walk the AIG
// with explicit stacks, so a deep circuit costs heap, not goroutine
// stack.
func buildOutputBDDs(g *aig.Graph, mgr *bdd.Manager, varOfPI []int, roots []aig.Lit, nodeBudget int, run *pipeline.Run) ([]bdd.Node, error) {
	// refs[id] counts id's uses within the cone: fanin edges of cone
	// ANDs plus root occurrences. cone lists the cone's nodes.
	refs := make([]int32, g.NumNodes())
	var cone []int
	stack := make([]int, 0, 64)
	for _, root := range roots {
		id := root.Node()
		if refs[id]++; refs[id] > 1 || id == 0 {
			continue
		}
		cone = append(cone, id)
		stack = append(stack, id)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !g.IsAnd(n) {
				continue
			}
			f0, f1 := g.Fanins(n)
			for _, c := range [2]int{f0.Node(), f1.Node()} {
				if refs[c]++; refs[c] == 1 && c != 0 {
					cone = append(cone, c)
					stack = append(stack, c)
				}
			}
		}
	}

	// AIG node id -> BDD of its positive literal. Ids are dense, so a
	// flat slice beats a map on this hot path; -1 marks "not built"
	// (every real node value is >= 0, bdd.False included).
	memo := make([]bdd.Node, g.NumNodes())
	for i := range memo {
		memo[i] = -1
	}
	memo[0] = bdd.False
	out := make([]bdd.Node, len(roots))
	built, live := 0, 0
	var gcRoots []bdd.Node
	collect := func(done int) {
		gcRoots = append(gcRoots[:0], out[:done]...)
		for _, id := range cone {
			if refs[id] > 0 && memo[id] >= 0 {
				gcRoots = append(gcRoots, memo[id])
			}
		}
		live = mgr.GC(gcRoots)
	}
	// lit returns the BDD of a built literal and releases one use of its
	// node.
	lit := func(l aig.Lit) bdd.Node {
		id := l.Node()
		r := memo[id]
		if id != 0 {
			refs[id]--
		}
		if l.Compl() {
			r = mgr.Not(r)
		}
		return r
	}
	for i, root := range roots {
		// Post-order over the root's unbuilt cone: a node is built once
		// both fanins are, fanin 0's subtree first — the visiting order
		// of a recursive build.
		stack = append(stack[:0], root.Node())
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			if memo[id] >= 0 {
				stack = stack[:len(stack)-1]
				continue
			}
			if pi := g.PIIndex(id); pi >= 0 {
				v := varOfPI[pi]
				if v < 0 {
					return nil, fmt.Errorf("core: PI %d not mapped to a BDD variable", pi)
				}
				memo[id] = mgr.Var(v)
				stack = stack[:len(stack)-1]
				continue
			}
			f0, f1 := g.Fanins(id)
			if memo[f0.Node()] < 0 {
				stack = append(stack, f0.Node())
				continue
			}
			if memo[f1.Node()] < 0 {
				stack = append(stack, f1.Node())
				continue
			}
			stack = stack[:len(stack)-1]
			memo[id] = mgr.And(lit(f0), lit(f1))
			if nodeBudget > 0 && mgr.NumNodes() > nodeBudget {
				return nil, errBudget
			}
			if built++; built&0xff == 0 {
				run.NoteBDDNodes(mgr.NumNodes())
				if err := run.Check(); err != nil {
					return nil, fmt.Errorf("core: BDD construction aborted: %w", err)
				}
			}
			if used := mgr.Stats().UniqueUsed; used > 2*live && used > buildGCFloor {
				collect(i)
			}
		}
		out[i] = lit(root)
	}
	return out, nil
}

// decomposition is one branch of a cut decomposition: the set of
// assignments to the variables above the cut (cond, a BDD over those
// variables) that lead to the sub-function leaf below the cut.
type decomposition struct {
	cond bdd.Node
	leaf bdd.Node
}

// decompScratch holds decomposeAtCut's reusable working storage. The
// folding loop decomposes thousands of small cut regions, so per-call
// map and slice churn was a measurable share of the stage; one scratch
// per worker (never shared — the conditions it holds live in the
// worker's arena) amortizes it away.
type decompScratch struct {
	above  []bdd.Node
	arrive []bdd.Node
	idx    map[bdd.Node]int32
	out    []decomposition
}

func newDecompScratch() *decompScratch {
	return &decompScratch{idx: make(map[bdd.Node]int32)}
}

// decomposeAtCut splits f by the cut at cutLevel: it returns the distinct
// sub-functions of f over the variables at levels >= cutLevel, each with
// the condition over the levels above the cut under which f reduces to
// it. This is the BDD functional-decomposition step at the heart of
// time-frame folding: the leaves are exactly the states induced by f.
// sc may be nil (one-shot callers); the returned slice is freshly
// allocated either way and safe to retain.
func decomposeAtCut(mgr *bdd.Manager, f bdd.Node, cutLevel int, sc *decompScratch) []decomposition {
	if mgr.Level(f) >= cutLevel {
		return []decomposition{{cond: bdd.True, leaf: f}}
	}
	if sc == nil {
		sc = newDecompScratch()
	}
	// Collect the internal nodes above the cut, sorted by level (parents
	// strictly above children, so level order is topological).
	above := sc.above[:0]
	clear(sc.idx)
	var collect func(n bdd.Node)
	collect = func(n bdd.Node) {
		if mgr.Level(n) >= cutLevel {
			return
		}
		if _, ok := sc.idx[n]; ok {
			return
		}
		sc.idx[n] = 0
		above = append(above, n)
		collect(mgr.Lo(n))
		collect(mgr.Hi(n))
	}
	collect(f)
	for i := 1; i < len(above); i++ {
		for j := i; j > 0 && mgr.Level(above[j]) < mgr.Level(above[j-1]); j-- {
			above[j], above[j-1] = above[j-1], above[j]
		}
	}
	for i, n := range above {
		sc.idx[n] = int32(i)
	}

	// arrive[i] is the condition under which f reaches above[i]; False
	// doubles as "not reached yet" (push never records False).
	arrive := sc.arrive[:0]
	for range above {
		arrive = append(arrive, bdd.False)
	}
	arrive[sc.idx[f]] = bdd.True
	out := sc.out[:0]
	push := func(child bdd.Node, cond bdd.Node) {
		if cond == bdd.False {
			return
		}
		if mgr.Level(child) >= cutLevel {
			for i := range out {
				if out[i].leaf == child {
					out[i].cond = mgr.Or(out[i].cond, cond)
					return
				}
			}
			out = append(out, decomposition{cond: cond, leaf: child})
			return
		}
		i := sc.idx[child]
		if arrive[i] == bdd.False {
			arrive[i] = cond
		} else {
			arrive[i] = mgr.Or(arrive[i], cond)
		}
	}
	for i, n := range above {
		a := arrive[i]
		v := mgr.VarAtLevel(mgr.Level(n))
		push(mgr.Lo(n), mgr.And(a, mgr.NVar(v)))
		push(mgr.Hi(n), mgr.And(a, mgr.Var(v)))
	}
	sc.above, sc.arrive, sc.out = above[:0], arrive[:0], out[:0]
	return append([]decomposition(nil), out...)
}
