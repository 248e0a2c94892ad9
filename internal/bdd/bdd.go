// Package bdd implements reduced ordered binary decision diagrams with
// complement edges and an in-place variable-reordering engine
// (adjacent-level swap, Rudell-style sifting, and Panda–Somenzi
// symmetric sifting). It plays the role CUDD plays in the paper's
// implementation, and borrows CUDD's storage layout: a single flat
// open-addressing unique table keyed by (level, lo, hi), a fixed-size
// lossy computed cache (direct-mapped, overwrite on collision), and a
// mark-and-sweep GC whose reclaimed arena slots feed a freelist so the
// arena stops growing once the working set stabilizes.
//
// A Node is an edge: an arena slot index shifted left by one, with the
// low bit carrying the complement attribute. The canonical form stores
// every node with a regular (uncomplemented) then-edge, so a function
// and its negation share one arena slot and Not is a single bit flip.
// The one terminal occupies slot 0: False is the regular edge to it and
// True the complemented one, which keeps the familiar False == 0,
// True == 1 constants.
//
// A Manager owns an arena of nodes; Node values remain stable across
// reordering (a swap rewrites node structure in place, never node
// identity), so callers can hold Nodes across Sift calls. GC(roots)
// frees every node unreachable from roots; a Node held by a caller
// survives any GC whose root set (transitively) covers it, and a freed
// slot is only ever handed out again by mk, so a live Node is never
// silently rebound to a different function.
package bdd

import (
	"fmt"
	"unsafe"

	"circuitfold/internal/fault"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

// ErrNodeLimit reports that a hard node cap installed with SetNodeLimit
// was exceeded. It wraps pipeline.ErrBudgetExceeded so the cap reads as
// a budget failure everywhere the engine classifies errors. Because mk
// sits at the bottom of deep recursions that cannot thread an error
// return, the cap surfaces as a panic carrying an ErrNodeLimit-matching
// error value; the pipeline stage boundaries (and the public entry
// points) recover it back into a plain error — the same longjmp-style
// unwinding CUDD uses for its memory cap.
var ErrNodeLimit = fmt.Errorf("bdd: node limit exceeded: %w", pipeline.ErrBudgetExceeded)

// Node identifies a BDD function within its Manager: an arena slot
// index in the high bits and the complement attribute in bit 0. The two
// terminals are False and True (the two polarities of arena slot 0).
type Node int32

// Terminal nodes: the regular and complemented edges to arena slot 0.
const (
	False Node = 0
	True  Node = 1
)

// Regular strips the complement attribute, returning the positive-phase
// edge to n's arena slot. Two Nodes denote the same slot — and thus
// structurally equal functions up to polarity — iff their Regular forms
// are equal.
func Regular(n Node) Node { return n &^ 1 }

// IsComplement reports whether n carries the complement attribute.
func IsComplement(n Node) bool { return n&1 != 0 }

// nodeRec is one arena slot. Live slots carry the level of their top
// variable (the terminal uses nVars); slots on the freelist carry
// freeLevel. The hi edge is always regular (the canonical form); the lo
// edge may be complemented. next threads the slot onto its level's
// intrusive list (see Manager.levelList): a regular edge to the next
// node at the same level, 0 terminating the chain — unambiguous because
// the terminal is never listed.
type nodeRec struct {
	level  int32
	lo, hi Node
	next   Node
}

// freeLevel marks an arena slot that has been reclaimed by GC and is
// waiting on the freelist. No live node ever has a negative level.
const freeLevel int32 = -1

// Operation tags for the computed cache. 0 marks an empty cache slot.
// There is no opOr: Or is And under De Morgan with three O(1) bit
// flips, so conjunctions and disjunctions share cache entries.
const (
	opAnd = iota + 1
	opXor
	opIte
	opCof
)

// Manager is a BDD node arena with a variable order. Variable indices are
// permanent names; levels are positions in the current order (level 0 is
// the top). The zero value is not usable; call New.
type Manager struct {
	nodes []nodeRec
	free  []Node // reclaimed arena slots (as regular edges), reused LIFO by mk

	// unique is the flat open-addressing unique table: power-of-two
	// sized, linear probing, rebuilt (never tombstoned) on growth.
	// Entries are regular edges keyed by the slot's (level, lo, hi);
	// 0 is the empty-slot sentinel (the terminal never enters the table).
	unique     []Node
	uniqueUsed int

	// levelList[l] heads the intrusive list (through nodeRec.next) of
	// every allocated non-terminal slot whose record sits at level l —
	// the per-level enumeration CUDD gets from its subtables. mkReg
	// pushes new slots; SwapAdjacent and GC rebuild the lists they
	// touch wholesale. Membership follows the arena, not the unique
	// table: a slot orphaned by a uniquePut overwrite stays listed until
	// GC reclaims it, so swaps keep relabeling it consistently with its
	// canonical twin.
	levelList []Node

	// cache is the lossy computed cache shared by apply and Ite:
	// direct-mapped, one probe per lookup, overwrite on collision.
	cache []cacheEntry

	// visited/epoch implement allocation-free traversals: arena slot i
	// is marked in the current traversal iff visited[i] == epoch.
	visited []uint32
	epoch   uint32
	stack   []Node // scratch stack for iterative traversals

	// transMemo is the Translator memo, epoch-guarded and parallel to
	// visited; scratch, so Clone does not copy it.
	transMemo []Node

	// Scratch buffers for SwapAdjacent's two level snapshots.
	swapL, swapL1 []Node
	swapRw        []bool

	varAtLevel []int
	levelOfVar []int
	interrupt  func() error // polled by the sifting loops; non-nil result aborts
	nodeLimit  int          // hard cap on allocated arena slots; 0 = unlimited

	// Lifetime storage statistics, maintained unconditionally (the
	// manager is single-goroutine, so these are plain ints).
	hits, misses int64 // computed-cache probes
	cHits        int64 // cache hits reached only via polarity normalization
	peak         int   // high-water allocated slot count (arena − freelist)

	// Values last flushed to the obs counters, so flushes add deltas.
	flushedHits, flushedMisses, flushedCHits int64

	// Observability hooks (all nil when unobserved; every use is
	// nil-safe, so the unobserved cost is a single pointer test on the
	// cold paths and nothing on the node-creation fast path).
	span    *obs.Span    // parent for per-round sifting spans
	mSwaps  *obs.Counter // obs.MBDDReorderSwaps
	mLive   *obs.Gauge   // obs.MBDDLiveNodes
	mArena  *obs.Gauge   // obs.MBDDArenaBytes
	mHits   *obs.Counter // obs.MBDDCacheHits
	mMisses *obs.Counter // obs.MBDDCacheMisses
	mCompl  *obs.Counter // obs.MBDDComplementHits
	mLoad   *obs.Gauge   // obs.MBDDUniqueLoad
	mFree   *obs.Gauge   // obs.MBDDFreeNodes
}

// SetInterrupt installs a callback polled by the reordering loops
// (Sift, SiftSymmetric). When it returns a non-nil error, sifting
// stops early — parking any in-flight variable or block at its best
// position so the order stays consistent — and returns the node count
// reached so far. Callers that care about the reason re-check their
// own budget after the sift returns. Pass nil to remove the hook.
func (m *Manager) SetInterrupt(check func() error) { m.interrupt = check }

// SetNodeLimit installs a hard cap on allocated arena slots (arena
// minus freelist). When arena growth would push the allocation past the
// cap, mk panics with an error matching ErrNodeLimit (and therefore
// pipeline.ErrBudgetExceeded); run the manager under a pipeline stage
// or a pipeline.RecoverTo boundary to receive it as an error. The cap
// bounds memory even where the soft interrupt-based budget checks are
// too coarse (e.g. one giant apply between polls). Zero removes it.
func (m *Manager) SetNodeLimit(n int) { m.nodeLimit = n }

// stopped reports whether the interrupt hook requests an abort.
func (m *Manager) stopped() bool {
	return m.interrupt != nil && m.interrupt() != nil
}

// SetObserver attaches observability to the manager: sifting rounds
// open "bdd.sift" child spans under span, and the manager keeps the
// bdd.live_nodes / bdd.arena_bytes / bdd.free_nodes /
// bdd.unique_load_pct gauges and the bdd.reorder_swaps /
// bdd.cache_hits / bdd.cache_misses / bdd.complement_hits counters of
// reg current. Either argument may be nil; a fully nil observer
// restores the zero-overhead unobserved state.
func (m *Manager) SetObserver(span *obs.Span, reg *obs.Registry) {
	m.span = span
	m.mSwaps = reg.Counter(obs.MBDDReorderSwaps)
	m.mLive = reg.Gauge(obs.MBDDLiveNodes)
	m.mArena = reg.Gauge(obs.MBDDArenaBytes)
	m.mHits = reg.Counter(obs.MBDDCacheHits)
	m.mMisses = reg.Counter(obs.MBDDCacheMisses)
	m.mCompl = reg.Counter(obs.MBDDComplementHits)
	m.mLoad = reg.Gauge(obs.MBDDUniqueLoad)
	m.mFree = reg.Gauge(obs.MBDDFreeNodes)
}

// nodeRecBytes is the arena cost per node reported on bdd.arena_bytes,
// derived from the real record so it cannot drift when nodeRec grows.
const nodeRecBytes = int64(unsafe.Sizeof(nodeRec{}))

// noteSize refreshes the size gauges and flushes the cache counters;
// called from the cold spots (GC, sift rounds) rather than mk so the
// fast path stays untouched.
func (m *Manager) noteSize() {
	if m.mLive == nil {
		return
	}
	m.mLive.Set(int64(len(m.nodes) - len(m.free)))
	m.mArena.Set(int64(len(m.nodes)) * nodeRecBytes)
	m.mFree.Set(int64(len(m.free)))
	m.mLoad.Set(m.loadPct())
	m.mHits.Add(m.hits - m.flushedHits)
	m.flushedHits = m.hits
	m.mMisses.Add(m.misses - m.flushedMisses)
	m.flushedMisses = m.misses
	m.mCompl.Add(m.cHits - m.flushedCHits)
	m.flushedCHits = m.cHits
}

// loadPct returns the unique table's load factor as a percentage.
func (m *Manager) loadPct() int64 {
	return int64(m.uniqueUsed) * 100 / int64(len(m.unique))
}

// Stats is a point-in-time snapshot of the manager's storage layer,
// exposed for benchmarks and tests; it requires no observer.
type Stats struct {
	ArenaNodes     int   // arena slots, terminal and freelist slots included
	FreeNodes      int   // slots on the freelist awaiting reuse
	AllocNodes     int   // ArenaNodes − FreeNodes (live + not-yet-collected)
	PeakNodes      int   // high-water AllocNodes over the manager's lifetime
	UniqueSlots    int   // open-addressing table capacity
	UniqueUsed     int   // populated table slots
	CacheSlots     int   // computed-cache capacity
	CacheHits      int64 // computed-cache hits since New
	CacheMisses    int64 // computed-cache misses since New
	ComplementHits int64 // cache hits reached only via polarity normalization
}

// Stats returns the manager's current storage statistics.
func (m *Manager) Stats() Stats {
	return Stats{
		ArenaNodes:     len(m.nodes),
		FreeNodes:      len(m.free),
		AllocNodes:     len(m.nodes) - len(m.free),
		PeakNodes:      m.peak,
		UniqueSlots:    len(m.unique),
		UniqueUsed:     m.uniqueUsed,
		CacheSlots:     len(m.cache),
		CacheHits:      m.hits,
		CacheMisses:    m.misses,
		ComplementHits: m.cHits,
	}
}

// New creates a manager with nVars variables, variable i initially at
// level i.
func New(nVars int) *Manager {
	m := &Manager{
		nodes:   make([]nodeRec, 1, 1024),
		visited: make([]uint32, 1, 1024),
		unique:  make([]Node, minUniqueSlots),
		cache:   make([]cacheEntry, minCacheSlots),
		peak:    1,
	}
	m.nodes[0] = nodeRec{level: int32(nVars)} // the one terminal
	m.levelList = make([]Node, nVars)
	for i := 0; i < nVars; i++ {
		m.varAtLevel = append(m.varAtLevel, i)
		m.levelOfVar = append(m.levelOfVar, i)
	}
	return m
}

// Reserve presizes the manager for an expected allocated-node count n:
// the arena and its visited scratch get capacity for n slots, and the
// unique table (with the computed cache that grows in step with it)
// jumps directly to the capacity organic growth would reach at that
// population, skipping the intermediate rebuild-and-rehash doublings.
// Layouts stay deterministic — the table layout is a pure function of
// the manager's history, and a Reserve call is part of that history.
// Reserving less than the current size is a no-op; so is reserving on
// a manager that already holds nodes (only the missing capacity is
// added, nothing shrinks).
func (m *Manager) Reserve(n int) {
	if cap(m.nodes) < n {
		nodes := make([]nodeRec, len(m.nodes), n)
		copy(nodes, m.nodes)
		m.nodes = nodes
		visited := make([]uint32, len(m.visited), n)
		copy(visited, m.visited)
		m.visited = visited
	}
	size := len(m.unique)
	for 4*n > 3*size { // mirror mkReg's 75% growth trigger
		size *= 2
	}
	if size > len(m.unique) {
		old := m.unique
		m.unique = make([]Node, size)
		m.uniqueUsed = 0
		for _, e := range old {
			if e != 0 {
				m.uniqueReinsert(e)
			}
		}
		m.growCache()
	}
}

// Clone returns an independent manager holding an exact copy of m's
// arena, unique table, freelist, computed cache, and variable order:
// every Node valid in m denotes the same function in the clone, and as
// long as the two managers perform the same operation sequence from
// here on they allocate identical arenas (layouts are a pure function
// of history). The clone shares no mutable state with m, so it may be
// used from another goroutine; the interrupt hook and observer are not
// copied (install per-clone ones if needed). The node limit is copied.
func (m *Manager) Clone() *Manager {
	return &Manager{
		nodes:      append([]nodeRec(nil), m.nodes...),
		free:       append([]Node(nil), m.free...),
		unique:     append([]Node(nil), m.unique...),
		uniqueUsed: m.uniqueUsed,
		levelList:  append([]Node(nil), m.levelList...),
		cache:      append([]cacheEntry(nil), m.cache...),
		visited:    make([]uint32, len(m.nodes)),
		varAtLevel: append([]int(nil), m.varAtLevel...),
		levelOfVar: append([]int(nil), m.levelOfVar...),
		nodeLimit:  m.nodeLimit,
		peak:       m.peak,
	}
}

// LayoutHash returns an FNV-1a hash over the arena's records in slot
// order. Two managers with equal hashes have (up to collision)
// identical arena layouts — the determinism the parallel folds assert
// across worker counts.
func (m *Manager) LayoutHash() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, r := range m.nodes {
		mix(uint64(uint32(r.level)))
		mix(uint64(uint32(r.lo)))
		mix(uint64(uint32(r.hi)))
	}
	return h
}

// NumVars returns the number of variables.
func (m *Manager) NumVars() int { return len(m.varAtLevel) }

// NumNodes returns the arena size in slots (terminal and free slots
// included).
func (m *Manager) NumNodes() int { return len(m.nodes) }

// VarAtLevel returns the variable currently at the given level.
func (m *Manager) VarAtLevel(l int) int { return m.varAtLevel[l] }

// LevelOfVar returns the current level of variable v.
func (m *Manager) LevelOfVar(v int) int { return m.levelOfVar[v] }

// Order returns the current variable order, top to bottom.
func (m *Manager) Order() []int { return append([]int(nil), m.varAtLevel...) }

// IsTerminal reports whether n is a terminal node.
func (m *Manager) IsTerminal(n Node) bool { return n == False || n == True }

// Level returns the level of node n's top variable; terminals return
// NumVars().
func (m *Manager) Level(n Node) int { return int(m.nodes[n>>1].level) }

// TopVar returns the variable index labeling node n.
func (m *Manager) TopVar(n Node) int { return m.varAtLevel[m.nodes[n>>1].level] }

// Lo returns the low (variable = 0) cofactor of n. The stored edge is
// adjusted by n's complement attribute, so Lo(Not(f)) == Not(Lo(f)).
func (m *Manager) Lo(n Node) Node { return m.nodes[n>>1].lo ^ (n & 1) }

// Hi returns the high (variable = 1) cofactor of n, adjusted by n's
// complement attribute like Lo.
func (m *Manager) Hi(n Node) Node { return m.nodes[n>>1].hi ^ (n & 1) }

// Var returns the function of variable v.
func (m *Manager) Var(v int) Node {
	return m.mk(m.levelOfVar[v], False, True)
}

// NVar returns the function NOT v.
func (m *Manager) NVar(v int) Node {
	return m.mk(m.levelOfVar[v], True, False)
}

// mk returns the canonical edge for (level, lo, hi). The stored form
// keeps the hi edge regular: when hi carries the complement attribute,
// the slot is built for the complemented function (both cofactors
// flipped) and the returned edge is complemented instead, so f and
// NOT f always share one slot.
func (m *Manager) mk(level int, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	if hi&1 != 0 {
		return m.mkReg(level, lo^1, hi^1) ^ 1
	}
	return m.mkReg(level, lo, hi)
}

// mkReg returns the slot for (level, lo, hi) with hi regular: the
// unique-table entry when one exists, otherwise a fresh slot allocated
// from the freelist (or by growing the arena when the freelist is
// empty).
func (m *Manager) mkReg(level int, lo, hi Node) Node {
	mask := uint64(len(m.unique) - 1)
	i := hashKey(int32(level), lo, hi) & mask
	for {
		e := m.unique[i]
		if e == 0 {
			break
		}
		if r := &m.nodes[e>>1]; r.level == int32(level) && r.lo == lo && r.hi == hi {
			return e
		}
		i = (i + 1) & mask
	}
	var n Node
	if k := len(m.free) - 1; k >= 0 {
		n = m.free[k]
		m.free = m.free[:k]
		m.nodes[n>>1] = nodeRec{level: int32(level), lo: lo, hi: hi, next: m.levelList[level]}
		m.levelList[level] = n
	} else {
		// Arena growth is the only path that takes new memory, so the
		// hard cap and the allocation-failure fault point live here;
		// freelist reuse stays untouched.
		if err := fault.Point(fault.PointBDDMk); err != nil {
			panic(err)
		}
		if alloc := len(m.nodes); m.nodeLimit > 0 && alloc >= m.nodeLimit {
			panic(fmt.Errorf("%w: %d allocated nodes", ErrNodeLimit, alloc))
		}
		n = Node(len(m.nodes)) << 1
		m.nodes = append(m.nodes, nodeRec{level: int32(level), lo: lo, hi: hi, next: m.levelList[level]})
		m.visited = append(m.visited, 0)
		m.levelList[level] = n
	}
	m.unique[i] = n
	m.uniqueUsed++
	if alloc := len(m.nodes) - len(m.free); alloc > m.peak {
		m.peak = alloc
	}
	if 4*m.uniqueUsed > 3*len(m.unique) {
		m.growUnique()
		m.growCache()
	}
	return n
}

// Not returns the complement of f: a single flip of the complement
// attribute, no allocation.
func (m *Manager) Not(f Node) Node { return f ^ 1 }

// And returns f AND g.
func (m *Manager) And(f, g Node) Node { return m.apply(opAnd, f, g) }

// Or returns f OR g, computed as NOT (NOT f AND NOT g); the three
// negations are bit flips, so disjunctions share the And cache.
func (m *Manager) Or(f, g Node) Node { return m.apply(opAnd, f^1, g^1) ^ 1 }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Node) Node { return m.apply(opXor, f, g) }

// Xnor returns NOT (f XOR g).
func (m *Manager) Xnor(f, g Node) Node { return m.apply(opXor, f, g) ^ 1 }

// Implies returns f -> g.
func (m *Manager) Implies(f, g Node) Node { return m.apply(opAnd, f, g^1) ^ 1 }

// Diff returns f AND NOT g.
func (m *Manager) Diff(f, g Node) Node { return m.apply(opAnd, f, g^1) }

func (m *Manager) apply(op int32, f, g Node) Node {
	var sign Node
	switch op {
	case opAnd:
		if f == False || g == False {
			return False
		}
		if f == True {
			return g
		}
		if g == True {
			return f
		}
		if f == g {
			return f
		}
		if f == g^1 {
			return False
		}
	case opXor:
		if f == g {
			return False
		}
		if f == g^1 {
			return True
		}
		// XOR ignores operand polarity up to a flip of the result:
		// strip both complement attributes and reapply the combined
		// sign on the way out, halving the cache footprint.
		sign = (f ^ g) & 1
		f &^= 1
		g &^= 1
		if f == False {
			return g ^ sign
		}
		if g == False {
			return f ^ sign
		}
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.cacheGet(op, f, g, 0); ok {
		if sign != 0 {
			m.cHits++
		}
		return r ^ sign
	}
	rf, rg := m.nodes[f>>1], m.nodes[g>>1]
	top := rf.level
	if rg.level < top {
		top = rg.level
	}
	f0, f1 := f, f
	if rf.level == top {
		s := f & 1
		f0, f1 = rf.lo^s, rf.hi^s
	}
	g0, g1 := g, g
	if rg.level == top {
		s := g & 1
		g0, g1 = rg.lo^s, rg.hi^s
	}
	r := m.mk(int(top), m.apply(op, f0, g0), m.apply(op, f1, g1))
	m.cachePut(op, f, g, 0, r)
	return r ^ sign
}

// Ite returns "if f then g else h". Cache keys are complement-
// normalized: the selector and the then-branch are made regular (by
// swapping the branches resp. complementing the result), so the eight
// polarity variants of one ITE share a single cache entry.
func (m *Manager) Ite(f, g, h Node) Node {
	// Constant selectors and branch absorption.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case f == g:
		g = True // Ite(f, f, h) = f OR h
	case f == g^1:
		g = False // Ite(f, NOT f, h) = NOT f AND h
	}
	switch {
	case f == h:
		h = False // Ite(f, g, f) = f AND g
	case f == h^1:
		h = True // Ite(f, g, NOT f) = NOT f OR g
	}
	switch {
	case g == True && h == False:
		return f
	case g == False && h == True:
		return f ^ 1
	case g == h:
		return g
	case g == True:
		return m.apply(opAnd, f^1, h^1) ^ 1 // f OR h
	case g == False:
		return m.apply(opAnd, f^1, h) // NOT f AND h
	case h == False:
		return m.apply(opAnd, f, g) // f AND g
	case h == True:
		return m.apply(opAnd, f, g^1) ^ 1 // NOT f OR g
	}
	// Complement normalization: Ite(NOT f, g, h) = Ite(f, h, g) makes
	// the selector regular; Ite(f, NOT g, NOT h) = NOT Ite(f, g, h)
	// then makes the then-branch regular.
	var sign Node
	norm := false
	if f&1 != 0 {
		f ^= 1
		g, h = h, g
		norm = true
	}
	if g&1 != 0 {
		sign = 1
		g ^= 1
		h ^= 1
		norm = true
	}
	if r, ok := m.cacheGet(opIte, f, g, h); ok {
		if norm {
			m.cHits++
		}
		return r ^ sign
	}
	rf, rg, rh := m.nodes[f>>1], m.nodes[g>>1], m.nodes[h>>1]
	top := rf.level
	if rg.level < top {
		top = rg.level
	}
	if rh.level < top {
		top = rh.level
	}
	cof := func(n Node, r nodeRec) (Node, Node) {
		if r.level == top {
			s := n & 1
			return r.lo ^ s, r.hi ^ s
		}
		return n, n
	}
	f0, f1 := cof(f, rf)
	g0, g1 := cof(g, rg)
	h0, h1 := cof(h, rh)
	r := m.mk(int(top), m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	m.cachePut(opIte, f, g, h, r)
	return r ^ sign
}

// Cofactor returns f with variable v fixed to val. Results go through
// the computed cache keyed by (f, variable, val) — the variable, not
// its level — so entries stay valid across reordering: f|v=val does
// not depend on the order, even though the recursion walks the current
// one. Symmetry detection calls Cofactor O(n²) times; the shared cache
// makes those calls allocation-free and lets cofactors recomputed
// across variable pairs hit.
func (m *Manager) Cofactor(f Node, v int, val bool) Node {
	key := Node(2 * v)
	if val {
		key++
	}
	return m.cof(f, int32(m.levelOfVar[v]), key)
}

// cof recurses Cofactor; lv is the current level of the cofactored
// variable and key packs (variable, val) for the cache. Cofactoring
// commutes with complement, so the cache is probed with the regular
// edge and the sign reapplied on the result.
func (m *Manager) cof(n Node, lv int32, key Node) Node {
	r := m.nodes[n>>1]
	if r.level > lv {
		return n
	}
	s := n & 1
	if r.level == lv {
		if key&1 == 1 {
			return r.hi ^ s
		}
		return r.lo ^ s
	}
	n &^= 1
	if res, ok := m.cacheGet(opCof, n, key, 0); ok {
		if s != 0 {
			m.cHits++
		}
		return res ^ s
	}
	res := m.mk(int(r.level), m.cof(r.lo, lv, key), m.cof(r.hi, lv, key))
	m.cachePut(opCof, n, key, 0, res)
	return res ^ s
}

// Exists existentially quantifies the given variables out of f.
func (m *Manager) Exists(f Node, vars []int) Node {
	quant := make([]bool, m.NumVars())
	maxLvl := -1
	for _, v := range vars {
		quant[m.levelOfVar[v]] = true
		if m.levelOfVar[v] > maxLvl {
			maxLvl = m.levelOfVar[v]
		}
	}
	memo := make(map[Node]Node)
	var rec func(n Node) Node
	rec = func(n Node) Node {
		nl := m.Level(n)
		if nl > maxLvl {
			return n
		}
		if r, ok := memo[n]; ok {
			return r
		}
		lo, hi := rec(m.Lo(n)), rec(m.Hi(n))
		var r Node
		if quant[nl] {
			r = m.Or(lo, hi)
		} else {
			r = m.mk(nl, lo, hi)
		}
		memo[n] = r
		return r
	}
	return rec(f)
}

// Eval evaluates f under a full assignment indexed by variable.
func (m *Manager) Eval(f Node, assign []bool) bool {
	for f > True {
		r := m.nodes[f>>1]
		if assign[m.varAtLevel[r.level]] {
			f = r.hi ^ (f & 1)
		} else {
			f = r.lo ^ (f & 1)
		}
	}
	return f == True
}

// beginVisit starts a new traversal epoch; a slot is considered visited
// in the current traversal iff visited[slot] == epoch.
func (m *Manager) beginVisit() {
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps could collide, reset all
		for i := range m.visited {
			m.visited[i] = 0
		}
		m.epoch = 1
	}
}

// Support returns the variables f depends on, in current level order.
func (m *Manager) Support(f Node) []int {
	inSup := make([]bool, m.NumVars())
	m.beginVisit()
	stack := m.stack[:0]
	if f > True {
		m.visited[f>>1] = m.epoch
		stack = append(stack, f)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := m.nodes[n>>1]
		inSup[r.level] = true
		for _, c := range [2]Node{r.lo, r.hi} {
			if c > True && m.visited[c>>1] != m.epoch {
				m.visited[c>>1] = m.epoch
				stack = append(stack, c)
			}
		}
	}
	m.stack = stack[:0]
	var out []int
	for l := 0; l < m.NumVars(); l++ {
		if inSup[l] {
			out = append(out, m.varAtLevel[l])
		}
	}
	return out
}

// NodeCount returns the number of distinct non-terminal arena slots
// reachable from the given roots (the shared size of the function set;
// a slot and its complement count once). It allocates nothing, so the
// sifting loops can call it after every swap.
func (m *Manager) NodeCount(roots ...Node) int {
	m.beginVisit()
	stack := m.stack[:0]
	for _, r := range roots {
		if r > True && m.visited[r>>1] != m.epoch {
			m.visited[r>>1] = m.epoch
			stack = append(stack, r)
		}
	}
	count := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		r := m.nodes[n>>1]
		for _, c := range [2]Node{r.lo, r.hi} {
			if c > True && m.visited[c>>1] != m.epoch {
				m.visited[c>>1] = m.epoch
				stack = append(stack, c)
			}
		}
	}
	m.stack = stack[:0]
	return count
}

// SatCount returns the number of satisfying assignments of f over all
// variables of the manager as a float64 (exact below 2^53).
//
// With c(n) defined as the count over variables at levels in
// [level(n), NumVars()), the recurrence is
//
//	c(terminal) = 0 or 1
//	c(n) = c(lo)*2^(level(lo)-level(n)-1) + c(hi)*2^(level(hi)-level(n)-1)
//
// and SatCount(f) = c(f) * 2^level(f). Terminals carry level NumVars(),
// which makes the recurrence uniform; the memo keys on the full edge,
// so both polarities of a slot get their own (complementary) counts.
func (m *Manager) SatCount(f Node) float64 {
	memo := make(map[Node]float64)
	var c func(nd Node) float64
	c = func(nd Node) float64 {
		if nd == False {
			return 0
		}
		if nd == True {
			return 1
		}
		if r, ok := memo[nd]; ok {
			return r
		}
		lo, hi := m.Lo(nd), m.Hi(nd)
		lvl := m.Level(nd)
		r := c(lo)*pow2(m.Level(lo)-lvl-1) +
			c(hi)*pow2(m.Level(hi)-lvl-1)
		memo[nd] = r
		return r
	}
	return c(f) * pow2(m.Level(f))
}

func pow2(k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= 2
	}
	return r
}

// String renders a small summary.
func (m *Manager) String() string {
	return fmt.Sprintf("bdd{vars:%d nodes:%d free:%d}", m.NumVars(), len(m.nodes), len(m.free))
}

// AnySat returns one satisfying assignment of f (indexed by variable,
// unconstrained variables false), or ok=false when f is unsatisfiable.
func (m *Manager) AnySat(f Node) (assign []bool, ok bool) {
	if f == False {
		return nil, false
	}
	assign = make([]bool, m.NumVars())
	for !m.IsTerminal(f) {
		if m.Lo(f) != False {
			f = m.Lo(f)
		} else {
			assign[m.TopVar(f)] = true
			f = m.Hi(f)
		}
	}
	return assign, true
}
