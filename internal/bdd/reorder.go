package bdd

import "sort"

// SwapAdjacent exchanges the variables at levels l and l+1 in place.
// Node identities are preserved: nodes at level l that depend on both
// variables are restructured in place, nodes that do not are relabeled.
// Functions held by callers remain valid.
//
// The unique table keys entries by the arena records, so both levels
// are deleted from the table (backward-shift, no tombstones) before any
// record is mutated and reinserted under their new keys afterwards.
//
// The restructure preserves the canonical hi-regular form without ever
// complementing a live slot: a dependent node's new hi child is
// mk(l+1, b, d) where d comes from the node's stored hi — regular by
// the invariant — and its hi in turn is regular, so mk never needs to
// flip that edge and the in-place record keeps a regular hi. (When
// b == d the child collapses to d itself, which is again regular.)
func (m *Manager) SwapAdjacent(l int) {
	if l < 0 || l+1 >= m.NumVars() {
		panic("bdd: SwapAdjacent level out of range")
	}
	m.mSwaps.Add(1)
	x := m.varAtLevel[l]
	y := m.varAtLevel[l+1]

	// Snapshot the two levels from their intrusive lists before mutating
	// anything — O(nodes at the two levels), not O(unique table), which
	// is what makes long sifting runs affordable. List order is a pure
	// function of the manager's history, so the rebuild below and any
	// nodes mk allocates during it are deterministic too.
	levL := m.swapL[:0]
	levL1 := m.swapL1[:0]
	for e := m.levelList[l]; e != 0; e = m.nodes[e>>1].next {
		levL = append(levL, e)
	}
	for e := m.levelList[l+1]; e != 0; e = m.nodes[e>>1].next {
		levL1 = append(levL1, e)
	}
	// Both lists are rebuilt as nodes land on their new levels; fresh
	// children mk allocates during the restructure push themselves onto
	// the l+1 list through mkReg.
	m.levelList[l], m.levelList[l+1] = 0, 0
	// Classify level-l nodes by whether they reference level l+1. The
	// children's polarity is irrelevant here — only their slot's level.
	rewrite := m.swapRw[:0]
	for _, n := range levL {
		r := m.nodes[n>>1]
		rewrite = append(rewrite,
			m.nodes[r.lo>>1].level == int32(l+1) || m.nodes[r.hi>>1].level == int32(l+1))
	}
	// Remove both levels from the table while their keys still match
	// their records.
	for _, n := range levL {
		m.uniqueDelete(n)
	}
	for _, n := range levL1 {
		m.uniqueDelete(n)
	}

	// Old level-l+1 nodes (variable y) move up to level l.
	for _, n := range levL1 {
		r := &m.nodes[n>>1]
		r.level = int32(l)
		r.next = m.levelList[l]
		m.levelList[l] = n
		m.uniquePut(n)
	}
	// Level-l nodes independent of y move down to level l+1 unchanged.
	for i, n := range levL {
		if !rewrite[i] {
			r := &m.nodes[n>>1]
			r.level = int32(l + 1)
			r.next = m.levelList[l+1]
			m.levelList[l+1] = n
			m.uniquePut(n)
		}
	}
	// Remaining level-l nodes are restructured:
	//   f = x ? f1 : f0  becomes  f = y ? (x ? d : b) : (x ? c : a)
	// with a = f[x=0,y=0], b = f[x=0,y=1], c = f[x=1,y=0], d = f[x=1,y=1].
	// Cofactors of complemented children inherit the complement.
	for i, n := range levL {
		if !rewrite[i] {
			continue
		}
		rec := m.nodes[n>>1]
		f0, f1 := rec.lo, rec.hi // f1 regular by the canonical form
		a, b := f0, f0
		if fr := m.nodes[f0>>1]; fr.level == int32(l) { // old y-node, already relabeled
			s := f0 & 1
			a, b = fr.lo^s, fr.hi^s
		}
		c, d := f1, f1
		if fr := m.nodes[f1>>1]; fr.level == int32(l) {
			c, d = fr.lo, fr.hi
		}
		lo := m.mk(l+1, a, c)
		hi := m.mk(l+1, b, d) // regular: d is regular, and b == d implies b regular
		nr := &m.nodes[n>>1]
		nr.lo = lo
		nr.hi = hi
		nr.next = m.levelList[l] // stays at level l
		m.levelList[l] = n
		m.uniquePut(n)
	}
	// Return the (possibly grown) scratch buffers to the manager.
	m.swapL, m.swapL1, m.swapRw = levL[:0], levL1[:0], rewrite[:0]

	m.varAtLevel[l], m.varAtLevel[l+1] = y, x
	m.levelOfVar[x], m.levelOfVar[y] = l+1, l
}

// moveVarTo moves the variable currently at level `from` to level `to`
// via adjacent swaps.
func (m *Manager) moveVarTo(from, to int) {
	for from < to {
		m.SwapAdjacent(from)
		from++
	}
	for from > to {
		m.SwapAdjacent(from - 1)
		from--
	}
}

// Sift performs Rudell sifting of every variable whose level lies within
// [loLevel, hiLevel] (inclusive), with all movement confined to that
// range, minimizing the shared node count of roots. Variables outside the
// range are untouched, which is how the pin scheduler keeps already
// scheduled frames frozen. It returns the final node count.
func (m *Manager) Sift(roots []Node, loLevel, hiLevel int) int {
	if hiLevel >= m.NumVars() {
		hiLevel = m.NumVars() - 1
	}
	if loLevel < 0 {
		loLevel = 0
	}
	m.GC(roots) // construction garbage dominates; collect up front
	best := m.NodeCount(roots...)
	if loLevel >= hiLevel {
		return best
	}
	vars := m.varsByContribution(roots, loLevel, hiLevel)
	for _, v := range vars {
		if m.stopped() {
			break
		}
		m.maybeGC(roots)
		sp := m.span.Child("bdd.sift", "bdd")
		sp.SetInt("var", int64(v))
		h0, ms0 := m.hits, m.misses
		best = m.siftOne(roots, v, loLevel, hiLevel, best)
		sp.SetInt("nodes", int64(best))
		sp.SetInt("cache_hits", m.hits-h0)
		sp.SetInt("cache_misses", m.misses-ms0)
		sp.SetInt("unique_load_pct", m.loadPct())
		sp.End()
		m.noteSize()
	}
	return best
}

// siftOne moves variable v through [loLevel, hiLevel] and parks it at the
// position minimizing the node count; returns the resulting count.
func (m *Manager) siftOne(roots []Node, v, loLevel, hiLevel, cur int) int {
	start := m.levelOfVar[v]
	bestLevel, bestSize := start, cur

	tryRange := func(dir int) {
		for m.levelOfVar[v]+dir >= loLevel && m.levelOfVar[v]+dir <= hiLevel {
			if m.stopped() {
				return // park at bestLevel below; order stays consistent
			}
			if dir > 0 {
				m.SwapAdjacent(m.levelOfVar[v])
			} else {
				m.SwapAdjacent(m.levelOfVar[v] - 1)
			}
			size := m.NodeCount(roots...)
			m.gcIfBloated(roots, size)
			if size < bestSize {
				bestSize, bestLevel = size, m.levelOfVar[v]
			}
		}
	}
	// Explore the closer end first, then the other.
	if start-loLevel < hiLevel-start {
		tryRange(-1)
		tryRange(+1)
	} else {
		tryRange(+1)
		tryRange(-1)
	}
	m.moveVarTo(m.levelOfVar[v], bestLevel)
	return bestSize
}

// varsByContribution lists the variables in [loLevel, hiLevel] sorted by
// decreasing live node count at their level (the classic sifting order).
func (m *Manager) varsByContribution(roots []Node, loLevel, hiLevel int) []int {
	counts := make([]int, m.NumVars())
	m.beginVisit()
	stack := m.stack[:0]
	for _, r := range roots {
		if r > True && m.visited[r>>1] != m.epoch {
			m.visited[r>>1] = m.epoch
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := m.nodes[n>>1]
		counts[r.level]++
		for _, c := range [2]Node{r.lo, r.hi} {
			if c > True && m.visited[c>>1] != m.epoch {
				m.visited[c>>1] = m.epoch
				stack = append(stack, c)
			}
		}
	}
	m.stack = stack[:0]
	var vars []int
	for l := loLevel; l <= hiLevel; l++ {
		vars = append(vars, m.varAtLevel[l])
	}
	sort.SliceStable(vars, func(i, j int) bool {
		return counts[m.levelOfVar[vars[i]]] > counts[m.levelOfVar[vars[j]]]
	})
	return vars
}

// Symmetric reports whether all roots are symmetric in variables v and w,
// i.e. invariant under exchanging the two variables.
func (m *Manager) Symmetric(roots []Node, v, w int) bool {
	for _, f := range roots {
		f01 := m.Cofactor(m.Cofactor(f, v, false), w, true)
		f10 := m.Cofactor(m.Cofactor(f, v, true), w, false)
		if f01 != f10 {
			return false
		}
	}
	return true
}

// SymmetryGroups partitions the variables at levels [loLevel, hiLevel]
// into groups of mutually symmetric variables (greedy: a variable joins
// the first group whose representative it is symmetric with).
func (m *Manager) SymmetryGroups(roots []Node, loLevel, hiLevel int) [][]int {
	var groups [][]int
	for l := loLevel; l <= hiLevel && l < m.NumVars(); l++ {
		if m.stopped() {
			// Remaining variables become singleton groups, so the
			// caller's block layout below stays well-defined.
			for r := l; r <= hiLevel && r < m.NumVars(); r++ {
				groups = append(groups, []int{m.varAtLevel[r]})
			}
			break
		}
		v := m.varAtLevel[l]
		placed := false
		for gi := range groups {
			if m.Symmetric(roots, groups[gi][0], v) {
				groups[gi] = append(groups[gi], v)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{v})
		}
	}
	return groups
}

// SiftSymmetric performs symmetric sifting in the style of Panda and
// Somenzi: variables in [loLevel, hiLevel] are grouped by symmetry, each
// group is made contiguous, and groups are then sifted as blocks within
// the range. Returns the final node count of roots.
func (m *Manager) SiftSymmetric(roots []Node, loLevel, hiLevel int) int {
	if hiLevel >= m.NumVars() {
		hiLevel = m.NumVars() - 1
	}
	if loLevel < 0 {
		loLevel = 0
	}
	if loLevel >= hiLevel {
		return m.NodeCount(roots...)
	}
	m.GC(roots) // construction garbage dominates; collect up front
	groups := m.SymmetryGroups(roots, loLevel, hiLevel)
	// Make each group contiguous: stack groups from loLevel downward.
	next := loLevel
	for _, g := range groups {
		// Order group members by current level so moves do not cross.
		sort.Slice(g, func(i, j int) bool { return m.levelOfVar[g[i]] < m.levelOfVar[g[j]] })
		for _, v := range g {
			m.moveVarTo(m.levelOfVar[v], next)
			next++
		}
	}
	// Sift each block, largest first.
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(groups[order[a]]) > len(groups[order[b]]) })
	best := m.NodeCount(roots...)
	for _, gi := range order {
		if m.stopped() {
			break
		}
		m.maybeGC(roots)
		sp := m.span.Child("bdd.sift", "bdd")
		sp.SetInt("block", int64(len(groups[gi])))
		sp.SetInt("var", int64(groups[gi][0]))
		h0, ms0 := m.hits, m.misses
		best = m.siftBlock(roots, groups[gi], loLevel, hiLevel, best)
		sp.SetInt("nodes", int64(best))
		sp.SetInt("cache_hits", m.hits-h0)
		sp.SetInt("cache_misses", m.misses-ms0)
		sp.SetInt("unique_load_pct", m.loadPct())
		sp.End()
		m.noteSize()
	}
	return best
}

// siftBlock moves a contiguous block of variables through the range and
// parks it at the best position. The block is identified by its variable
// set; it must be contiguous on entry and stays contiguous.
func (m *Manager) siftBlock(roots []Node, block []int, loLevel, hiLevel, cur int) int {
	k := len(block)
	blockTop := func() int {
		t := m.levelOfVar[block[0]]
		for _, v := range block[1:] {
			if m.levelOfVar[v] < t {
				t = m.levelOfVar[v]
			}
		}
		return t
	}
	start := blockTop()
	bestTop, bestSize := start, cur

	// moveDown moves the block one level down by bubbling the external
	// variable below it up over the whole block; moveUp is symmetric.
	moveDown := func() {
		b := blockTop() + k - 1 // bottom level of the block
		for l := b; l >= blockTop(); l-- {
			m.SwapAdjacent(l)
		}
	}
	moveUp := func() {
		t := blockTop()
		for l := t - 1; l < t-1+k; l++ {
			m.SwapAdjacent(l)
		}
	}
	for blockTop()+k-1 < hiLevel && !m.stopped() {
		moveDown()
		size := m.NodeCount(roots...)
		m.gcIfBloated(roots, size)
		if size < bestSize {
			bestSize, bestTop = size, blockTop()
		}
	}
	for blockTop() > loLevel && !m.stopped() {
		moveUp()
		size := m.NodeCount(roots...)
		m.gcIfBloated(roots, size)
		if size < bestSize {
			bestSize, bestTop = size, blockTop()
		}
	}
	for blockTop() < bestTop {
		moveDown()
	}
	for blockTop() > bestTop {
		moveUp()
	}
	return bestSize
}

// Translator rebuilds functions of a source manager inside a
// destination manager, renaming each source variable v to varMap[v]
// (a negative entry, or a variable past the end of varMap, is unmapped
// and must not occur in a translated support). It uses Ite, so it is
// correct for any target order, and linear when the mapping preserves
// relative order. Translation commutes with complement (both managers
// use complement edges), so the memo keys on regular edges and
// polarity is reapplied on the way out.
//
// The memo rides the source manager's epoch-marked scratch (visited
// plus a parallel result array) and persists across Translate calls
// until the source manager starts another traversal, so translating
// many functions that share sub-BDDs visits each shared node once.
// Re-translating a node already built in dst creates no node, so a
// memo hit leaves dst's layout exactly as a fresh walk would. dst must
// be a different manager and must not be garbage-collected while the
// translator is in use.
type Translator struct {
	src, dst *Manager
	varMap   []int
	epoch    uint32 // src traversal epoch the memo belongs to; 0 = none
}

// NewTranslator returns a translator from src into dst under varMap.
func NewTranslator(src, dst *Manager, varMap []int) *Translator {
	return &Translator{src: src, dst: dst, varMap: varMap}
}

// Translate returns f (a function in the source manager) rebuilt in the
// destination manager.
func (t *Translator) Translate(f Node) Node {
	m := t.src
	if t.epoch == 0 || m.epoch != t.epoch {
		m.beginVisit()
		t.epoch = m.epoch
	}
	if len(m.transMemo) < len(m.nodes) {
		memo := make([]Node, len(m.nodes), cap(m.nodes))
		copy(memo, m.transMemo)
		m.transMemo = memo
	}
	return t.rec(f)
}

func (t *Translator) rec(n Node) Node {
	if n == False || n == True {
		return n
	}
	if n&1 != 0 {
		return t.rec(n^1) ^ 1
	}
	m := t.src
	i := n >> 1
	if m.visited[i] == t.epoch {
		return m.transMemo[i]
	}
	nr := m.nodes[i]
	v := -1
	if sv := m.varAtLevel[nr.level]; sv < len(t.varMap) {
		v = t.varMap[sv]
	}
	if v < 0 {
		panic("bdd: Translate: unmapped variable in support")
	}
	r := t.dst.Ite(t.dst.Var(v), t.rec(nr.hi), t.rec(nr.lo))
	m.visited[i] = t.epoch
	m.transMemo[i] = r
	return r
}

// Cube returns the conjunction of the given variables with the given
// phases.
func (m *Manager) Cube(vars []int, vals []bool) Node {
	r := True
	for i, v := range vars {
		lit := m.Var(v)
		if !vals[i] {
			lit = m.NVar(v)
		}
		r = m.And(r, lit)
	}
	return r
}

// GC frees every node unreachable from roots: the unique table is
// rebuilt over the live set, the computed cache is cleared (its entries
// may reference reclaimed nodes), and the reclaimed arena slots go on
// the freelist for mk to reuse, so the arena stops growing once the
// working set stabilizes. Live node identities are preserved — roots and
// any other reference reachable from them stay valid — and the rebuild
// scans the arena in slot order, so the post-GC table layout and the
// freelist order are deterministic. Long reordering runs must collect
// periodically: every swap orphans nodes, and orphans left in the table
// get relabeled and restructured again and again, degrading later swaps.
// It returns the number of live non-terminal nodes.
func (m *Manager) GC(roots []Node) int {
	m.beginVisit()
	stack := m.stack[:0]
	for _, r := range roots {
		if r > True && m.visited[r>>1] != m.epoch {
			m.visited[r>>1] = m.epoch
			stack = append(stack, r)
		}
	}
	live := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		live++
		r := m.nodes[n>>1]
		for _, c := range [2]Node{r.lo, r.hi} {
			if c > True && m.visited[c>>1] != m.epoch {
				m.visited[c>>1] = m.epoch
				stack = append(stack, c)
			}
		}
	}
	m.stack = stack[:0]

	// Rebuild the unique table sized for the survivors and sweep the
	// arena: live slots are reinserted, everything else is reclaimed.
	size := minUniqueSlots
	for size < 2*live {
		size *= 2
	}
	m.unique = make([]Node, size)
	m.uniqueUsed = 0
	m.free = m.free[:0]
	for i := 1; i < len(m.nodes); i++ {
		if m.visited[i] == m.epoch {
			m.uniqueReinsert(Node(i) << 1)
		} else {
			m.nodes[i] = nodeRec{level: freeLevel}
			m.free = append(m.free, Node(i)<<1)
		}
	}
	// Rebuild the per-level lists over the survivors. The descending
	// sweep leaves each list in ascending slot order — deterministic,
	// like everything else about the rebuild.
	for l := range m.levelList {
		m.levelList[l] = 0
	}
	for i := len(m.nodes) - 1; i >= 1; i-- {
		if m.visited[i] == m.epoch {
			r := &m.nodes[i]
			r.next = m.levelList[r.level]
			m.levelList[r.level] = Node(i) << 1
		}
	}
	m.clearCache()

	// After the sweep every non-live slot is on the freelist, so the
	// allocated count noteSize reports is exactly live + the terminal.
	m.noteSize()
	return live
}

// maybeGC collects when the unique-table population is far above the
// live count.
func (m *Manager) maybeGC(roots []Node) {
	m.gcIfBloated(roots, m.NodeCount(roots...))
}

// gcIfBloated collects when the unique-table population is far above
// live, the caller's already-computed NodeCount of its roots — the
// sifting loops measure after every swap, so fusing the measurement
// with the GC trigger halves their traversals.
func (m *Manager) gcIfBloated(roots []Node, live int) {
	if m.uniqueUsed > 4*live+1024 {
		m.GC(roots)
	}
}
