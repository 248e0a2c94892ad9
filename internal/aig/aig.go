// Package aig implements And-Inverter Graphs (AIGs), the circuit data
// structure underlying every transformation in this library.
//
// An AIG represents a combinational Boolean network using only two-input
// AND gates and edge inversions. Nodes are identified by small integers;
// an edge is a Lit, which packs a node id and a complement flag. Node 0 is
// the constant-false node, so Const0 = Lit(0) and Const1 = Lit(1).
//
// Graphs are built incrementally through And (and the derived Or, Xor,
// Mux, ...) with structural hashing and local simplification, so a Graph
// never contains two ANDs with the same ordered fanin pair and never
// contains trivially reducible ANDs (x&x, x&!x, x&0, x&1). Because a
// node's fanins must exist before the node is created, the node array is
// always in topological order, which the rest of the library relies on.
package aig

import (
	"fmt"
	"math/bits"
	"sort"
)

// Lit is an edge in the AIG: a node id shifted left once, with the low bit
// set when the edge is complemented.
type Lit uint32

// Constant literals. Node 0 is the constant-false node.
const (
	Const0 Lit = 0
	Const1 Lit = 1
)

// MkLit builds a literal from a node id and a complement flag.
func MkLit(node int, compl bool) Lit {
	l := Lit(node << 1)
	if compl {
		l |= 1
	}
	return l
}

// Node returns the node id the literal points at.
func (l Lit) Node() int { return int(l >> 1) }

// Compl reports whether the literal is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// IsConst reports whether the literal is one of the two constants.
func (l Lit) IsConst() bool { return l.Node() == 0 }

// String renders the literal as, e.g., "7" or "!7", with "0"/"1" for the
// constants.
func (l Lit) String() string {
	if l == Const0 {
		return "0"
	}
	if l == Const1 {
		return "1"
	}
	if l.Compl() {
		return fmt.Sprintf("!%d", l.Node())
	}
	return fmt.Sprintf("%d", l.Node())
}

type nodeKind uint8

const (
	kindConst nodeKind = iota
	kindPI
	kindAnd
)

type node struct {
	kind    nodeKind
	fan0    Lit // meaningful for kindAnd only
	fan1    Lit
	level   int32
	piIndex int32 // meaningful for kindPI only
}

// Graph is a mutable AIG under construction. The zero value is not usable;
// call New.
type Graph struct {
	nodes []node
	pis   []int // node ids of primary inputs, in creation order
	pos   []Lit // primary output literals, in creation order

	piNames []string
	poNames []string

	// strash is the structural-hashing table: AND node ids keyed by
	// their ordered fanin pair, flat open addressing like the BDD unique
	// table (power-of-two size, linear probing, at most 50% load, 0 =
	// empty slot — node 0 is the constant, never an AND).
	strash     []int32
	strashUsed int
}

// minStrashSlots is the initial strash table capacity.
const minStrashSlots = 256

// New returns an empty graph containing only the constant node.
func New() *Graph {
	g := &Graph{
		nodes:  make([]node, 1, 256),
		strash: make([]int32, minStrashSlots),
	}
	g.nodes[0] = node{kind: kindConst}
	return g
}

// strashHash mixes an ordered fanin pair into a table hash.
func strashHash(a, b Lit) uint64 {
	h := uint64(a)<<32 | uint64(b)
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h
}

// strashSlot returns the table slot holding the AND of (a, b), or the
// empty slot where it belongs.
func (g *Graph) strashSlot(a, b Lit) uint64 {
	mask := uint64(len(g.strash) - 1)
	i := strashHash(a, b) & mask
	for {
		id := g.strash[i]
		if id == 0 {
			return i
		}
		if n := &g.nodes[id]; n.fan0 == a && n.fan1 == b {
			return i
		}
		i = (i + 1) & mask
	}
}

// growStrash doubles the table and reinserts every AND in id order.
func (g *Graph) growStrash() {
	g.strash = make([]int32, 2*len(g.strash))
	for id := range g.nodes {
		if n := &g.nodes[id]; n.kind == kindAnd {
			g.strash[g.strashSlot(n.fan0, n.fan1)] = int32(id)
		}
	}
}

// NumNodes returns the total number of nodes, including the constant node
// and the primary inputs.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumAnds returns the number of AND nodes, the usual "AIG size" metric.
func (g *Graph) NumAnds() int { return len(g.nodes) - 1 - len(g.pis) }

// NumPIs returns the number of primary inputs.
func (g *Graph) NumPIs() int { return len(g.pis) }

// NumPOs returns the number of primary outputs.
func (g *Graph) NumPOs() int { return len(g.pos) }

// PI creates a new primary input and returns its (positive) literal.
func (g *Graph) PI(name string) Lit {
	id := len(g.nodes)
	g.nodes = append(g.nodes, node{kind: kindPI, piIndex: int32(len(g.pis))})
	g.pis = append(g.pis, id)
	if name == "" {
		name = fmt.Sprintf("x%d", len(g.pis)-1)
	}
	g.piNames = append(g.piNames, name)
	return MkLit(id, false)
}

// PILit returns the literal of the i-th primary input.
func (g *Graph) PILit(i int) Lit { return MkLit(g.pis[i], false) }

// PIName returns the name of the i-th primary input.
func (g *Graph) PIName(i int) string { return g.piNames[i] }

// PIIndex returns the PI position of node id, or -1 when the node is not a
// primary input.
func (g *Graph) PIIndex(id int) int {
	if g.nodes[id].kind != kindPI {
		return -1
	}
	return int(g.nodes[id].piIndex)
}

// AddPO registers lit as a primary output and returns its output index.
func (g *Graph) AddPO(lit Lit, name string) int {
	idx := len(g.pos)
	g.pos = append(g.pos, lit)
	if name == "" {
		name = fmt.Sprintf("y%d", idx)
	}
	g.poNames = append(g.poNames, name)
	return idx
}

// PO returns the literal driving the i-th primary output.
func (g *Graph) PO(i int) Lit { return g.pos[i] }

// SetPO replaces the driver of the i-th primary output.
func (g *Graph) SetPO(i int, lit Lit) { g.pos[i] = lit }

// POName returns the name of the i-th primary output.
func (g *Graph) POName(i int) string { return g.poNames[i] }

// SetPOName renames the i-th primary output.
func (g *Graph) SetPOName(i int, name string) { g.poNames[i] = name }

// IsPI reports whether node id is a primary input.
func (g *Graph) IsPI(id int) bool { return g.nodes[id].kind == kindPI }

// IsAnd reports whether node id is an AND gate.
func (g *Graph) IsAnd(id int) bool { return g.nodes[id].kind == kindAnd }

// Fanins returns the two fanin literals of AND node id.
func (g *Graph) Fanins(id int) (Lit, Lit) {
	n := &g.nodes[id]
	if n.kind != kindAnd {
		panic(fmt.Sprintf("aig: node %d is not an AND", id))
	}
	return n.fan0, n.fan1
}

// Level returns the logic depth of node id (PIs and the constant are level
// 0).
func (g *Graph) Level(id int) int { return int(g.nodes[id].level) }

// Depth returns the maximum logic level over the primary outputs.
func (g *Graph) Depth() int {
	d := 0
	for _, po := range g.pos {
		if l := g.Level(po.Node()); l > d {
			d = l
		}
	}
	return d
}

// And returns a literal for a AND b, creating a node only when no
// simplification and no structurally identical node applies.
func (g *Graph) And(a, b Lit) Lit {
	// Local simplifications.
	if a == b {
		return a
	}
	if a == b.Not() {
		return Const0
	}
	if a == Const0 || b == Const0 {
		return Const0
	}
	if a == Const1 {
		return b
	}
	if b == Const1 {
		return a
	}
	if a > b {
		a, b = b, a
	}
	slot := g.strashSlot(a, b)
	if id := g.strash[slot]; id != 0 {
		return MkLit(int(id), false)
	}
	id := len(g.nodes)
	lvl := g.nodes[a.Node()].level
	if l1 := g.nodes[b.Node()].level; l1 > lvl {
		lvl = l1
	}
	g.nodes = append(g.nodes, node{kind: kindAnd, fan0: a, fan1: b, level: lvl + 1})
	g.strash[slot] = int32(id)
	if g.strashUsed++; 2*g.strashUsed > len(g.strash) {
		g.growStrash()
	}
	return MkLit(id, false)
}

// Or returns a literal for a OR b.
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal for a XOR b.
func (g *Graph) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Xnor returns a literal for NOT (a XOR b).
func (g *Graph) Xnor(a, b Lit) Lit { return g.Xor(a, b).Not() }

// Mux returns a literal for "if s then t else e".
func (g *Graph) Mux(s, t, e Lit) Lit {
	return g.Or(g.And(s, t), g.And(s.Not(), e))
}

// Implies returns a literal for a -> b.
func (g *Graph) Implies(a, b Lit) Lit { return g.Or(a.Not(), b) }

// AndN folds And over the literals; the empty conjunction is Const1.
func (g *Graph) AndN(ls ...Lit) Lit {
	return g.reduceBalanced(ls, g.And, Const1)
}

// OrN folds Or over the literals; the empty disjunction is Const0.
func (g *Graph) OrN(ls ...Lit) Lit {
	return g.reduceBalanced(ls, g.Or, Const0)
}

// XorN folds Xor over the literals; the empty case is Const0.
func (g *Graph) XorN(ls ...Lit) Lit {
	return g.reduceBalanced(ls, g.Xor, Const0)
}

// reduceBalanced builds a balanced tree to keep depth logarithmic.
func (g *Graph) reduceBalanced(ls []Lit, op func(Lit, Lit) Lit, unit Lit) Lit {
	switch len(ls) {
	case 0:
		return unit
	case 1:
		return ls[0]
	}
	cur := append([]Lit(nil), ls...)
	for len(cur) > 1 {
		var next []Lit
		for i := 0; i+1 < len(cur); i += 2 {
			next = append(next, op(cur[i], cur[i+1]))
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return cur[0]
}

// Adder returns the sum bits and carry-out of a ripple-carry adder over
// equal-width operands a and b with carry-in cin.
func (g *Graph) Adder(a, b []Lit, cin Lit) (sum []Lit, cout Lit) {
	if len(a) != len(b) {
		panic("aig: adder operand widths differ")
	}
	carry := cin
	sum = make([]Lit, len(a))
	for i := range a {
		sum[i] = g.Xor(g.Xor(a[i], b[i]), carry)
		carry = g.Or(g.And(a[i], b[i]), g.And(carry, g.Xor(a[i], b[i])))
	}
	return sum, carry
}

// Support returns the set of PI indices that node reached by lit
// structurally depends on, in ascending order.
func (g *Graph) Support(lit Lit) []int {
	seen := make(map[int]bool)
	var sup []int
	var walk func(id int)
	walk = func(id int) {
		if seen[id] {
			return
		}
		seen[id] = true
		switch g.nodes[id].kind {
		case kindPI:
			sup = append(sup, int(g.nodes[id].piIndex))
		case kindAnd:
			walk(int(g.nodes[id].fan0.Node()))
			walk(int(g.nodes[id].fan1.Node()))
		}
	}
	walk(lit.Node())
	sort.Ints(sup)
	return sup
}

// SupportSets returns, for every primary output, the set of PI indices in
// its structural support, computed in one bottom-up pass with bitsets.
func (g *Graph) SupportSets() [][]int {
	words := (len(g.pis) + 63) / 64
	sets := make([][]uint64, len(g.nodes))
	buf := make([]uint64, words*len(g.nodes))
	for i := range sets {
		sets[i] = buf[i*words : (i+1)*words]
	}
	for i := 1; i < len(g.nodes); i++ {
		n := &g.nodes[i]
		switch n.kind {
		case kindPI:
			sets[i][n.piIndex/64] |= 1 << (uint(n.piIndex) % 64)
		case kindAnd:
			s0, s1 := sets[n.fan0.Node()], sets[n.fan1.Node()]
			for w := 0; w < words; w++ {
				sets[i][w] = s0[w] | s1[w]
			}
		}
	}
	out := make([][]int, len(g.pos))
	for o, po := range g.pos {
		s := sets[po.Node()]
		var idxs []int
		for w := 0; w < words; w++ {
			word := s[w]
			for word != 0 {
				b := word & -word
				idxs = append(idxs, w*64+bits.TrailingZeros64(b))
				word ^= b
			}
		}
		out[o] = idxs
	}
	return out
}

// FanoutCounts returns the number of fanouts of every node, counting PO
// drivers.
func (g *Graph) FanoutCounts() []int {
	cnt := make([]int, len(g.nodes))
	for i := 1; i < len(g.nodes); i++ {
		if g.nodes[i].kind == kindAnd {
			cnt[g.nodes[i].fan0.Node()]++
			cnt[g.nodes[i].fan1.Node()]++
		}
	}
	for _, po := range g.pos {
		cnt[po.Node()]++
	}
	return cnt
}

// Copy returns a deep copy of the graph.
func (g *Graph) Copy() *Graph {
	ng := &Graph{
		nodes:      append([]node(nil), g.nodes...),
		pis:        append([]int(nil), g.pis...),
		pos:        append([]Lit(nil), g.pos...),
		piNames:    append([]string(nil), g.piNames...),
		poNames:    append([]string(nil), g.poNames...),
		strash:     append([]int32(nil), g.strash...),
		strashUsed: g.strashUsed,
	}
	return ng
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("aig{pi:%d po:%d and:%d depth:%d}",
		g.NumPIs(), g.NumPOs(), g.NumAnds(), g.Depth())
}
