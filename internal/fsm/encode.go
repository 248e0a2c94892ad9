package fsm

import (
	"fmt"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
	"circuitfold/internal/seq"
)

// StateEncoding selects the state-assignment style of Section V-C.
type StateEncoding int

// Encodings.
const (
	// NaturalBinary uses ceil(log2 |S|) state bits.
	NaturalBinary StateEncoding = iota
	// OneHotState uses |S| state bits, one per state.
	OneHotState
)

func (e StateEncoding) String() string {
	if e == OneHotState {
		return "1hot"
	}
	return "nat"
}

// encodeNodeBudget caps the BDD built during logic synthesis; beyond it
// Encode falls back to direct sum-of-products construction.
var encodeNodeBudget = 3000000

// Encode synthesizes the machine into a sequential circuit with
// NumInputs input pins and NumOutputs output pins. Every next-state and
// output function is built as one BDD over the state bits and inputs and
// then converted to AND-inverter logic, which collapses redundancy the
// way a logic synthesis flow would; on BDD blowup it falls back to a
// direct sum-of-products over the transitions. Unspecified outputs and
// don't-care successors are resolved to 0, the cheapest completion.
func Encode(m *Machine, enc StateEncoding) (*seq.Circuit, error) {
	S := m.NumStates()
	if S == 0 {
		return nil, fmt.Errorf("fsm: cannot encode empty machine")
	}
	g := aig.New()
	ins := make([]aig.Lit, m.NumInputs)
	for i := range ins {
		ins[i] = g.PI(fmt.Sprintf("x%d", i))
	}

	var bits int
	switch enc {
	case OneHotState:
		bits = S
	case NaturalBinary:
		bits = 1
		for 1<<uint(bits) < S {
			bits++
		}
	default:
		return nil, fmt.Errorf("fsm: unknown encoding %d", enc)
	}
	ffs := make([]aig.Lit, bits)
	for i := range ffs {
		ffs[i] = g.PI("")
	}
	code := make([][]bool, S)
	for s := 0; s < S; s++ {
		code[s] = make([]bool, bits)
		if enc == OneHotState {
			code[s][s] = true
		} else {
			for b := 0; b < bits; b++ {
				code[s][b] = s>>uint(b)&1 == 1
			}
		}
	}

	next, outs, ok := encodeViaBDD(m, g, ins, ffs, code, bits, enc)
	if !ok {
		next, outs = encodeViaSOP(m, g, ins, ffs, code, bits, enc)
	}
	for o, lit := range outs {
		g.AddPO(lit, fmt.Sprintf("y%d", o))
	}
	init := make([]bool, bits)
	copy(init, code[m.Initial])
	return &seq.Circuit{G: g, NumInputs: m.NumInputs, Next: next, Init: init}, nil
}

// encodeViaBDD builds each target function as a BDD over [state bits |
// inputs] and converts it to AIG logic. It reports ok=false if the
// working manager exceeds the node budget.
//
// The BDDs are synthesized per state rather than per transition: for
// each source state s, the conditions of its transitions are ORed into
// G_s,k, the part of target k (next-state bit or output) that fires in
// s — a small BDD over the inputs only, each condition translated
// once. The state bits go on top afterwards:
//
//   - nat: a mux tree over the code bits, F_k = Ite(x_0, …, …) down to
//     the leaves G_s,k, with False at unused codes;
//   - 1hot: under the one-hot invariant only the hot bit selects a
//     state, so F_k = OR_s x_s ∧ G_s,k, built from the last source state
//     up as F = Ite(x_s, G_s,k ∨ F, F).
//
// The state bits sit above every input in the order, so each Ite is a
// single node on top of its branches, and the result is the canonical
// BDD of OR over transitions of (state cube ∧ condition).
func encodeViaBDD(m *Machine, g *aig.Graph, ins, ffs []aig.Lit, code [][]bool, bits int, enc StateEncoding) (next []aig.Lit, outs []aig.Lit, ok bool) {
	S := m.NumStates()
	bm := bdd.New(bits + m.NumInputs)
	varMap := make([]int, m.NumInputs)
	for j := range varMap {
		varMap[j] = bits + j
	}
	tr := bdd.NewTranslator(m.Mgr, bm, varMap)
	nf := bits + m.NumOutputs // targets: next-state bits, then outputs
	// fire ORs state s's transition conditions into row, G_s,k for
	// target k; touched lists the targets it made non-False. The caller
	// consumes those entries and resets them to False.
	row := make([]bdd.Node, nf)
	var touched []int
	fire := func(s int) {
		touched = touched[:0]
		or := func(k int, c bdd.Node) {
			if row[k] == bdd.False {
				touched = append(touched, k)
			}
			row[k] = bm.Or(row[k], c)
		}
		for _, t := range m.Trans[s] {
			c := tr.Translate(t.Cond)
			if t.Dst != DontCare {
				for b := 0; b < bits; b++ {
					if code[t.Dst][b] {
						or(b, c)
					}
				}
			}
			for o, v := range t.Out {
				if v == One {
					or(bits+o, c)
				}
			}
		}
	}

	F := make([]bdd.Node, nf)
	if enc == OneHotState {
		for s := S - 1; s >= 0; s-- {
			fire(s)
			x := bm.Var(s)
			for _, k := range touched {
				F[k] = bm.Ite(x, bm.Or(row[k], F[k]), F[k])
				row[k] = bdd.False
			}
			if bm.NumNodes() > encodeNodeBudget {
				return nil, nil, false
			}
		}
	} else {
		// leaves[k][s] is G_s,k, padded with False to the 2^bits codes.
		leaves := make([][]bdd.Node, nf)
		slab := make([]bdd.Node, nf<<uint(bits))
		for k := range leaves {
			leaves[k] = slab[k<<uint(bits) : (k+1)<<uint(bits)]
		}
		for s := 0; s < S; s++ {
			fire(s)
			for _, k := range touched {
				leaves[k][s] = row[k]
				row[k] = bdd.False
			}
			if bm.NumNodes() > encodeNodeBudget {
				return nil, nil, false
			}
		}
		// Fold the leaves bottom-up: the last code bit pairs codes
		// i and i+2^(bits-1), and so on up to bit 0 at the top.
		for k, cur := range leaves {
			for l := bits - 1; l >= 0; l-- {
				half := 1 << uint(l)
				x := bm.Var(l)
				for i := 0; i < half; i++ {
					cur[i] = bm.Ite(x, cur[i+half], cur[i])
				}
			}
			F[k] = cur[0]
			if bm.NumNodes() > encodeNodeBudget {
				return nil, nil, false
			}
		}
	}

	vars := make([]aig.Lit, bits+m.NumInputs)
	copy(vars, ffs)
	copy(vars[bits:], ins)
	conv := newBddToAig(bm, g, vars)
	next = make([]aig.Lit, bits)
	for b := range next {
		next[b] = conv.lit(F[b])
	}
	outs = make([]aig.Lit, m.NumOutputs)
	for o := range outs {
		outs[o] = conv.lit(F[bits+o])
	}
	return next, outs, true
}

// encodeViaSOP is the fallback: a sum of products over the transitions,
// with condition BDDs converted to logic individually.
func encodeViaSOP(m *Machine, g *aig.Graph, ins, ffs []aig.Lit, code [][]bool, bits int, enc StateEncoding) (next []aig.Lit, outs []aig.Lit) {
	stateIs := make([]aig.Lit, m.NumStates())
	for s := range stateIs {
		if enc == OneHotState {
			stateIs[s] = ffs[s]
			continue
		}
		terms := make([]aig.Lit, bits)
		for b := 0; b < bits; b++ {
			terms[b] = ffs[b].NotIf(!code[s][b])
		}
		stateIs[s] = g.AndN(terms...)
	}
	conv := newBddToAig(m.Mgr, g, ins)
	nextTerms := make([][]aig.Lit, bits)
	outTerms := make([][]aig.Lit, m.NumOutputs)
	for s := 0; s < m.NumStates(); s++ {
		for _, tr := range m.Trans[s] {
			fire := g.And(stateIs[s], conv.lit(tr.Cond))
			if tr.Dst != DontCare {
				for b := 0; b < bits; b++ {
					if code[tr.Dst][b] {
						nextTerms[b] = append(nextTerms[b], fire)
					}
				}
			}
			for o, v := range tr.Out {
				if v == One {
					outTerms[o] = append(outTerms[o], fire)
				}
			}
		}
	}
	next = make([]aig.Lit, bits)
	for b := range next {
		next[b] = g.OrN(nextTerms[b]...)
	}
	outs = make([]aig.Lit, m.NumOutputs)
	for o := range outs {
		outs[o] = g.OrN(outTerms[o]...)
	}
	return next, outs
}

// bddToAig converts BDD functions into AIG literals, sharing logic
// across calls. The memo is keyed on regular (polarity-stripped)
// nodes: with complement edges a function and its negation share one
// BDD slot, so keying on the raw edge would emit two separate mux
// trees for logic that differs only by an output inverter.
type bddToAig struct {
	mgr  *bdd.Manager
	g    *aig.Graph
	vars []aig.Lit
	memo map[bdd.Node]aig.Lit
}

func newBddToAig(mgr *bdd.Manager, g *aig.Graph, vars []aig.Lit) *bddToAig {
	return &bddToAig{mgr: mgr, g: g, vars: vars,
		memo: map[bdd.Node]aig.Lit{bdd.False: aig.Const0}}
}

func (c *bddToAig) lit(f bdd.Node) aig.Lit {
	if reg := bdd.Regular(f); reg != f {
		return c.lit(reg).Not()
	}
	if l, ok := c.memo[f]; ok {
		return l
	}
	v := c.mgr.TopVar(f)
	hi := c.lit(c.mgr.Hi(f))
	lo := c.lit(c.mgr.Lo(f))
	l := c.g.Mux(c.vars[v], hi, lo)
	c.memo[f] = l
	return l
}
