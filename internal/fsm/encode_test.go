package fsm

import (
	"fmt"
	"math/rand"
	"testing"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
	"circuitfold/internal/seq"
)

// referenceEncode is Encode with the per-transition BDD construction it
// replaced: every transition ORs (state cube AND condition) into each
// full next-state and output BDD. Encode's per-state synthesis must
// build the same canonical BDDs, and so the same AIG, node for node.
func referenceEncode(m *Machine, enc StateEncoding) *seq.Circuit {
	S := m.NumStates()
	g := aig.New()
	ins := make([]aig.Lit, m.NumInputs)
	for i := range ins {
		ins[i] = g.PI(fmt.Sprintf("x%d", i))
	}
	bits := S
	if enc == NaturalBinary {
		bits = 1
		for 1<<uint(bits) < S {
			bits++
		}
	}
	ffs := make([]aig.Lit, bits)
	for i := range ffs {
		ffs[i] = g.PI("")
	}
	code := make([][]bool, S)
	for s := range code {
		code[s] = make([]bool, bits)
		for b := 0; b < bits; b++ {
			if enc == OneHotState {
				code[s][b] = b == s
			} else {
				code[s][b] = s>>uint(b)&1 == 1
			}
		}
	}

	bm := bdd.New(bits + m.NumInputs)
	varMap := make([]int, m.NumInputs)
	for j := range varMap {
		varMap[j] = bits + j
	}
	tr := bdd.NewTranslator(m.Mgr, bm, varMap)
	cube := make([]bdd.Node, S)
	for s := range cube {
		if enc == OneHotState {
			cube[s] = bm.Var(s)
			continue
		}
		c := bdd.True
		for b := 0; b < bits; b++ {
			v := bm.Var(b)
			if !code[s][b] {
				v = bm.NVar(b)
			}
			c = bm.And(c, v)
		}
		cube[s] = c
	}
	nextF := make([]bdd.Node, bits)
	outF := make([]bdd.Node, m.NumOutputs)
	for s := 0; s < S; s++ {
		for _, t := range m.Trans[s] {
			fire := bm.And(cube[s], tr.Translate(t.Cond))
			if t.Dst != DontCare {
				for b := 0; b < bits; b++ {
					if code[t.Dst][b] {
						nextF[b] = bm.Or(nextF[b], fire)
					}
				}
			}
			for o, v := range t.Out {
				if v == One {
					outF[o] = bm.Or(outF[o], fire)
				}
			}
		}
	}
	vars := append(append([]aig.Lit(nil), ffs...), ins...)
	conv := newBddToAig(bm, g, vars)
	next := make([]aig.Lit, bits)
	for b := range next {
		next[b] = conv.lit(nextF[b])
	}
	for o, f := range outF {
		g.AddPO(conv.lit(f), fmt.Sprintf("y%d", o))
	}
	return &seq.Circuit{G: g, NumInputs: m.NumInputs, Next: next,
		Init: append([]bool(nil), code[m.Initial]...)}
}

// sameCircuit reports the first structural difference between two
// sequential circuits: node table, outputs, next-state literals, reset
// values.
func sameCircuit(a, b *seq.Circuit) error {
	ga, gb := a.G, b.G
	if a.NumInputs != b.NumInputs || ga.NumNodes() != gb.NumNodes() ||
		ga.NumPIs() != gb.NumPIs() || ga.NumPOs() != gb.NumPOs() || len(a.Next) != len(b.Next) {
		return fmt.Errorf("shape: %v/%d latches vs %v/%d latches", ga, len(a.Next), gb, len(b.Next))
	}
	for id := 1; id < ga.NumNodes(); id++ {
		if ga.IsAnd(id) != gb.IsAnd(id) {
			return fmt.Errorf("node %d kind differs", id)
		}
		if !ga.IsAnd(id) {
			continue
		}
		a0, a1 := ga.Fanins(id)
		b0, b1 := gb.Fanins(id)
		if a0 != b0 || a1 != b1 {
			return fmt.Errorf("node %d fanins (%v, %v) vs (%v, %v)", id, a0, a1, b0, b1)
		}
	}
	for i := 0; i < ga.NumPOs(); i++ {
		if ga.PO(i) != gb.PO(i) || ga.POName(i) != gb.POName(i) {
			return fmt.Errorf("output %d differs", i)
		}
	}
	for i := range a.Next {
		if a.Next[i] != b.Next[i] || a.Init[i] != b.Init[i] {
			return fmt.Errorf("latch %d differs", i)
		}
	}
	return nil
}

// randomMachine draws a machine with the given shape: per state up to
// four transitions with pairwise-disjoint random conditions (the last
// may leave inputs uncovered), DontCare successors and X outputs mixed
// in.
func randomMachine(rng *rand.Rand, states, inputs, outputs int) *Machine {
	mgr := bdd.New(inputs)
	lit := func() bdd.Node {
		if inputs == 0 {
			return bdd.True
		}
		v := mgr.Var(rng.Intn(inputs))
		if rng.Intn(2) == 0 {
			v = mgr.Not(v)
		}
		return v
	}
	randFunc := func() bdd.Node {
		f := lit()
		for k := rng.Intn(5); k > 0; k-- {
			switch rng.Intn(3) {
			case 0:
				f = mgr.And(f, lit())
			case 1:
				f = mgr.Or(f, lit())
			default:
				f = mgr.Xor(f, lit())
			}
		}
		return f
	}
	m := &Machine{Mgr: mgr, NumInputs: inputs, NumOutputs: outputs,
		Initial: rng.Intn(states), Trans: make([][]Transition, states)}
	for s := range m.Trans {
		free := bdd.True
		for k := rng.Intn(5); k > 0 && free != bdd.False; k-- {
			cond := free
			if k > 1 || rng.Intn(2) == 0 {
				cond = mgr.And(free, randFunc())
			}
			if cond == bdd.False {
				continue
			}
			free = mgr.Diff(free, cond)
			out := make([]Tri, outputs)
			for o := range out {
				out[o] = Tri(rng.Intn(3) - 1)
			}
			dst := DontCare
			if rng.Intn(4) != 0 {
				dst = rng.Intn(states)
			}
			m.Trans[s] = append(m.Trans[s], Transition{Cond: cond, Out: out, Dst: dst})
		}
	}
	return m
}

// simEqual compares two encodings of one machine as combinational
// functions of (inputs, state bits) on random words: every output and
// next-state bit must agree.
func simEqual(rng *rand.Rand, a, b *seq.Circuit) error {
	for round := 0; round < 4; round++ {
		state := make([]uint64, len(a.Next))
		for i := range state {
			state[i] = rng.Uint64()
		}
		in := make([]uint64, a.NumInputs)
		for i := range in {
			in[i] = rng.Uint64()
		}
		ao, an := a.StepWords(state, in)
		bo, bn := b.StepWords(state, in)
		for i := range ao {
			if ao[i] != bo[i] {
				return fmt.Errorf("output %d differs", i)
			}
		}
		for i := range an {
			if an[i] != bn[i] {
				return fmt.Errorf("next-state bit %d differs", i)
			}
		}
	}
	return nil
}

// FuzzEncode checks Encode on random machines (1-40 states, 0-6
// inputs, 0-4 outputs) against the per-transition reference for both
// encodings, and the sum-of-products fallback (forced by a one-node
// budget) against the BDD path by simulation.
func FuzzEncode(f *testing.F) {
	for _, seed := range [][4]int{{1, 1, 0, 0}, {2, 5, 3, 2}, {3, 40, 6, 4}, {4, 17, 2, 1}, {5, 33, 6, 0}, {6, 9, 0, 4}} {
		f.Add(int64(seed[0]), uint8(seed[1]), uint8(seed[2]), uint8(seed[3]))
	}
	f.Fuzz(func(t *testing.T, seed int64, states, inputs, outputs uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := randomMachine(rng, 1+int(states)%40, int(inputs)%7, int(outputs)%5)
		for _, enc := range []StateEncoding{NaturalBinary, OneHotState} {
			got, err := Encode(m, enc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCircuit(got, referenceEncode(m, enc)); err != nil {
				t.Fatalf("%v: Encode differs from the per-transition reference: %v", enc, err)
			}
			restore := SetEncodeNodeBudgetForTest(1)
			sop, err := Encode(m, enc)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if err := simEqual(rng, got, sop); err != nil {
				t.Fatalf("%v: SOP fallback and BDD path disagree: %v", enc, err)
			}
		}
	})
}
