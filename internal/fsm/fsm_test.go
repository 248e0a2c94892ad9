package fsm

import (
	"math/rand"
	"testing"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
)

// lastBit builds the 2-state "remember the last input bit" machine:
// output = previous input, states track the stored bit.
func lastBit() *Machine {
	m := bdd.New(1)
	x := m.Var(0)
	nx := m.Not(x)
	return &Machine{
		Mgr: m, NumInputs: 1, NumOutputs: 1, Initial: 0,
		Trans: [][]Transition{
			{{Cond: nx, Out: []Tri{Zero}, Dst: 0}, {Cond: x, Out: []Tri{Zero}, Dst: 1}},
			{{Cond: nx, Out: []Tri{One}, Dst: 0}, {Cond: x, Out: []Tri{One}, Dst: 1}},
		},
	}
}

// redundantLastBit duplicates both states of lastBit.
func redundantLastBit() *Machine {
	m := bdd.New(1)
	x := m.Var(0)
	nx := m.Not(x)
	// States 0,2 behave alike; 1,3 behave alike.
	return &Machine{
		Mgr: m, NumInputs: 1, NumOutputs: 1, Initial: 0,
		Trans: [][]Transition{
			{{Cond: nx, Out: []Tri{Zero}, Dst: 2}, {Cond: x, Out: []Tri{Zero}, Dst: 1}},
			{{Cond: nx, Out: []Tri{One}, Dst: 0}, {Cond: x, Out: []Tri{One}, Dst: 3}},
			{{Cond: nx, Out: []Tri{Zero}, Dst: 0}, {Cond: x, Out: []Tri{Zero}, Dst: 3}},
			{{Cond: nx, Out: []Tri{One}, Dst: 2}, {Cond: x, Out: []Tri{One}, Dst: 1}},
		},
	}
}

func TestValidate(t *testing.T) {
	m := lastBit()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Overlapping conditions must be rejected.
	bad := lastBit()
	bad.Trans[0][1].Cond = bdd.True
	if bad.Validate() == nil {
		t.Fatal("overlap not detected")
	}
	bad2 := lastBit()
	bad2.Trans[0][0].Dst = 9
	if bad2.Validate() == nil {
		t.Fatal("bad destination not detected")
	}
	bad3 := lastBit()
	bad3.Initial = 5
	if bad3.Validate() == nil {
		t.Fatal("bad initial not detected")
	}
}

// TestValidateNamesFirstOverlap pins the overlap error to the first
// earlier transition the overlapping one meets, in transition order.
func TestValidateNamesFirstOverlap(t *testing.T) {
	mgr := bdd.New(3)
	x0, x1, x2 := mgr.Var(0), mgr.Var(1), mgr.Var(2)
	nx0, nx1 := mgr.Not(x0), mgr.Not(x1)
	tr := func(c bdd.Node) Transition { return Transition{Cond: c, Out: []Tri{Zero}, Dst: 0} }
	build := func(last bdd.Node) *Machine {
		return &Machine{
			Mgr: mgr, NumInputs: 3, NumOutputs: 1, Initial: 0,
			Trans: [][]Transition{
				{tr(bdd.True)},
				{tr(x0), tr(mgr.And(nx0, x1)), tr(mgr.And(mgr.And(nx0, nx1), x2)), tr(last)},
			},
		}
	}
	cases := []struct {
		last bdd.Node
		want string
	}{
		// Overlaps transition 1 only.
		{mgr.And(mgr.And(nx0, x1), x2), "fsm: state 1 transitions 1 and 3 overlap"},
		// Overlaps transitions 1 and 2: the first is named.
		{nx0, "fsm: state 1 transitions 1 and 3 overlap"},
		// Overlaps transitions 0 and 2.
		{mgr.And(nx1, x2), "fsm: state 1 transitions 0 and 3 overlap"},
	}
	for _, c := range cases {
		err := build(c.last).Validate()
		if err == nil || err.Error() != c.want {
			t.Fatalf("Validate() = %v, want %q", err, c.want)
		}
	}
	if err := build(mgr.And(mgr.And(nx0, nx1), mgr.Not(x2))).Validate(); err != nil {
		t.Fatalf("disjoint cover rejected: %v", err)
	}
}

// TestValidateManyTransitions validates one state with 4096
// transitions, one per minterm of 12 inputs, each ANDed with the parity
// of 64 more inputs ordered above them. Any two conditions share the
// parity's 128 nodes, so checking every pair of them costs ~8.4e6 Ands
// of ~128 steps each, minutes of CPU; the running union costs one And
// and one Or per transition.
func TestValidateManyTransitions(t *testing.T) {
	const parity, bits = 64, 12
	mgr := bdd.New(parity + bits)
	p := bdd.False
	for i := 0; i < parity; i++ {
		p = mgr.Xor(p, mgr.Var(i))
	}
	ts := make([]Transition, 0, 1<<bits)
	for v := 0; v < 1<<bits; v++ {
		cube := bdd.True
		for i := bits - 1; i >= 0; i-- {
			lit := mgr.Var(parity + i)
			if v>>i&1 == 0 {
				lit = mgr.Not(lit)
			}
			cube = mgr.And(lit, cube)
		}
		ts = append(ts, Transition{Cond: mgr.And(p, cube), Dst: 0})
	}
	m := &Machine{Mgr: mgr, NumInputs: parity + bits, Trans: [][]Transition{ts}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Trans[0] = append(m.Trans[0], Transition{Cond: mgr.Var(parity + 3), Dst: 0})
	if err := m.Validate(); err == nil || err.Error() != "fsm: state 0 transitions 8 and 4096 overlap" {
		t.Fatalf("Validate() = %v, want the overlap with minterm 8", err)
	}
}

func TestSimulate(t *testing.T) {
	m := lastBit()
	stream := [][]bool{{true}, {false}, {true}, {true}}
	out := m.Simulate(stream)
	want := []Tri{Zero, One, Zero, One}
	for i := range want {
		if out[i][0] != want[i] {
			t.Fatalf("step %d: got %v want %v", i, out[i][0], want[i])
		}
	}
}

func TestAtoms(t *testing.T) {
	m := lastBit()
	atoms, err := m.Atoms(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 2 {
		t.Fatalf("atoms = %d, want 2", len(atoms))
	}
	// The atom cap must trigger on a machine with many distinct conds.
	mgr := bdd.New(4)
	var trs []Transition
	full := bdd.True
	for v := 0; v < 4; v++ {
		c := mgr.And(full, mgr.Var(v))
		full = mgr.Diff(full, c)
		trs = append(trs, Transition{Cond: c, Out: []Tri{Zero}, Dst: 0})
	}
	big := &Machine{Mgr: mgr, NumInputs: 4, NumOutputs: 1, Initial: 0, Trans: [][]Transition{trs}}
	if _, err := big.Atoms(2); err == nil {
		t.Fatal("atom cap not enforced")
	}
}

// covers checks that min agrees with orig wherever orig is specified, on
// random input streams.
func covers(t *testing.T, orig, min *Machine, trials, length int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for tr := 0; tr < trials; tr++ {
		stream := make([][]bool, length)
		for i := range stream {
			row := make([]bool, orig.NumInputs)
			for j := range row {
				row[j] = rng.Intn(2) == 1
			}
			stream[i] = row
		}
		wo := orig.Simulate(stream)
		go_ := min.Simulate(stream)
		for i := range wo {
			for o := range wo[i] {
				if wo[i][o] != X && go_[i][o] != wo[i][o] {
					t.Fatalf("trial %d step %d output %d: orig %v minimized %v",
						tr, i, o, wo[i][o], go_[i][o])
				}
			}
		}
	}
}

func TestMinimizeRedundant(t *testing.T) {
	m := redundantLastBit()
	mm, _, err := Minimize(m, DefaultMinimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mm.NumStates() != 2 {
		t.Fatalf("minimized to %d states, want 2", mm.NumStates())
	}
	covers(t, m, mm, 50, 12, 1)
}

func TestMinimizeAlreadyMinimal(t *testing.T) {
	m := lastBit()
	mm, _, err := Minimize(m, DefaultMinimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mm.NumStates() != 2 {
		t.Fatalf("minimal machine grew or shrank: %d states", mm.NumStates())
	}
	covers(t, m, mm, 50, 10, 2)
}

func TestMinimizeExploitsDontCares(t *testing.T) {
	// Two states whose outputs only differ where one is unspecified, and
	// whose successors close within the merged class: they collapse to 1.
	mgr := bdd.New(1)
	x := mgr.Var(0)
	nx := mgr.Not(x)
	m := &Machine{
		Mgr: mgr, NumInputs: 1, NumOutputs: 1, Initial: 0,
		Trans: [][]Transition{
			{{Cond: x, Out: []Tri{Zero}, Dst: 0}, {Cond: nx, Out: []Tri{One}, Dst: 0}},
			{{Cond: x, Out: []Tri{Zero}, Dst: 1}, {Cond: nx, Out: []Tri{X}, Dst: 0}},
		},
	}
	mm, _, err := Minimize(m, DefaultMinimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mm.NumStates() != 1 {
		t.Fatalf("minimized to %d states, want 1", mm.NumStates())
	}
	covers(t, m, mm, 80, 10, 3)
}

func TestMinimizeIncompatibleStates(t *testing.T) {
	// Completely specified machine with distinct outputs per state: no
	// reduction possible below the incompatibility clique.
	mgr := bdd.New(1)
	m := &Machine{
		Mgr: mgr, NumInputs: 1, NumOutputs: 2, Initial: 0,
		Trans: [][]Transition{
			{{Cond: bdd.True, Out: []Tri{Zero, Zero}, Dst: 1}},
			{{Cond: bdd.True, Out: []Tri{Zero, One}, Dst: 2}},
			{{Cond: bdd.True, Out: []Tri{One, Zero}, Dst: 0}},
		},
	}
	mm, _, err := Minimize(m, DefaultMinimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mm.NumStates() != 3 {
		t.Fatalf("minimized to %d states, want 3", mm.NumStates())
	}
	covers(t, m, mm, 40, 9, 4)
}

func TestMinimizeDontCareDestination(t *testing.T) {
	// A terminal frame state with a don't-care destination minimizes
	// without error and keeps covering behavior.
	mgr := bdd.New(1)
	x := mgr.Var(0)
	nx := mgr.Not(x)
	m := &Machine{
		Mgr: mgr, NumInputs: 1, NumOutputs: 1, Initial: 0,
		Trans: [][]Transition{
			{{Cond: x, Out: []Tri{One}, Dst: 1}, {Cond: nx, Out: []Tri{Zero}, Dst: 1}},
			{{Cond: bdd.True, Out: []Tri{One}, Dst: DontCare}},
		},
	}
	mm, _, err := Minimize(m, DefaultMinimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mm.NumStates() > 2 {
		t.Fatalf("minimized to %d states, want <= 2", mm.NumStates())
	}
	covers(t, m, mm, 40, 6, 5)
}

func TestEncodeBothEncodings(t *testing.T) {
	for _, enc := range []StateEncoding{NaturalBinary, OneHotState} {
		m := lastBit()
		c, err := Encode(m, enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		wantFF := 1
		if enc == OneHotState {
			wantFF = 2
		}
		if c.NumLatches() != wantFF {
			t.Fatalf("%v: %d latches, want %d", enc, c.NumLatches(), wantFF)
		}
		// Circuit behavior must match the machine on random streams.
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 30; trial++ {
			stream := make([][]bool, 8)
			for i := range stream {
				stream[i] = []bool{rng.Intn(2) == 1}
			}
			mo := m.Simulate(stream)
			co := c.Simulate(stream)
			for i := range mo {
				if mo[i][0] != X && (co[i][0] != (mo[i][0] == One)) {
					t.Fatalf("%v trial %d step %d: machine %v circuit %v",
						enc, trial, i, mo[i][0], co[i][0])
				}
			}
		}
	}
}

func TestEncodeResolvesDontCares(t *testing.T) {
	mgr := bdd.New(2)
	x0 := mgr.Var(0)
	m := &Machine{
		Mgr: mgr, NumInputs: 2, NumOutputs: 1, Initial: 0,
		Trans: [][]Transition{
			{{Cond: x0, Out: []Tri{X}, Dst: DontCare}, {Cond: mgr.Not(x0), Out: []Tri{One}, Dst: 0}},
		},
	}
	c, err := Encode(m, NaturalBinary)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.Step(make([]bool, c.NumLatches()), []bool{true, false})
	if out[0] {
		t.Fatal("don't-care output should resolve to 0")
	}
	out, _ = c.Step(make([]bool, c.NumLatches()), []bool{false, false})
	if !out[0] {
		t.Fatal("specified output lost")
	}
}

func TestMachineCounters(t *testing.T) {
	m := redundantLastBit()
	if m.NumStates() != 4 || m.NumTransitions() != 8 {
		t.Fatalf("counters wrong: %d states %d transitions", m.NumStates(), m.NumTransitions())
	}
	if Zero.String() != "0" || One.String() != "1" || X.String() != "-" {
		t.Fatal("Tri strings wrong")
	}
	if NaturalBinary.String() != "nat" || OneHotState.String() != "1hot" {
		t.Fatal("encoding strings wrong")
	}
}

func TestLookup(t *testing.T) {
	m := lastBit()
	tr, ok := m.Lookup(0, []bool{true})
	if !ok || tr.Dst != 1 {
		t.Fatalf("lookup wrong: %v %v", tr, ok)
	}
	// A machine with an uncovered input region.
	mgr := bdd.New(1)
	p := &Machine{Mgr: mgr, NumInputs: 1, NumOutputs: 1, Initial: 0,
		Trans: [][]Transition{{{Cond: mgr.Var(0), Out: []Tri{One}, Dst: 0}}}}
	if _, ok := p.Lookup(0, []bool{false}); ok {
		t.Fatal("uncovered input should not match")
	}
}

func TestEncodeSOPFallbackMatchesBDDPath(t *testing.T) {
	for _, enc := range []StateEncoding{NaturalBinary, OneHotState} {
		m := redundantLastBit()
		viaBDD, err := Encode(m, enc)
		if err != nil {
			t.Fatal(err)
		}
		restore := SetEncodeNodeBudgetForTest(1) // force the SOP fallback
		viaSOP, err := Encode(m, enc)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 40; trial++ {
			stream := make([][]bool, 8)
			for i := range stream {
				stream[i] = []bool{rng.Intn(2) == 1}
			}
			a := viaBDD.Simulate(stream)
			b := viaSOP.Simulate(stream)
			for i := range a {
				if a[i][0] != b[i][0] {
					t.Fatalf("%v: SOP and BDD encodings disagree at step %d", enc, i)
				}
			}
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(&Machine{Mgr: bdd.New(1)}, NaturalBinary); err == nil {
		t.Fatal("empty machine should fail")
	}
	m := lastBit()
	if _, err := Encode(m, StateEncoding(99)); err == nil {
		t.Fatal("unknown encoding should fail")
	}
}

// TestEncodeSharesComplementConditions pins the complement-edge
// contract of the BDD-to-AIG converter: a function and its negation
// share one BDD slot, so converting both must reuse one mux tree plus
// an inverter — structural equality of conditions is decided on the
// regular node and the polarity, never on raw Node equality.
func TestEncodeSharesComplementConditions(t *testing.T) {
	mgr := bdd.New(3)
	g := aig.New()
	vars := []aig.Lit{g.PI("x0"), g.PI("x1"), g.PI("x2")}
	conv := newBddToAig(mgr, g, vars)

	f := mgr.And(mgr.Xor(mgr.Var(0), mgr.Var(1)), mgr.Var(2))
	l := conv.lit(f)
	before := g.NumAnds()
	nl := conv.lit(mgr.Not(f))
	if nl != l.Not() {
		t.Fatalf("lit(NOT f) = %v, want %v", nl, l.Not())
	}
	if g.NumAnds() != before {
		t.Fatalf("converting the complement added %d ands, want 0", g.NumAnds()-before)
	}
	// Terminals resolve through the same polarity rule.
	if conv.lit(bdd.True) != conv.lit(bdd.False).Not() {
		t.Fatal("terminal literals are not complements")
	}
}

// TestEncodeComplementOutputs runs a machine whose transitions use a
// condition and its complement — the regression shape for a fold whose
// output is the complement of a shared node — through both encodings
// and checks circuit behavior against machine simulation.
func TestEncodeComplementOutputs(t *testing.T) {
	mgr := bdd.New(2)
	f := mgr.Xor(mgr.Var(0), mgr.Var(1))
	nf := mgr.Not(f)
	m := &Machine{
		Mgr: mgr, NumInputs: 2, NumOutputs: 1, Initial: 0,
		Trans: [][]Transition{
			{{Cond: f, Out: []Tri{One}, Dst: 0}, {Cond: nf, Out: []Tri{Zero}, Dst: 1}},
			{{Cond: f, Out: []Tri{Zero}, Dst: 1}, {Cond: nf, Out: []Tri{One}, Dst: 0}},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, enc := range []StateEncoding{NaturalBinary, OneHotState} {
		c, err := Encode(m, enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 20; trial++ {
			stream := make([][]bool, 6)
			for i := range stream {
				stream[i] = []bool{rng.Intn(2) == 1, rng.Intn(2) == 1}
			}
			mo := m.Simulate(stream)
			co := c.Simulate(stream)
			for i := range mo {
				if mo[i][0] != X && (co[i][0] != (mo[i][0] == One)) {
					t.Fatalf("%v trial %d step %d: machine %v circuit %v",
						enc, trial, i, mo[i][0], co[i][0])
				}
			}
		}
	}
}
