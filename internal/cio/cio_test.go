package cio

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"circuitfold/internal/aig"
	"circuitfold/internal/seq"
)

// randomSeq builds a deterministic random sequential circuit.
func randomSeq(rng *rand.Rand, ins, outs, ffs, ands int) *seq.Circuit {
	g := aig.New()
	var lits []aig.Lit
	for i := 0; i < ins+ffs; i++ {
		lits = append(lits, g.PI(""))
	}
	for i := 0; i < ands; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < outs; i++ {
		g.AddPO(lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0), "")
	}
	next := make([]aig.Lit, ffs)
	init := make([]bool, ffs)
	for i := range next {
		next[i] = lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		init[i] = rng.Intn(2) == 1
	}
	return &seq.Circuit{G: g, NumInputs: ins, Next: next, Init: init}
}

// sameBehavior compares two sequential circuits on random input streams.
func sameBehavior(t *testing.T, a, b *seq.Circuit, trials, length int, seed int64) {
	t.Helper()
	if a.NumInputs != b.NumInputs || a.NumOutputs() != b.NumOutputs() {
		t.Fatalf("interface mismatch: %v vs %v", a, b)
	}
	rng := rand.New(rand.NewSource(seed))
	for tr := 0; tr < trials; tr++ {
		stream := make([][]bool, length)
		for i := range stream {
			row := make([]bool, a.NumInputs)
			for j := range row {
				row[j] = rng.Intn(2) == 1
			}
			stream[i] = row
		}
		oa := a.Simulate(stream)
		ob := b.Simulate(stream)
		for i := range oa {
			for o := range oa[i] {
				if oa[i][o] != ob[i][o] {
					t.Fatalf("trial %d step %d output %d differs", tr, i, o)
				}
			}
		}
	}
}

func TestBLIFRoundTripCombinational(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		c := randomSeq(rng, 6, 4, 0, 30)
		var buf bytes.Buffer
		if err := WriteBLIF(&buf, c, "test"); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBLIF(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		sameBehavior(t, c, back, 20, 1, int64(trial))
	}
}

func TestBLIFRoundTripSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		c := randomSeq(rng, 4, 3, 3, 40)
		var buf bytes.Buffer
		if err := WriteBLIF(&buf, c, "seqtest"); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBLIF(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumLatches() != 3 {
			t.Fatalf("latches lost: %d", back.NumLatches())
		}
		sameBehavior(t, c, back, 20, 8, int64(trial))
	}
}

func TestBLIFConstantsAndInverters(t *testing.T) {
	g := aig.New()
	a := g.PI("a")
	g.AddPO(aig.Const1, "one")
	g.AddPO(aig.Const0, "zero")
	g.AddPO(a.Not(), "nota")
	c := seq.Combinational(g)
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, c, "consts"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBLIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := back.Step(nil, []bool{false})
	if !out[0] || out[1] || !out[2] {
		t.Fatalf("constants wrong: %v", out)
	}
}

func TestReadBLIFDontCareCubes(t *testing.T) {
	src := `
.model dc
.inputs a b c
.outputs f
.names a b c f
1-0 1
01- 1
.end`
	c, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, b, cc, want bool) {
		out, _ := c.Step(nil, []bool{a, b, cc})
		if out[0] != want {
			t.Fatalf("f(%v,%v,%v) = %v, want %v", a, b, cc, out[0], want)
		}
	}
	check(true, false, false, true) // matches 1-0
	check(true, true, false, true)  // matches 1-0
	check(true, true, true, false)  // no cube
	check(false, true, true, true)  // matches 01-
	check(false, false, false, false)
}

func TestReadBLIFErrors(t *testing.T) {
	if _, err := ReadBLIF(strings.NewReader(".model x\n.inputs a\n.outputs f\n.end")); err == nil {
		t.Fatal("undriven output should fail")
	}
	bad := ".model x\n.inputs a\n.outputs f\n.names f g\n1 1\n.names g f\n1 1\n.end"
	if _, err := ReadBLIF(strings.NewReader(bad)); err == nil {
		t.Fatal("combinational cycle should fail")
	}
}

func TestReadBench(t *testing.T) {
	src := `
# small bench
INPUT(a)
INPUT(b)
OUTPUT(f)
OUTPUT(q)
n1 = NAND(a, b)
n2 = XOR(a, n1)
f = NOT(n2)
q = DFF(f)
`
	c, err := ReadBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs != 2 || c.NumOutputs() != 2 || c.NumLatches() != 1 {
		t.Fatalf("shape wrong: %v", c)
	}
	// f = !(a ^ !(a&b)) which simplifies to a & !b.
	eval := func(a, b bool) bool {
		out, _ := c.Step([]bool{false}, []bool{a, b})
		return out[0]
	}
	for _, tc := range []struct{ a, b, want bool }{
		{false, false, false},
		{true, false, true},
		{false, true, false},
		{true, true, false},
	} {
		if eval(tc.a, tc.b) != tc.want {
			t.Fatalf("f(%v,%v) wrong", tc.a, tc.b)
		}
	}
	// DFF pipes f with one cycle delay: f(1,0)=1 shows up on q next cycle.
	outs := c.Simulate([][]bool{{true, false}, {false, false}})
	if outs[0][1] != false || outs[1][1] != true {
		t.Fatalf("dff behavior wrong: %v", outs)
	}
}

func TestReadBenchMultiInputGates(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(f)
f = OR(a, b, c)
`
	c, err := ReadBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.Step(nil, []bool{false, false, true})
	if !out[0] {
		t.Fatal("3-input OR wrong")
	}
}

func TestReadBenchErrors(t *testing.T) {
	if _, err := ReadBench(strings.NewReader("OUTPUT(f)\nf = FROB(a)\nINPUT(a)\n")); err == nil {
		t.Fatal("unknown gate should fail")
	}
	if _, err := ReadBench(strings.NewReader("OUTPUT(f)\n")); err == nil {
		t.Fatal("undriven output should fail")
	}
}

// TestReadDeepChains reads a 1M-deep inverter chain in both gate-level
// formats under a 32 MiB stack cap: the readers build with explicit
// stacks, so an upload's depth costs heap, not goroutine stack.
func TestReadDeepChains(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	const depth = 1 << 20
	for _, tc := range []struct {
		name  string
		read  func(io.Reader) (*seq.Circuit, error)
		chain func(sb *strings.Builder) // writes y = NOT^depth(n0)
	}{
		{"bench", ReadBench, func(sb *strings.Builder) {
			sb.WriteString("INPUT(n0)\nOUTPUT(y)\n")
			for i := 1; i <= depth; i++ {
				fmt.Fprintf(sb, "n%d = NOT(n%d)\n", i, i-1)
			}
			fmt.Fprintf(sb, "y = BUFF(n%d)\n", depth)
		}},
		{"blif", ReadBLIF, func(sb *strings.Builder) {
			sb.WriteString(".model chain\n.inputs n0\n.outputs y\n")
			for i := 1; i <= depth; i++ {
				fmt.Fprintf(sb, ".names n%d n%d\n0 1\n", i-1, i)
			}
			fmt.Fprintf(sb, ".names n%d y\n1 1\n.end\n", depth)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			tc.chain(&sb)
			c, err := tc.read(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatal(err)
			}
			// An even number of inversions: the output is the input.
			if c.G.PO(0) != c.G.PILit(0) {
				t.Fatalf("output %v, want the input %v", c.G.PO(0), c.G.PILit(0))
			}
		})
	}
}

func TestAAGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		c := randomSeq(rng, 5, 4, 2, 30)
		var buf bytes.Buffer
		if err := WriteAAG(&buf, c); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAAG(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		sameBehavior(t, c, back, 20, 8, int64(trial))
	}
}

func TestAAGInitOneLatchNormalization(t *testing.T) {
	// A latch initialized to 1 must survive the init-0 normalization.
	g := aig.New()
	en := g.PI("en")
	s := g.PI("s")
	g.AddPO(s, "q")
	c := &seq.Circuit{G: g, NumInputs: 1, Next: []aig.Lit{g.Xor(s, en)}, Init: []bool{true}}
	var buf bytes.Buffer
	if err := WriteAAG(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameBehavior(t, c, back, 20, 6, 9)
}

func TestAAGNamesPreserved(t *testing.T) {
	g := aig.New()
	a := g.PI("alpha")
	b := g.PI("beta")
	g.AddPO(g.And(a, b), "gamma")
	c := seq.Combinational(g)
	var buf bytes.Buffer
	if err := WriteAAG(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.G.PIName(0) != "alpha" || back.G.POName(0) != "gamma" {
		t.Fatalf("names lost: %q %q", back.G.PIName(0), back.G.POName(0))
	}
}

func TestReadAAGErrors(t *testing.T) {
	if _, err := ReadAAG(strings.NewReader("")); err == nil {
		t.Fatal("empty file should fail")
	}
	if _, err := ReadAAG(strings.NewReader("aag x\n")); err == nil {
		t.Fatal("bad header should fail")
	}
	if _, err := ReadAAG(strings.NewReader("aag 1 1 0 1 0\n2\n")); err == nil {
		t.Fatal("truncated file should fail")
	}
}
