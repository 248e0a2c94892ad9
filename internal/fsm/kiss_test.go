package fsm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"circuitfold/internal/bdd"
)

func TestKISSRoundTrip(t *testing.T) {
	m := lastBit()
	var buf bytes.Buffer
	if err := WriteKISS(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadKISS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumStates() != 2 || back.NumInputs != 1 || back.NumOutputs != 1 {
		t.Fatalf("shape lost: %d states %d in %d out",
			back.NumStates(), back.NumInputs, back.NumOutputs)
	}
	covers(t, m, back, 40, 10, 1)
	covers(t, back, m, 40, 10, 2)
}

func TestKISSRoundTripWithDontCares(t *testing.T) {
	mgr := bdd.New(2)
	x0, x1 := mgr.Var(0), mgr.Var(1)
	m := &Machine{
		Mgr: mgr, NumInputs: 2, NumOutputs: 2, Initial: 0,
		Trans: [][]Transition{
			{
				{Cond: mgr.And(x0, x1), Out: []Tri{One, X}, Dst: 1},
				{Cond: mgr.Not(mgr.Or(x0, x1)), Out: []Tri{Zero, Zero}, Dst: DontCare},
			},
			{{Cond: bdd.True, Out: []Tri{X, One}, Dst: 0}},
		},
	}
	var buf bytes.Buffer
	if err := WriteKISS(&buf, m); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "*") {
		t.Fatalf("don't-care destination not written:\n%s", text)
	}
	back, err := ReadKISS(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	covers(t, m, back, 60, 8, 3)
}

func TestKISSCubeExpansion(t *testing.T) {
	mgr := bdd.New(3)
	// x0 OR x2 has a 2-cube cover along BDD paths.
	f := mgr.Or(mgr.Var(0), mgr.Var(2))
	cubes := Cubes(mgr, f, 3)
	if len(cubes) == 0 {
		t.Fatal("no cubes")
	}
	// Every cube must satisfy f; together they must cover it exactly.
	covered := bdd.False
	for _, c := range cubes {
		cond := bdd.True
		for i, ch := range c {
			switch ch {
			case '0':
				cond = mgr.And(cond, mgr.NVar(i))
			case '1':
				cond = mgr.And(cond, mgr.Var(i))
			}
		}
		if mgr.And(cond, mgr.Not(f)) != bdd.False {
			t.Fatalf("cube %s leaves f", c)
		}
		covered = mgr.Or(covered, cond)
	}
	if covered != f {
		t.Fatal("cubes do not cover f")
	}
}

func TestReadKISSHandwritten(t *testing.T) {
	src := `
# a 2-state toggle
.i 1
.o 1
.p 4
.s 2
.r A
0 A A 0
1 A B 1
0 B B 1
1 B A 0
.e
`
	m, err := ReadKISS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 2 || m.Initial != 0 {
		t.Fatalf("parse wrong: %d states initial %d", m.NumStates(), m.Initial)
	}
	out := m.Simulate([][]bool{{true}, {false}, {true}})
	want := []Tri{One, One, Zero}
	for i := range want {
		if out[i][0] != want[i] {
			t.Fatalf("step %d: %v want %v", i, out[i][0], want[i])
		}
	}
}

func TestReadKISSErrors(t *testing.T) {
	if _, err := ReadKISS(strings.NewReader(".i 2\n.o 1\n0 A B 1\n")); err == nil {
		t.Fatal("cube width mismatch should fail")
	}
	if _, err := ReadKISS(strings.NewReader(".i 1\n.o 1\n0 A\n")); err == nil {
		t.Fatal("malformed row should fail")
	}
	if _, err := ReadKISS(strings.NewReader(".i 1\n.o 1\nq A B 1\n")); err == nil {
		t.Fatal("bad cube char should fail")
	}
}

func TestKISSMinimizeInterop(t *testing.T) {
	// Export, re-import, minimize: the classic MeMin flow.
	m := redundantLastBit()
	var buf bytes.Buffer
	if err := WriteKISS(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadKISS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mm, _, err := Minimize(back, DefaultMinimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mm.NumStates() != 2 {
		t.Fatalf("minimized to %d states, want 2", mm.NumStates())
	}
	rng := rand.New(rand.NewSource(4))
	_ = rng
	covers(t, m, mm, 50, 10, 4)
}

// TestKISSMinimizeAdder3 reads the running example's serial-adder
// machine (state = carry) from KISS and minimizes it with the default
// bounds: its two states are incompatible, so it stays at two.
func TestKISSMinimizeAdder3(t *testing.T) {
	src := `
.i 2
.o 2
.r A
00 A A 00
11 A B 00
01 A A 10
10 A A 10
00 B A 10
11 B B 10
01 B B 00
10 B B 00
.e
`
	m, err := ReadKISS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	mm, _, err := Minimize(m, DefaultMinimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mm.NumStates() != 2 {
		t.Fatalf("minimized to %d states, want 2", mm.NumStates())
	}
	covers(t, m, mm, 50, 10, 5)
}

func TestWriteDOT(t *testing.T) {
	m := lastBit()
	var buf bytes.Buffer
	if err := WriteDOT(&buf, m, "lastbit"); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, want := range []string{"digraph", "init -> s0", "s0 -> s1", "1/0"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
