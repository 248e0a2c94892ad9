package circuitfold_test

import (
	"bytes"
	"strings"
	"testing"

	"circuitfold"
)

func buildAdder3(t testing.TB) *circuitfold.Circuit {
	t.Helper()
	g, err := circuitfold.Benchmark("adder3")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicStructural(t *testing.T) {
	g := buildAdder3(t)
	r, err := circuitfold.Structural(g, 3, circuitfold.Options{Counter: circuitfold.OneHot})
	if err != nil {
		t.Fatal(err)
	}
	if r.InputPins() != 2 || r.OutputPins() != 2 || r.FlipFlops() != 5 {
		t.Fatalf("paper Example 1 numbers not reproduced: %d/%d/%d",
			r.InputPins(), r.OutputPins(), r.FlipFlops())
	}
	if err := circuitfold.Verify(g, r, 0); err != nil {
		t.Fatal(err)
	}
	if err := circuitfold.VerifyByUnrolling(g, r, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicFunctional(t *testing.T) {
	g := buildAdder3(t)
	r, err := circuitfold.Functional(g, 3, circuitfold.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.States != 6 || r.StatesMin != 2 {
		t.Fatalf("paper Example 3 states not reproduced: %d/%d", r.States, r.StatesMin)
	}
	if err := circuitfold.Verify(g, r, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSimple(t *testing.T) {
	g := buildAdder3(t)
	r, err := circuitfold.Simple(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := circuitfold.Verify(g, r, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSchedule(t *testing.T) {
	g := buildAdder3(t)
	s, err := circuitfold.PinSchedule(g, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.M != 2 || s.T != 3 {
		t.Fatalf("schedule shape wrong: %+v", s)
	}
}

func TestPublicBenchmarks(t *testing.T) {
	names := circuitfold.Benchmarks()
	if len(names) != 28 {
		t.Fatalf("have %d benchmarks", len(names))
	}
	info, err := circuitfold.LookupBenchmark("voter")
	if err != nil || info.PIs != 1001 {
		t.Fatalf("voter lookup: %v %+v", err, info)
	}
	if _, err := circuitfold.Benchmark("nope"); err == nil {
		t.Fatal("unknown benchmark should fail")
	}
}

func TestPublicIO(t *testing.T) {
	g := buildAdder3(t)
	r, err := circuitfold.Structural(g, 2, circuitfold.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var blif, aag bytes.Buffer
	if err := circuitfold.WriteBLIF(&blif, r.Seq, "folded"); err != nil {
		t.Fatal(err)
	}
	if err := circuitfold.WriteAAG(&aag, r.Seq); err != nil {
		t.Fatal(err)
	}
	c1, err := circuitfold.ReadBLIF(&blif)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := circuitfold.ReadAAG(&aag)
	if err != nil {
		t.Fatal(err)
	}
	if c1.NumLatches() != r.FlipFlops() || c2.NumLatches() != r.FlipFlops() {
		t.Fatal("latches lost in round trip")
	}
	bench := `
INPUT(a)
INPUT(b)
OUTPUT(f)
f = AND(a, b)
`
	c3, err := circuitfold.ReadBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	if c3.NumInputs != 2 {
		t.Fatal("bench parse wrong")
	}
}

func TestPublicLatencyModel(t *testing.T) {
	g, err := circuitfold.Benchmark("i10")
	if err != nil {
		t.Fatal(err)
	}
	// The folded side of the case study (3 cycles) is internal/tdm's
	// TestFoldedCyclesI10CaseStudy.
	if unfolded := circuitfold.UnfoldedIOCycles(g.NumPIs(), g.NumPOs(), 200); unfolded != 4 {
		t.Fatalf("unfolded case study cycles %d, want 4", unfolded)
	}
}

func TestPublicOptimizeAndLUTs(t *testing.T) {
	g := buildAdder3(t)
	o := circuitfold.Optimize(g)
	if o.NumAnds() > g.NumAnds() {
		t.Fatal("optimize grew the circuit")
	}
	luts, err := circuitfold.LUTCount(o, 6)
	if err != nil {
		t.Fatal(err)
	}
	if luts == 0 {
		t.Fatal("adder needs at least one LUT")
	}
}

func TestPublicPartition(t *testing.T) {
	g, err := circuitfold.Benchmark("i10")
	if err != nil {
		t.Fatal(err)
	}
	cut, side, err := circuitfold.Partition(g, circuitfold.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut <= 0 || len(side) == 0 {
		t.Fatalf("partition implausible: cut=%d cells=%d", cut, len(side))
	}
}

func TestPublicDOTAndKISS(t *testing.T) {
	g := buildAdder3(t)
	var dot bytes.Buffer
	if err := circuitfold.WriteDOT(&dot, g, "adder3"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph") {
		t.Fatal("DOT missing header")
	}
	// Build the adder3 FSM via a KISS round trip.
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
	m, err := circuitfold.ReadKISS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var fdot bytes.Buffer
	if err := circuitfold.WriteFSMDOT(&fdot, m, "csa"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fdot.String(), "init ->") {
		t.Fatal("FSM DOT missing initial marker")
	}
	var kiss bytes.Buffer
	if err := circuitfold.WriteKISS(&kiss, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(kiss.String(), ".i 2") {
		t.Fatal("KISS header missing")
	}
}

func TestPublicHybrid(t *testing.T) {
	g := buildAdder3(t)
	r, err := circuitfold.Hybrid(g, 3, circuitfold.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := circuitfold.Verify(g, r, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicVerifyFast(t *testing.T) {
	g, err := circuitfold.Benchmark("64-adder")
	if err != nil {
		t.Fatal(err)
	}
	r, err := circuitfold.Structural(g, 4, circuitfold.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := circuitfold.VerifyFast(g, r, 32); err != nil {
		t.Fatal(err)
	}
}

func TestPublicResynthesize(t *testing.T) {
	g, err := circuitfold.Benchmark("i10")
	if err != nil {
		t.Fatal(err)
	}
	n, err := circuitfold.Resynthesize(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumAnds() > g.NumAnds() {
		t.Fatal("resynthesis grew the circuit")
	}
	// Spot-check functional equivalence.
	in := make([]uint64, g.NumPIs())
	for i := range in {
		in[i] = uint64(i)*0x9e3779b97f4a7c15 + 7
	}
	a, b := g.SimWords(in), n.SimWords(in)
	for o := range a {
		if a[o] != b[o] {
			t.Fatalf("output %d differs", o)
		}
	}
}
