package circuitfold

// Engine benchmarks: the TDM model, ablation benches for the design
// choices DESIGN.md calls out, and per-stage timings of the functional
// engine. The paper-artifact benches (Tables I-III, the simple baseline,
// the i10 case study, Figure 7) live beside the experiment harness in
// internal/exp.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
	"circuitfold/internal/core"
	"circuitfold/internal/fsm"
	"circuitfold/internal/gen"
	"circuitfold/internal/lutmap"
	"circuitfold/internal/part"
	"circuitfold/internal/sat"
	"circuitfold/internal/tdm"
)

// BenchmarkTDMModel times the Figure 1 TDM transmission model.
func BenchmarkTDMModel(b *testing.B) {
	l := tdm.Link{Pins: 200, Ratio: 4}
	for i := 0; i < b.N; i++ {
		if got := l.IOCyclesToTransmit(1600); got != 8 {
			b.Fatalf("cycles = %d", got)
		}
		_ = l.TransmitSchedule(1600)
	}
}

// --- ablation benches --------------------------------------------------

// BenchmarkAblationCounterEncoding compares the structural method's
// binary counter against the one-hot shift register (Section IV's two
// control options).
func BenchmarkAblationCounterEncoding(b *testing.B) {
	g := gen.MustBuild("i10")
	for _, enc := range []core.Encoding{core.Binary, core.OneHot} {
		b.Run(enc.String(), func(b *testing.B) {
			var ffs int
			for i := 0; i < b.N; i++ {
				r, err := core.StructuralFold(g, 4, core.StructuralOptions{Counter: enc})
				if err != nil {
					b.Fatal(err)
				}
				ffs = r.FlipFlops()
			}
			b.ReportMetric(float64(ffs), "FFs")
		})
	}
}

// BenchmarkAblationStateEncoding compares natural-binary and one-hot
// state encodings of the functional method (Section V-C).
func BenchmarkAblationStateEncoding(b *testing.B) {
	g := gen.MustBuild("e64")
	for _, enc := range []core.Encoding{core.Binary, core.OneHot} {
		b.Run(enc.String(), func(b *testing.B) {
			opt := core.DefaultFunctionalOptions()
			opt.StateEnc = enc
			var luts int
			for i := 0; i < b.N; i++ {
				r, err := core.FunctionalFold(g, 8, opt)
				if err != nil {
					b.Fatal(err)
				}
				luts, _ = lutmap.Count(r.Seq.G, 6)
			}
			b.ReportMetric(float64(luts), "LUTs")
		})
	}
}

// BenchmarkAblationReorder compares functional folding with and without
// the BDD symmetric-sifting input reordering (Algorithm 2, line 4).
func BenchmarkAblationReorder(b *testing.B) {
	g := gen.MustBuild("i2")
	for _, reorder := range []bool{false, true} {
		name := "nr"
		if reorder {
			name = "r"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultFunctionalOptions()
			opt.Reorder = reorder
			opt.Minimize = false
			var states int
			for i := 0; i < b.N; i++ {
				r, err := core.FunctionalFold(g, 8, opt)
				if err != nil {
					b.Fatal(err)
				}
				states = r.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkAblationMinimize compares functional folding with and without
// MeMin state minimization (m/nm of Table III).
func BenchmarkAblationMinimize(b *testing.B) {
	g := gen.MustBuild("64-adder")
	for _, min := range []bool{false, true} {
		name := "nm"
		if min {
			name = "m"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultFunctionalOptions()
			opt.Minimize = min
			opt.StateEnc = core.Binary
			var ffs int
			for i := 0; i < b.N; i++ {
				r, err := core.FunctionalFold(g, 16, opt)
				if err != nil {
					b.Fatal(err)
				}
				ffs = r.FlipFlops()
			}
			b.ReportMetric(float64(ffs), "FFs")
		})
	}
}

// --- substrate micro-benches --------------------------------------------

// BenchmarkStructuralFold measures raw structural folding throughput on
// a mid-size circuit (the paper reports sub-second runtimes).
func BenchmarkStructuralFold(b *testing.B) {
	g := gen.MustBuild("b14_C")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.StructuralFold(g, 2, core.StructuralOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalFold measures the full functional pipeline on the
// adder3 running example.
func BenchmarkFunctionalFold(b *testing.B) {
	g := gen.MustBuild("adder3")
	opt := core.DefaultFunctionalOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FunctionalFold(g, 3, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldParallel folds the paper's 64-adder functionally at
// T=16 with four frame workers — the parallel time-frame-folding path
// end to end (schedule, worker-arena clones, concurrent refinement,
// deterministic merge). Run under -race (make bench-fold-smoke) this is
// the PR gate that the parallel fold stays race-clean; the states
// check pins the folded machine to the known 64-adder result, which is
// bit-identical for every worker count.
func BenchmarkFoldParallel(b *testing.B) {
	g := gen.MustBuild("64-adder")
	for i := 0; i < b.N; i++ {
		sched, err := core.PinSchedule(g, 16, core.ScheduleOptions{Reorder: true})
		if err != nil {
			b.Fatal(err)
		}
		_, states, err := core.TimeFrameFold(g, sched, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		if states != 32 {
			b.Fatalf("64-adder T=16 folded to %d states, want 32", states)
		}
	}
}

// BenchmarkLUTMapping measures the 6-LUT mapper on a Table I circuit.
func BenchmarkLUTMapping(b *testing.B) {
	g := gen.MustBuild("b15_C")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := lutmap.Map(g, lutmap.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if m.LUTs == 0 {
			b.Fatal("empty mapping")
		}
	}
}

// BenchmarkUnrollEquivalence measures the verification path: fold, unroll
// by T, simulate against the original.
func BenchmarkUnrollEquivalence(b *testing.B) {
	g := gen.MustBuild("64-adder")
	r, err := core.StructuralFold(g, 4, core.StructuralOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := r.Seq.Unroll(r.T)
		if u.NumPOs() != r.T*r.Seq.NumOutputs() {
			b.Fatal("unroll shape wrong")
		}
	}
}

// BenchmarkHybridFold times the combined method (the paper's future
// work) on i3, whose six disjoint output cones cluster ideally.
func BenchmarkHybridFold(b *testing.B) {
	g := gen.MustBuild("i3")
	opt := core.DefaultHybridOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.HybridFold(g, 4, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.FlipFlops()), "FFs")
		}
	}
}

// BenchmarkFMPartition times the multi-FPGA bipartitioner from the
// introduction's motivating scenario.
func BenchmarkFMPartition(b *testing.B) {
	g := gen.MustBuild("b14_C")
	h, _ := part.FromAIG(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := part.FM(h, part.Options{Seed: int64(i)})
		if bp.Cut <= 0 {
			b.Fatal("no cut")
		}
		if i == 0 {
			b.ReportMetric(float64(bp.Cut), "cut-nets")
		}
	}
}

// BenchmarkBDDSifting times the reordering engine on an interleaving-
// sensitive function (the workload behind Algorithm 2).
func BenchmarkBDDSifting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bdd.New(16)
		f := bdd.True
		for j := 0; j < 8; j++ {
			f = m.And(f, m.Xnor(m.Var(j), m.Var(8+j)))
		}
		before := m.NodeCount(f)
		after := m.Sift([]bdd.Node{f}, 0, 15)
		if after >= before {
			b.Fatalf("sift did not reduce: %d -> %d", before, after)
		}
	}
}

// BenchmarkSATSolver times the CDCL solver on a hard-but-feasible
// pigeonhole instance.
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		n := 7
		p := make([][]int, n+1)
		for j := range p {
			p[j] = make([]int, n)
			for k := range p[j] {
				p[j][k] = s.NewVar()
			}
		}
		for j := 0; j <= n; j++ {
			cl := make([]sat.Lit, n)
			for k := 0; k < n; k++ {
				cl[k] = sat.MkLit(p[j][k], false)
			}
			s.AddClause(cl...)
		}
		for k := 0; k < n; k++ {
			for a := 0; a <= n; a++ {
				for c := a + 1; c <= n; c++ {
					s.AddClause(sat.MkLit(p[a][k], true), sat.MkLit(p[c][k], true))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP should be UNSAT")
		}
	}
}

// BenchmarkMeMin times exact state minimization on a KISS-style machine.
func BenchmarkMeMin(b *testing.B) {
	g := gen.MustBuild("adder3")
	sched, err := core.PinSchedule(g, 3, core.ScheduleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	machine, _, err := core.TimeFrameFold(g, sched, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm, _, err := fsm.Minimize(machine, fsm.DefaultMinimizeOptions())
		if err != nil {
			b.Fatal(err)
		}
		if mm.NumStates() != 2 {
			b.Fatalf("states = %d", mm.NumStates())
		}
	}
}

// BenchmarkMinimizeTable3 times fsm.Minimize alone on the time-frame
// folded machine of every minimize configuration foldbench's
// table3-functional workload runs (r/nr = input reordering on/off), so
// the MeMin layer can be measured without the fold service around it.
func BenchmarkMinimizeTable3(b *testing.B) {
	for _, c := range []struct {
		circuit string
		T       int
	}{{"arbiter", 16}, {"arbiter", 4}, {"e64", 16}, {"e64", 4}, {"i2", 16}, {"i3", 8}, {"i6", 16}} {
		for _, reorder := range []bool{false, true} {
			name := fmt.Sprintf("%s/T=%d/nr", c.circuit, c.T)
			if reorder {
				name = fmt.Sprintf("%s/T=%d/r", c.circuit, c.T)
			}
			b.Run(name, func(b *testing.B) {
				g := gen.MustBuild(c.circuit)
				sched, err := core.PinSchedule(g, c.T, core.ScheduleOptions{Reorder: reorder})
				if err != nil {
					b.Fatal(err)
				}
				machine, _, err := core.TimeFrameFold(g, sched, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := fsm.Minimize(machine, fsm.DefaultMinimizeOptions()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// table3EngineCases are the heavy table3-functional configurations the
// tff and encode benchmarks time (reordering off).
var table3EngineCases = []struct {
	circuit string
	T       int
	encs    []fsm.StateEncoding
}{
	{"i7", 16, []fsm.StateEncoding{fsm.NaturalBinary}},
	{"toolarge", 16, []fsm.StateEncoding{fsm.NaturalBinary, fsm.OneHotState}},
	{"toolarge", 8, []fsm.StateEncoding{fsm.NaturalBinary, fsm.OneHotState}},
	{"apex2", 4, []fsm.StateEncoding{fsm.OneHotState}},
	{"arbiter", 16, []fsm.StateEncoding{fsm.NaturalBinary, fsm.OneHotState}},
	{"64-adder", 16, []fsm.StateEncoding{fsm.NaturalBinary, fsm.OneHotState}},
}

// BenchmarkTFFTable3 times core.TimeFrameFold alone (output-BDD build,
// per-frame cofactor refinement and merge, one worker) on the scheduled
// circuits of table3EngineCases.
func BenchmarkTFFTable3(b *testing.B) {
	for _, c := range table3EngineCases {
		b.Run(fmt.Sprintf("%s/T=%d", c.circuit, c.T), func(b *testing.B) {
			g := gen.MustBuild(c.circuit)
			sched, err := core.PinSchedule(g, c.T, core.ScheduleOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.TimeFrameFold(g, sched, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeTable3 times fsm.Encode alone on the time-frame folded
// machines of table3EngineCases, per state encoding.
func BenchmarkEncodeTable3(b *testing.B) {
	for _, c := range table3EngineCases {
		for _, enc := range c.encs {
			b.Run(fmt.Sprintf("%s/T=%d/%s", c.circuit, c.T, enc), func(b *testing.B) {
				g := gen.MustBuild(c.circuit)
				sched, err := core.PinSchedule(g, c.T, core.ScheduleOptions{})
				if err != nil {
					b.Fatal(err)
				}
				machine, _, err := core.TimeFrameFold(g, sched, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fsm.Encode(machine, enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- sweeping engine benches --------------------------------------------

// sweepBenchGraph is the shared workload of the BenchmarkSweep* family: a
// mid-size random circuit with enough internal sharing for the sweep to
// find real merges.
func sweepBenchGraph() *Circuit {
	return gen.Random(1234, 48, 16, 4000)
}

// BenchmarkSweepWorkers measures the parallel counterexample-guided sweep
// at 1 worker and at GOMAXPROCS workers. The swept result is identical in
// both configurations; on a single-CPU host the two variants necessarily
// time alike (see EXPERIMENTS.md).
func BenchmarkSweepWorkers(b *testing.B) {
	g := sweepBenchGraph()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		opt := aig.DefaultSweepOptions()
		opt.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var st *aig.SweepStats
			for i := 0; i < b.N; i++ {
				_, st = g.SweepWithStats(opt)
			}
			b.ReportMetric(float64(st.SATCalls), "sat-calls")
			b.ReportMetric(float64(st.Merges), "merges")
		})
	}
}

// BenchmarkSweepCEX measures the counterexample-refinement loop against
// the no-refinement baseline on a narrow one-word pattern pool, where
// simulation aliasing makes refinement matter most.
func BenchmarkSweepCEX(b *testing.B) {
	g := sweepBenchGraph()
	for _, cex := range []int{0, 8} {
		opt := aig.DefaultSweepOptions()
		opt.Words = 1
		opt.MaxCEXRounds = cex
		b.Run(fmt.Sprintf("cexRounds=%d", cex), func(b *testing.B) {
			var st *aig.SweepStats
			for i := 0; i < b.N; i++ {
				_, st = g.SweepWithStats(opt)
			}
			b.ReportMetric(float64(st.SATCalls), "sat-calls")
			b.ReportMetric(float64(st.CEXPatterns), "cex-patterns")
			b.ReportMetric(float64(st.Merges), "merges")
		})
	}
}

// BenchmarkSimWordsW measures the levelized multi-word simulation kernel
// in vector throughput (64*W assignments per graph pass).
func BenchmarkSimWordsW(b *testing.B) {
	g := sweepBenchGraph()
	const W = 8
	rng := rand.New(rand.NewSource(5))
	in := make([][]uint64, g.NumPIs())
	for i := range in {
		in[i] = make([]uint64, W)
		for w := range in[i] {
			in[i][w] = rng.Uint64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SimWordsW(in, W)
	}
	vecsPerOp := float64(64 * W)
	b.ReportMetric(vecsPerOp*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
}
