// Package exp regenerates the paper's evaluation artifacts: Table I
// (benchmark statistics), Table II (structural folding under a 200-pin
// cap), the simple-baseline comparison, the i10 latency case study,
// Table III (structural vs functional methods) and Figure 7 (folded vs
// original circuit sizes). Both cmd/experiments and the package's
// benchmarks drive these entry points.
package exp

import (
	"fmt"
	"io"

	"circuitfold/internal/aig"
	"circuitfold/internal/core"
	"circuitfold/internal/gen"
	"circuitfold/internal/lutmap"
	"circuitfold/internal/tdm"
)

// PinLimit is the I/O pin constraint the paper takes from commercial
// FPGA specifications.
const PinLimit = 200

// sweepSizeLimit is the AND-count ceiling for running SAT sweeping as
// part of circuit optimization; beyond it only strash and balance run.
const sweepSizeLimit = 20000

// optimize runs the synthesis pipeline used before reporting sizes.
// Compared with aig.Optimize's defaults, more simulation words prune
// false equivalence candidates, counterexample refinement keeps the SAT
// call count low, and a small per-query budget keeps the sweep from
// dominating the harness runtime.
func optimize(g *aig.Graph) *aig.Graph {
	if g.NumAnds() > sweepSizeLimit {
		return g.Cleanup().Balance()
	}
	return g.Cleanup().Balance().Sweep(aig.SweepOptions{
		Words:          16,
		Workers:        0, // GOMAXPROCS
		MaxCEXRounds:   4,
		ConflictBudget: 300,
		Seed:           1,
	})
}

// luts maps to 6-input LUTs.
func luts(g *aig.Graph) int {
	opt := lutmap.DefaultOptions()
	if g.NumAnds() > sweepSizeLimit {
		opt.CutLimit = 4
		opt.Rounds = 1
	}
	m, err := lutmap.Map(g, opt)
	if err != nil {
		return -1 // K is fixed at 6 here; only a mapper bug reaches this
	}
	return m.LUTs
}

// Table1Row is one line of Table I.
type Table1Row struct {
	Name  string
	PI    int
	PO    int
	Gates int
	LUTs  int
}

// Table1 builds the benchmark statistics table over the named circuits
// (pass nil for the full suite minus adder3, as in the paper).
func Table1(names []string) ([]Table1Row, error) {
	if names == nil {
		names = gen.Names()[1:] // skip the adder3 running example
	}
	rows := make([]Table1Row, 0, len(names))
	for _, n := range names {
		g, err := gen.Build(n)
		if err != nil {
			return nil, err
		}
		g = optimize(g)
		rows = append(rows, Table1Row{
			Name: n, PI: g.NumPIs(), PO: g.NumPOs(),
			Gates: g.NumAnds(), LUTs: luts(g),
		})
	}
	return rows, nil
}

// Table2Circuits lists the 17 benchmarks with more than 200 pins, in the
// paper's Table II order.
var Table2Circuits = []string{
	"128-adder", "b14_C", "b15_C", "b20_C", "b21_C", "b22_C", "C7552",
	"des", "g1296", "g216", "g625", "hyp", "i2", "i10", "max",
	"memctrl", "voter",
}

// MinFrames returns the smallest folding number T with ceil(n/T) <= pins.
func MinFrames(n, pins int) int {
	t := (n + pins - 1) / pins
	if t < 1 {
		t = 1
	}
	return t
}

// Table2Row is one line of Table II.
type Table2Row struct {
	Name     string
	Frames   int
	In       int
	Out      int
	FF       int
	Gates    int
	LUTs     int
	OrigLUTs int
	Overhead float64 // (LUTs-OrigLUTs)/OrigLUTs
}

// Table2 folds every >200-pin benchmark with the structural method at
// the smallest T meeting the pin limit (binary frame counter, as the
// paper's flip-flop counts imply) and reports the folded circuit sizes.
func Table2(pinLimit int) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(Table2Circuits))
	for _, name := range Table2Circuits {
		g, err := gen.Build(name)
		if err != nil {
			return nil, err
		}
		g = optimize(g)
		T := MinFrames(g.NumPIs(), pinLimit)
		r, err := core.StructuralFold(g, T, core.StructuralOptions{Counter: core.Binary})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		folded := r.Seq.Transform(optimize)
		orig := luts(g)
		fl := luts(folded.G)
		rows = append(rows, Table2Row{
			Name: name, Frames: T, In: r.InputPins(), Out: r.OutputPins(),
			FF: folded.NumLatches(), Gates: folded.G.NumAnds(), LUTs: fl,
			OrigLUTs: orig, Overhead: pct(fl, orig),
		})
	}
	return rows, nil
}

// SimpleRow is one line of the simple-baseline comparison of Section VI.
type SimpleRow struct {
	Name           string
	Frames         int
	FF             int
	Out            int
	LUTs           int
	Overhead       float64
	StructFF       int
	StructOut      int
	StructOverhead float64
}

// SimpleBaseline folds the Table II circuits with the input-buffering
// baseline and reports its overheads next to the structural method's.
func SimpleBaseline(pinLimit int) ([]SimpleRow, error) {
	t2, err := Table2(pinLimit)
	if err != nil {
		return nil, err
	}
	rows := make([]SimpleRow, 0, len(t2))
	for _, s := range t2 {
		g, err := gen.Build(s.Name)
		if err != nil {
			return nil, err
		}
		g = optimize(g)
		r, err := core.SimpleFold(g, s.Frames)
		if err != nil {
			return nil, err
		}
		folded := r.Seq.Transform(optimize)
		fl := luts(folded.G)
		rows = append(rows, SimpleRow{
			Name: s.Name, Frames: s.Frames, FF: folded.NumLatches(),
			Out: r.OutputPins(), LUTs: fl, Overhead: pct(fl, s.OrigLUTs),
			StructFF: s.FF, StructOut: s.Out, StructOverhead: s.Overhead,
		})
	}
	return rows, nil
}

// CaseStudy holds the i10 latency analysis of Section VI.
type CaseStudy struct {
	Name           string
	Pins           int
	UnfoldedCycles int
	FoldedCycles   int
	Plan           []tdm.CyclePlan
	Reduction      float64
	FoldedIn       int
	FoldedOut      int
	OutFirstFrame  int
	OutSecondFrame int
}

// CaseStudyI10 reproduces the 25% I/O-cycle reduction analysis.
func CaseStudyI10() (*CaseStudy, error) {
	g, err := gen.Build("i10")
	if err != nil {
		return nil, err
	}
	r, err := core.StructuralFold(g, 2, core.StructuralOptions{Counter: core.Binary})
	if err != nil {
		return nil, err
	}
	folded, plan, err := tdm.FoldedCycles(r, PinLimit)
	if err != nil {
		return nil, err
	}
	unfolded := tdm.UnfoldedCycles(g.NumPIs(), g.NumPOs(), PinLimit)
	cs := &CaseStudy{
		Name: "i10", Pins: PinLimit,
		UnfoldedCycles: unfolded, FoldedCycles: folded, Plan: plan,
		Reduction: tdm.Reduction(unfolded, folded),
		FoldedIn:  r.InputPins(), FoldedOut: r.OutputPins(),
	}
	for _, dst := range r.OutSched[0] {
		if dst >= 0 {
			cs.OutFirstFrame++
		}
	}
	for _, dst := range r.OutSched[1] {
		if dst >= 0 {
			cs.OutSecondFrame++
		}
	}
	return cs, nil
}

func pct(folded, orig int) float64 {
	if orig == 0 {
		return 0
	}
	return float64(folded-orig) / float64(orig) * 100
}

// FprintTable1 renders Table I.
func FprintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-10s %6s %6s %8s %7s\n", "circuit", "#PI", "#PO", "#gate", "#LUT")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %6d %8d %7d\n", r.Name, r.PI, r.PO, r.Gates, r.LUTs)
	}
}

// FprintTable2 renders Table II.
func FprintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-10s %5s %5s %6s %6s %8s %7s %9s\n",
		"circuit", "#frm", "#in", "#out", "#FF", "#gate", "#LUT", "overhead")
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %5d %5d %6d %6d %8d %7d %8.2f%%\n",
			r.Name, r.Frames, r.In, r.Out, r.FF, r.Gates, r.LUTs, r.Overhead)
		sum += r.Overhead
	}
	fmt.Fprintf(w, "average LUT overhead: %.2f%%\n", sum/float64(len(rows)))
}

// FprintSimple renders the simple-baseline comparison.
func FprintSimple(w io.Writer, rows []SimpleRow) {
	fmt.Fprintf(w, "%-10s %5s | %8s %6s %9s | %8s %6s %9s\n",
		"circuit", "#frm", "smpl#FF", "#out", "overhead", "strc#FF", "#out", "overhead")
	sumS, sumT := 0.0, 0.0
	fewerFF, outRed := 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %5d | %8d %6d %8.2f%% | %8d %6d %8.2f%%\n",
			r.Name, r.Frames, r.FF, r.Out, r.Overhead, r.StructFF, r.StructOut, r.StructOverhead)
		sumS += r.Overhead
		sumT += r.StructOverhead
		if r.FF < r.StructFF {
			fewerFF++
		}
		if r.StructOut < r.Out {
			outRed++
		}
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "average overhead: simple %.2f%%, structural %.2f%% (delta %.2f%%)\n",
		sumS/n, sumT/n, sumS/n-sumT/n)
	fmt.Fprintf(w, "simple uses fewer FFs on %d/%d; structural reduces output pins on %d/%d\n",
		fewerFF, len(rows), outRed, len(rows))
}

// FprintCaseStudy renders the i10 latency analysis.
func FprintCaseStudy(w io.Writer, cs *CaseStudy) {
	fmt.Fprintf(w, "case study %s at %d pins/cycle (TDM ratio 1):\n", cs.Name, cs.Pins)
	fmt.Fprintf(w, "  unfolded: %d I/O cycles\n", cs.UnfoldedCycles)
	fmt.Fprintf(w, "  folded (T=2, %d in / %d out pins; outputs %d+%d): %d I/O cycles\n",
		cs.FoldedIn, cs.FoldedOut, cs.OutFirstFrame, cs.OutSecondFrame, cs.FoldedCycles)
	for i, p := range cs.Plan {
		fmt.Fprintf(w, "    cycle %d: %d inputs, %d outputs\n", i+1, p.Inputs, p.Outputs)
	}
	fmt.Fprintf(w, "  I/O cycle reduction: %.0f%%\n", cs.Reduction*100)
}

// statesString renders the #state column ("32/2" or "32/-").
func statesString(states, statesMin int) string {
	if statesMin < 0 {
		return fmt.Sprintf("%d/-", states)
	}
	return fmt.Sprintf("%d/%d", states, statesMin)
}
