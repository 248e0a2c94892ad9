// Package core implements the paper's contribution: circuit folding for
// time multiplexing. A combinational circuit with n inputs is folded by a
// factor T into a sequential circuit with ceil(n/T) input pins whose
// T-frame time-frame expansion is functionally equivalent to the original
// circuit.
//
// Two methods are provided, mirroring Sections IV and V of the paper:
//
//   - StructuralFold: layered topological traversal with pipeline
//     flip-flops at frame boundaries and counter-based output selection.
//   - FunctionalFold: pin scheduling (Algorithms 1 and 2), FSM
//     construction via time-frame folding (BDD cut/functional
//     decomposition), optional exact state minimization (MeMin), and
//     state encoding.
//
// SimpleFold implements the input-buffering baseline the paper compares
// against in Section VI.
package core

import (
	"fmt"
	"strconv"

	"circuitfold/internal/aig"
	"circuitfold/internal/pipeline"
	"circuitfold/internal/seq"
)

// Encoding selects how frame counters (structural method) or states
// (functional method) are encoded.
type Encoding int

// Encodings.
const (
	// Binary uses ceil(log2 N) flip-flops with natural binary encoding.
	Binary Encoding = iota
	// OneHot uses N flip-flops, one per frame or state.
	OneHot
)

func (e Encoding) String() string {
	if e == OneHot {
		return "1hot"
	}
	return "nat"
}

// Result is a folded circuit together with the pin schedule that defines
// its input-output association with the original circuit.
type Result struct {
	// Seq is the folded sequential circuit: ceil(n/T) input pins, and as
	// many output pins as the largest per-frame output group.
	Seq *seq.Circuit
	// T is the folding number (time-frames per computation).
	T int
	// InSched[t][j] is the original PI index presented on input pin j
	// during frame t (0-based frames), or -1 for a dummy input.
	InSched [][]int
	// OutSched[t][k] is the original PO index produced on output pin k
	// during frame t, or -1 for a null (don't care) output.
	OutSched [][]int
	// States (functional method only) is the number of FSM states before
	// and after minimization; StatesMin is -1 when minimization was not
	// run or did not finish.
	States    int
	StatesMin int
	// Report is the pass-pipeline trace of the fold: which stages ran,
	// their durations, and their size/counter deltas.
	Report *pipeline.Report
}

// Validate checks the structural sanity of a fold result against the
// original circuit's interface (numPIs inputs, numPOs outputs): the
// schedules must cover exactly T frames, input rows must match the pin
// count with sources in [-1, numPIs), and output rows must fit the
// sequential circuit's outputs with destinations in [-1, numPOs). The
// execution and verification helpers index schedules without bounds
// checks, so validating first turns a malformed (possibly hostile)
// result into an error instead of an index-out-of-range panic.
func (r *Result) Validate(numPIs, numPOs int) error {
	if r == nil || r.Seq == nil || r.Seq.G == nil {
		return fmt.Errorf("core: result has no folded circuit")
	}
	if r.T < 1 {
		return fmt.Errorf("core: result has folding number %d, want >= 1", r.T)
	}
	m := r.Seq.NumInputs
	if len(r.InSched) != r.T {
		return fmt.Errorf("core: input schedule covers %d frames, want %d", len(r.InSched), r.T)
	}
	for t, row := range r.InSched {
		if len(row) != m {
			return fmt.Errorf("core: input schedule frame %d has %d pins, want %d", t, len(row), m)
		}
		for j, src := range row {
			if src < -1 || src >= numPIs {
				return fmt.Errorf("core: input schedule (frame %d, pin %d) references PI %d of %d", t, j, src, numPIs)
			}
		}
	}
	mOut := r.Seq.NumOutputs()
	if len(r.OutSched) != r.T {
		return fmt.Errorf("core: output schedule covers %d frames, want %d", len(r.OutSched), r.T)
	}
	for t, row := range r.OutSched {
		if len(row) > mOut {
			return fmt.Errorf("core: output schedule frame %d has %d pins, circuit has %d outputs", t, len(row), mOut)
		}
		for k, dst := range row {
			if dst < -1 || dst >= numPOs {
				return fmt.Errorf("core: output schedule (frame %d, pin %d) references PO %d of %d", t, k, dst, numPOs)
			}
		}
	}
	return nil
}

// InputPins returns the folded circuit's input pin count, m = ceil(n/T).
func (r *Result) InputPins() int { return r.Seq.NumInputs }

// OutputPins returns the folded circuit's output pin count.
func (r *Result) OutputPins() int { return r.Seq.NumOutputs() }

// FlipFlops returns the folded circuit's flip-flop count.
func (r *Result) FlipFlops() int { return r.Seq.NumLatches() }

// Gates returns the AND-node count of the folded circuit's combinational
// core.
func (r *Result) Gates() int { return r.Seq.G.NumAnds() }

// ScheduleInputs maps a full assignment of the original circuit's inputs
// to the frame-by-frame pin assignment defined by InSched. Dummy pins get
// false.
func (r *Result) ScheduleInputs(in []bool) [][]bool {
	stream := make([][]bool, r.T)
	for t := range stream {
		row := make([]bool, len(r.InSched[t]))
		for j, src := range r.InSched[t] {
			if src >= 0 {
				row[j] = in[src]
			}
		}
		stream[t] = row
	}
	return stream
}

// CollectOutputs reassembles the original circuit's output vector from
// the folded circuit's frame-by-frame outputs according to OutSched.
func (r *Result) CollectOutputs(frames [][]bool) []bool {
	max := -1
	for _, row := range r.OutSched {
		for _, dst := range row {
			if dst > max {
				max = dst
			}
		}
	}
	out := make([]bool, max+1)
	for t, row := range r.OutSched {
		for k, dst := range row {
			if dst >= 0 {
				out[dst] = frames[t][k]
			}
		}
	}
	return out
}

// Execute runs the folded circuit on one computation of the original
// circuit: inputs are scheduled over T frames, outputs collected per the
// schedule. This is the complete time-multiplexed execution of Section
// III.
func (r *Result) Execute(in []bool) []bool {
	return r.CollectOutputs(r.Seq.Simulate(r.ScheduleInputs(in)))
}

// sweepStage builds the optional post-fold optimization stage: the
// cleanup/balance/SAT-sweep pipeline over the fold's combinational
// core. Every folding method honors a *aig.SweepOptions in its options
// struct through this stage, so the sweeping engine's knobs (Workers,
// Words, MaxCEXRounds, ...) thread from the top-level flows down to the
// folded circuits. The stage reads the result through res so it can run
// after an earlier stage has produced it, wires the run's cancellation
// into the sweep engine, and charges the sweep's SAT conflicts to the
// run.
func sweepStage(res **Result, opt *aig.SweepOptions, run *pipeline.Run) pipeline.Stage {
	return pipeline.Stage{Name: pipeline.StageSweep,
		Run: func(ss *pipeline.StageStats) error {
			r := *res
			o := *opt
			if o.Interrupt == nil {
				o.Interrupt = run.Check
			}
			if o.Span == nil {
				o.Span = run.Span() // the sweep stage's own span
			}
			if o.Metrics == nil {
				o.Metrics = run.Metrics()
			}
			if o.Stage == "" && (o.Span != nil || o.Metrics != nil) {
				o.Stage = pipeline.StageSweep
			}
			ss.AndsIn = r.Seq.G.NumAnds()
			var faultErr error
			r.Seq = r.Seq.Transform(func(g *aig.Graph) *aig.Graph {
				ng, st := g.Cleanup().Balance().SweepWithStats(o)
				run.AddConflicts(st.Solver.Conflicts)
				ss.SATConflicts += st.Solver.Conflicts
				if st.FaultErr != nil {
					faultErr = st.FaultErr
				}
				return ng
			})
			ss.AndsOut = r.Seq.G.NumAnds()
			if faultErr != nil {
				return faultErr
			}
			return run.Check()
		}}
}

// identityFold wraps a combinational circuit as a T=1 "fold" through a
// one-stage pipeline, so even the degenerate case carries a trace.
func identityFold(g *aig.Graph, run *pipeline.Run, name string, post *aig.SweepOptions) (*Result, error) {
	var res *Result
	stages := []pipeline.Stage{{Name: pipeline.StageSynth, Run: func(ss *pipeline.StageStats) error {
		ss.AndsIn = g.NumAnds()
		res = identityResult(g)
		ss.AndsOut = res.Seq.G.NumAnds()
		return nil
	}}}
	if post != nil {
		stages = append(stages, sweepStage(&res, post, run))
	}
	rep, err := pipeline.Execute(run, name, stages...)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	return res, nil
}

// pinName names input pin j ("x7") or output pin k ("y3"); the shared
// helper every fold method uses for its pin interface.
func pinName(prefix string, i int) string {
	return prefix + strconv.Itoa(i)
}

// ceilDiv returns ceil(a/b).
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// validateFoldArgs checks common preconditions.
func validateFoldArgs(g *aig.Graph, T int) error {
	if T < 1 {
		return fmt.Errorf("core: folding number %d < 1", T)
	}
	if g.NumPIs() == 0 {
		return fmt.Errorf("core: circuit has no inputs")
	}
	if T > g.NumPIs() {
		return fmt.Errorf("core: folding number %d exceeds input count %d", T, g.NumPIs())
	}
	return nil
}

// identityResult wraps a combinational circuit as a T=1 "fold".
func identityResult(g *aig.Graph) *Result {
	in := make([]int, g.NumPIs())
	for i := range in {
		in[i] = i
	}
	out := make([]int, g.NumPOs())
	for i := range out {
		out[i] = i
	}
	return &Result{
		Seq:       seq.Combinational(g),
		T:         1,
		InSched:   [][]int{in},
		OutSched:  [][]int{out},
		States:    1,
		StatesMin: -1,
	}
}
