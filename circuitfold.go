// Package circuitfold is an open-source implementation of
// "Time Multiplexing via Circuit Folding" (Chien & Jiang, DAC 2020).
//
// Circuit folding reduces the number of physical input pins a
// combinational circuit needs by folding its evaluation over T clock
// cycles: the result is a sequential circuit with ceil(n/T) input pins
// whose T-frame time-frame expansion is functionally equivalent to the
// original circuit. Folding trades I/O bandwidth for throughput at the
// logic level — orthogonally to physical-level time-division
// multiplexing — and is the paper's answer to the FPGA I/O pin
// bottleneck.
//
// # Quick start
//
//	g := circuitfold.NewCircuit()
//	a := g.PI("a")
//	b := g.PI("b")
//	g.AddPO(g.And(a, b), "y")
//
//	r, err := circuitfold.Structural(g, 2, circuitfold.Options{})
//	// r.Seq is a sequential circuit with 1 input pin; r.Execute(inputs)
//	// runs one folded computation.
//
// Four folding engines are provided:
//
//   - Structural (Section IV): scalable layered folding with pipeline
//     registers and counter-selected outputs.
//   - Functional (Section V): pin scheduling, FSM construction via
//     time-frame folding, exact state minimization, state encoding —
//     slower, but often dramatically smaller.
//   - Hybrid (the conclusion's future work): functional folding per
//     output cluster with a structural fallback, one pin interface.
//   - Simple (Section VI): the input-buffering baseline.
//
// The subpackages under internal implement the full substrate from
// scratch: AIGs, BDDs with reordering, a CDCL SAT solver, ISFSM
// minimization (MeMin), LUT mapping, sequential circuits, benchmark
// generators, file I/O and the paper's experiment harness.
package circuitfold

import (
	"context"
	"io"
	"time"

	"circuitfold/internal/aig"
	"circuitfold/internal/cio"
	"circuitfold/internal/core"
	"circuitfold/internal/eqcheck"
	"circuitfold/internal/fsm"
	"circuitfold/internal/gen"
	"circuitfold/internal/lutmap"
	"circuitfold/internal/obs"
	"circuitfold/internal/part"
	"circuitfold/internal/pipeline"
	"circuitfold/internal/seq"
	"circuitfold/internal/tdm"
)

// Circuit is a combinational circuit as an And-Inverter Graph.
type Circuit = aig.Graph

// Lit is an edge (signal) in a Circuit, possibly complemented.
type Lit = aig.Lit

// Constant signals.
const (
	Const0 = aig.Const0
	Const1 = aig.Const1
)

// Sequential is a sequential circuit: a combinational core plus
// flip-flops.
type Sequential = seq.Circuit

// Result is a folded circuit together with its pin schedule.
type Result = core.Result

// Schedule is a pin schedule computed by Algorithms 1 and 2.
type Schedule = core.Schedule

// Machine is an incompletely specified Mealy machine.
type Machine = fsm.Machine

// Link models an inter-FPGA I/O link with optional TDM.
type Link = tdm.Link

// Encoding selects binary or one-hot encodings for frame counters and
// FSM states.
type Encoding = core.Encoding

// Encoding values.
const (
	Binary = core.Binary
	OneHot = core.OneHot
)

// Budget bounds a fold's resources: wall-clock time, BDD nodes, SAT
// conflicts and FSM states. Zero fields mean "engine default".
type Budget = pipeline.Budget

// Report is the per-stage trace of a fold: stage names, timings and
// size counters. It is attached to Result.Report when Options.Trace is
// set, and to the error (via PipelineError) when a fold aborts.
type Report = pipeline.Report

// StageStats is one stage's entry in a Report.
type StageStats = pipeline.StageStats

// Observer bundles the two observability channels a fold can feed: a
// span Tracer and a Metrics registry. Either field may be nil; a nil
// *Observer (the default) disables all instrumentation at zero cost.
type Observer = obs.Observer

// Tracer emits hierarchical spans to a TraceSink as Chrome trace_event
// records. Open one per fold (or share one across folds) and hand it to
// Options.Observer.
type Tracer = obs.Tracer

// TraceSink receives trace events from a Tracer.
type TraceSink = obs.Sink

// TraceBuffer is an in-memory TraceSink; WriteChromeTrace renders its
// contents as a Perfetto-loadable Chrome trace JSON document.
type TraceBuffer = obs.TraceBuffer

// JSONLSink is a TraceSink that streams events as JSON Lines.
type JSONLSink = obs.JSONLSink

// TraceEvent is one Chrome trace_event record emitted by a Tracer.
type TraceEvent = obs.Event

// Metrics is a registry of named counters, gauges and histograms the
// fold engines update (BDD live nodes, SAT conflicts, sweep merges,
// FSM states, ...). See internal/obs for the metric name constants.
type Metrics = obs.Registry

// NewTracer returns a Tracer emitting to sink.
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// NewTraceBuffer returns an empty in-memory trace sink.
func NewTraceBuffer() *TraceBuffer { return obs.NewTraceBuffer() }

// NewJSONLSink returns a sink streaming events to w as JSON Lines.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// NewMetrics returns an empty metrics registry. Metrics.WriteOpenMetrics
// renders it in the OpenMetrics text format that foldd serves at /metrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WriteChromeTrace writes events as a Chrome trace JSON document that
// chrome://tracing and https://ui.perfetto.dev can load.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// Checkpoint is a per-stage snapshot store for resumable folds: after
// a functional fold's schedule, tff and minimize stages complete, each
// one's output is serialized and saved under the stage's content
// address, and a later fold whose stage has the same address restores
// it instead of re-running, producing a Result bit-identical to an
// uninterrupted fold. The address hashes the circuit's structure, T,
// the budget, the pipeline name and every option the stages up to it
// read, so one store can serve any number of folds: a fold that
// differs from an earlier one only in its state encoding restores all
// three stages.
type Checkpoint = pipeline.Checkpoint

// PipelineError is the typed error returned when a fold is cancelled
// or exhausts its budget: it names the pipeline and stage and carries
// the partial Report. Match the cause with errors.Is against
// ErrCanceled / ErrBudgetExceeded, and extract it with errors.As.
type PipelineError = pipeline.Error

// Sentinel causes for aborted folds, matched with errors.Is.
var (
	// ErrBudgetExceeded reports an exhausted Budget (deadline, BDD
	// nodes, SAT conflicts or state cap).
	ErrBudgetExceeded = pipeline.ErrBudgetExceeded
	// ErrCanceled reports a cancelled context.
	ErrCanceled = pipeline.ErrCanceled
)

// NewCircuit returns an empty combinational circuit.
func NewCircuit() *Circuit { return aig.New() }

// Options configures folding. The zero value is the cheapest
// configuration (binary counter and states, no reordering, no
// minimization); DefaultOptions returns the configuration recommended by
// the paper's experiments.
type Options struct {
	// Counter selects the structural method's frame counter encoding.
	Counter Encoding
	// Reorder enables BDD symmetric-sifting input reordering during
	// functional pin scheduling. Ignored by Structural.
	Reorder bool
	// Minimize runs exact FSM state minimization in the functional
	// method. Ignored by Structural.
	Minimize bool
	// StateEnc selects the functional method's state encoding.
	StateEnc Encoding
	// Timeout bounds the fold's wall-clock time, like the paper's
	// 300-second limit. Zero means no limit. It is shorthand for
	// Budget.Wall and is ignored when Budget.Wall is set.
	Timeout time.Duration
	// Context cancels the fold mid-stage; nil means no cancellation.
	// An aborted fold returns an error matching ErrCanceled that
	// unwraps to a *PipelineError carrying the partial stage trace.
	Context context.Context
	// Budget bounds the fold's resources (wall clock, BDD nodes, SAT
	// conflicts, FSM states). Zero fields use engine defaults; an
	// exhausted budget aborts with an error matching ErrBudgetExceeded.
	Budget Budget
	// Workers bounds the goroutines the folding engines use: frame
	// states fold in parallel in the functional method, clusters in the
	// hybrid method. 0 uses the engine default (GOMAXPROCS capped at 8);
	// 1 forces sequential folding. The folded circuit is bit-identical
	// for every worker count. Ignored by Structural and Simple.
	Workers int
	// Trace attaches the per-stage Report to Result.Report. Errors
	// always carry their partial trace regardless of Trace.
	Trace bool
	// Observer, when non-nil, receives hierarchical span traces and
	// live metrics from every stage of the fold (see Observer). Nil —
	// the default — disables instrumentation entirely: the engines
	// take nil-receiver fast paths and allocate nothing extra.
	Observer *Observer
	// Checkpoint, when non-nil, saves per-stage snapshots so an
	// interrupted fold can resume at the last completed stage (see
	// Checkpoint). The Functional engine checkpoints its schedule, tff
	// and minimize stages; the other methods ignore it (their callers
	// keep the final result instead).
	Checkpoint Checkpoint
}

// DefaultOptions returns the configuration the paper's experiments
// favor: binary frame counter, input reordering, state minimization,
// one-hot state encoding, 30-second budget, tracing on.
func DefaultOptions() Options {
	return Options{
		Counter:  Binary,
		Reorder:  true,
		Minimize: true,
		StateEnc: OneHot,
		Timeout:  30 * time.Second,
		Trace:    true,
	}
}

// budget resolves the effective Budget, folding the legacy Timeout
// shorthand into Budget.Wall.
func (o Options) budget() Budget {
	b := o.Budget
	if b.Wall == 0 {
		b.Wall = o.Timeout
	}
	return b
}

// finish strips the trace when it was not requested.
func finish(r *Result, err error, trace bool) (*Result, error) {
	if r != nil && !trace {
		r.Report = nil
	}
	return r, err
}

// Structural folds g by T frames with the structural method of Section
// IV.
func Structural(g *Circuit, T int, opt Options) (r *Result, err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.Structural")
	r, err = core.StructuralFold(g, T, core.StructuralOptions{
		Counter: opt.Counter,
		Ctx:     opt.Context,
		Budget:  opt.budget(),
		Obs:     opt.Observer,
	})
	return finish(r, err, opt.Trace)
}

// Functional folds g by T frames with the functional method of Section
// V.
func Functional(g *Circuit, T int, opt Options) (r *Result, err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.Functional")
	fo := core.DefaultFunctionalOptions()
	fo.Reorder = opt.Reorder
	fo.Minimize = opt.Minimize
	fo.StateEnc = opt.StateEnc
	fo.Ctx = opt.Context
	fo.Budget = opt.budget()
	fo.Obs = opt.Observer
	fo.Checkpoint = opt.Checkpoint
	if opt.Workers > 0 {
		fo.Workers = opt.Workers
	}
	if fo.Budget.Wall > 0 {
		fo.MinOpts.Timeout = fo.Budget.Wall
	}
	r, err = core.FunctionalFold(g, T, fo)
	return finish(r, err, opt.Trace)
}

// Simple folds g by T frames with the input-buffering baseline of
// Section VI.
func Simple(g *Circuit, T int) (r *Result, err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.Simple")
	return core.SimpleFold(g, T)
}

// Hybrid folds g by T frames combining both methods (the future work
// named in the paper's conclusion): output clusters are folded
// functionally where affordable and structurally otherwise, all sharing
// one ceil(n/T)-pin interface.
func Hybrid(g *Circuit, T int, opt Options) (r *Result, err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.Hybrid")
	ho := core.DefaultHybridOptions()
	ho.Counter = opt.Counter
	ho.StateEnc = opt.StateEnc
	ho.Minimize = opt.Minimize
	ho.Ctx = opt.Context
	ho.Obs = opt.Observer
	if opt.Workers > 0 {
		ho.Workers = opt.Workers
	}
	b := opt.budget()
	if b.MaxStates == 0 {
		b.MaxStates = ho.Budget.MaxStates
	}
	ho.Budget = b
	if opt.Timeout > 0 && opt.Budget.Wall == 0 {
		// Legacy behavior: Timeout also bounds each cluster.
		ho.ClusterTimeout = opt.Timeout
	}
	r, err = core.HybridFold(g, T, ho)
	return finish(r, err, opt.Trace)
}

// PinSchedule runs the paper's Algorithms 1 and 2 and returns the pin
// schedule without folding.
func PinSchedule(g *Circuit, T int, reorder bool) (s *Schedule, err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.PinSchedule")
	return core.PinSchedule(g, T, core.ScheduleOptions{Reorder: reorder})
}

// Verify checks that a fold is a correct time multiplexing of g:
// exhaustively for small circuits, with randomTrials random vectors
// otherwise. It returns nil on success.
func Verify(g *Circuit, r *Result, randomTrials int) (err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.Verify")
	return eqcheck.VerifyFold(g, r, randomTrials, 1)
}

// VerifyByUnrolling checks the problem-statement form: unrolling the
// fold by T frames yields a circuit equivalent to g under the schedule.
func VerifyByUnrolling(g *Circuit, r *Result, randomTrials int) (err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.VerifyByUnrolling")
	return eqcheck.VerifyFoldByUnrolling(g, r, randomTrials, 1)
}

// SweepOptions configures the SAT sweeping engine: simulation width,
// worker count, counterexample-refinement rounds, conflict budgets.
type SweepOptions = aig.SweepOptions

// SweepStats reports the work a sweep did (queries, SAT calls, merges,
// counterexample rounds, solver statistics).
type SweepStats = aig.SweepStats

// DefaultSweepOptions returns the sweeping configuration used by
// Optimize: 8 simulation words, GOMAXPROCS workers, counterexample
// refinement on.
func DefaultSweepOptions() SweepOptions { return aig.DefaultSweepOptions() }

// Optimize runs the synthesis pipeline (strash, balance, SAT sweep) used
// before reporting circuit sizes.
func Optimize(g *Circuit) *Circuit { return g.Optimize() }

// OptimizeWith is Optimize with explicit sweeping options — e.g. to pin
// the worker count, widen simulation, or disable counterexample-guided
// refinement (MaxCEXRounds: 0).
func OptimizeWith(g *Circuit, opt SweepOptions) *Circuit { return g.OptimizeWith(opt) }

// OptimizeContext is OptimizeWith under a context and budget: the sweep
// polls the run between rounds and inside its SAT shards, so a
// cancelled context or exhausted budget stops it promptly. The returned
// circuit is always valid and equivalence-preserving — an interrupted
// sweep keeps the merges proven so far — and err (matching ErrCanceled
// or ErrBudgetExceeded) reports why it stopped early, nil when it ran
// to completion.
func OptimizeContext(ctx context.Context, g *Circuit, opt SweepOptions) (*Circuit, error) {
	return OptimizeBudget(ctx, g, opt, Budget{})
}

// OptimizeBudget is OptimizeContext with an explicit resource budget.
func OptimizeBudget(ctx context.Context, g *Circuit, opt SweepOptions, b Budget) (out *Circuit, err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.Optimize")
	run := pipeline.NewRun(ctx, b)
	if opt.Interrupt == nil {
		opt.Interrupt = run.Check
	}
	out, st := g.OptimizeWithStats(opt)
	if st.FaultErr != nil {
		return out, st.FaultErr
	}
	return out, run.Check()
}

// LUTCount maps g onto k-input LUTs and returns the LUT count, the
// area metric of the paper's tables (k = 6 there). A LUT width below 2
// is reported as an error.
func LUTCount(g *Circuit, k int) (int, error) { return lutmap.Count(g, k) }

// Benchmark builds one of the paper's 27 benchmark circuits (or the
// adder3 running example) by name; see Benchmarks for the list.
func Benchmark(name string) (*Circuit, error) { return gen.Build(name) }

// Benchmarks lists the available benchmark circuit names.
func Benchmarks() []string { return gen.Names() }

// BenchmarkInfo describes a benchmark circuit.
type BenchmarkInfo = gen.Info

// LookupBenchmark returns a benchmark's metadata.
func LookupBenchmark(name string) (BenchmarkInfo, error) { return gen.Lookup(name) }

// ReadBLIF parses a BLIF netlist.
func ReadBLIF(r io.Reader) (*Sequential, error) { return cio.ReadBLIF(r) }

// WriteBLIF writes a sequential circuit as BLIF.
func WriteBLIF(w io.Writer, c *Sequential, model string) error { return cio.WriteBLIF(w, c, model) }

// ReadBench parses an ISCAS/ITC BENCH netlist.
func ReadBench(r io.Reader) (*Sequential, error) { return cio.ReadBench(r) }

// ReadAAG parses an ASCII AIGER file.
func ReadAAG(r io.Reader) (*Sequential, error) { return cio.ReadAAG(r) }

// WriteAAG writes a sequential circuit as ASCII AIGER.
func WriteAAG(w io.Writer, c *Sequential) error { return cio.WriteAAG(w, c) }

// UnfoldedIOCycles is the latency baseline: stream all inputs, evaluate,
// stream all outputs.
func UnfoldedIOCycles(nIn, nOut, pins int) int {
	return tdm.UnfoldedCycles(nIn, nOut, pins)
}

// PartitionOptions configures multi-FPGA bipartitioning.
type PartitionOptions = part.Options

// Partition bipartitions a circuit across two FPGAs with the
// Fiduccia-Mattheyses heuristic and returns the inter-chip signal count
// (cut nets) — the quantity TDM and circuit folding both fight over.
func Partition(g *Circuit, opt PartitionOptions) (cut int, side []bool, err error) {
	bp, _, err := part.PartitionCircuit(g, opt)
	if err != nil {
		return 0, nil, err
	}
	return bp.Cut, bp.Side, nil
}

// WriteDOT renders a circuit as a Graphviz graph.
func WriteDOT(w io.Writer, g *Circuit, name string) error { return g.WriteDOT(w, name) }

// WriteFSMDOT renders a Mealy machine as a Graphviz state diagram in the
// style of the paper's Figure 6.
func WriteFSMDOT(w io.Writer, m *Machine, name string) error { return fsm.WriteDOT(w, m, name) }

// WriteKISS writes a machine in KISS2 format (the MeMin interchange
// format); ReadKISS parses one.
func WriteKISS(w io.Writer, m *Machine) error { return fsm.WriteKISS(w, m) }

// ReadKISS parses a KISS2 machine.
func ReadKISS(r io.Reader) (*Machine, error) { return fsm.ReadKISS(r) }

// VerifyFast is the word-parallel verifier: rounds*64 random vectors per
// call, much faster than Verify on wide circuits.
func VerifyFast(g *Circuit, r *Result, rounds int) (err error) {
	defer pipeline.RecoverTo(&err, "circuitfold.VerifyFast")
	return eqcheck.VerifyFoldWords(g, r, rounds, 1)
}

// WriteVerilog writes a sequential circuit as synthesizable structural
// Verilog.
func WriteVerilog(w io.Writer, c *Sequential, module string) error {
	return cio.WriteVerilog(w, c, module)
}

// WriteVCD dumps a waveform of the circuit simulated over the stream.
func WriteVCD(w io.Writer, c *Sequential, stream [][]bool, module string) error {
	return cio.WriteVCD(w, c, stream, module)
}

// Resynthesize maps g onto k-input LUTs and rebuilds each LUT from an
// irredundant sum-of-products cover of its cut function, returning the
// smaller of the original and the rebuilt circuit.
func Resynthesize(g *Circuit, k int) (*Circuit, error) { return lutmap.Resynthesize(g, k) }
