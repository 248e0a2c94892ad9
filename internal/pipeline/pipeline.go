// Package pipeline is the pass-pipeline engine shared by every fold
// method. A fold is expressed as a sequence of named Stages executed
// over one Run, which carries the caller's context.Context, the
// resource Budget (wall clock, BDD nodes, SAT conflicts, FSM states)
// and the per-stage trace. Lower layers (BDD sifting, SAT search, the
// sweep engine, FSM minimization) poll the Run through cheap interrupt
// hooks, so cancelling the context or exhausting a budget aborts a fold
// mid-stage with a typed error and a partial trace instead of running
// to completion or truncating silently.
//
// The package depends only on the standard library so that every layer
// of the tool (aig, bdd, sat, fsm, core, eqcheck, exp, the root API)
// can import it without cycles.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"circuitfold/internal/obs"
)

// Sentinel errors. Budget exhaustion (wall clock, nodes, conflicts,
// states) yields ErrBudgetExceeded; an external context cancellation
// yields ErrCanceled. Both are matched with errors.Is through the
// *Error wrapper that Execute returns.
var (
	// ErrBudgetExceeded reports that a resource budget (wall-clock
	// deadline, BDD node budget, SAT conflict budget, or FSM state
	// cap) was exhausted mid-run.
	ErrBudgetExceeded = errors.New("pipeline: budget exceeded")

	// ErrCanceled reports that the run's context was cancelled.
	ErrCanceled = errors.New("pipeline: canceled")
)

// Canonical stage names. Every fold method composes a subset of these.
const (
	StageSchedule = "schedule" // pin scheduling (Algorithms 1 and 2)
	StageTFF      = "tff"      // time-frame folding to an ISFSM
	StageMinimize = "minimize" // MeMin-style state minimization
	StageEncode   = "encode"   // state encoding + next-state synthesis
	StageSynth    = "synth"    // structural network construction
	StageSweep    = "sweep"    // post-fold AIG optimization
	StageVerify   = "verify"   // equivalence check of the fold
)

// Budget bounds the resources one Run may consume. Zero fields mean
// "no limit here"; callers that want a default cap read it through
// Run.StateLimit / Run.NodeLimit / Run.ConflictLimit.
type Budget struct {
	// Wall is the wall-clock allowance for the whole run. The
	// deadline is fixed when the Run is created.
	Wall time.Duration
	// BDDNodes caps the live node count of any BDD manager working
	// for the run.
	BDDNodes int
	// SATConflicts caps the total SAT conflicts across all solvers
	// working for the run.
	SATConflicts int64
	// MaxStates caps the number of time-frame-folding states
	// (per cluster, for the hybrid method).
	MaxStates int
}

// StageStats is one entry of a Run's trace: what a stage did and how
// long it took. Size fields are -1 when not applicable to the stage.
// The JSON field names are a stable wire format (cmd/bench artifacts,
// the foldd job API, and checkpointed reports all carry them); zero
// counters are omitted so a marshal→unmarshal round trip is deep-equal
// and sparse stages stay small on the wire.
type StageStats struct {
	Name         string        `json:"name"`
	Start        time.Duration `json:"start_ns"`             // offset from run start
	Duration     time.Duration `json:"duration_ns"`          //
	AndsIn       int           `json:"ands_in,omitempty"`    // AIG size entering the stage
	AndsOut      int           `json:"ands_out,omitempty"`   // AIG size leaving the stage
	BDDNodes     int           `json:"bdd_nodes,omitempty"`  // peak live BDD nodes seen
	StatesIn     int           `json:"states_in,omitempty"`  // FSM states entering
	StatesOut    int           `json:"states_out,omitempty"` // FSM states leaving
	SATConflicts int64         `json:"sat_conflicts,omitempty"`
	Spans        int           `json:"spans,omitempty"`   // child spans opened under the stage (0 unless observed)
	Resumed      bool          `json:"resumed,omitempty"` // true when the stage was restored from a checkpoint
	Err          string        `json:"err,omitempty"`     // non-empty when the stage aborted
}

// Report is the observable outcome of a pipeline run: which stages ran
// (possibly partially), in order, plus totals. It is attached to fold
// results and serialized by cmd/bench.
type Report struct {
	Pipeline string        `json:"pipeline"`
	Stages   []StageStats  `json:"stages"`
	Total    time.Duration `json:"total_ns"`
	Err      string        `json:"err,omitempty"`
}

// Stage looks up a stage's stats by name, or nil if it never ran.
func (r *Report) Stage(name string) *StageStats {
	if r == nil {
		return nil
	}
	for i := range r.Stages {
		if r.Stages[i].Name == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// Error is the typed failure Execute returns: which pipeline and stage
// aborted, the partial trace up to that point, and the underlying
// cause (ErrBudgetExceeded, ErrCanceled, or a stage's own error).
type Error struct {
	Pipeline string
	Stage    string
	Report   *Report
	Err      error
}

func (e *Error) Error() string {
	return fmt.Sprintf("pipeline %s: stage %s: %v", e.Pipeline, e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Run is the shared state a pipeline executes over: context, budget,
// start time, and monotonically accumulated counters. A nil *Run is
// valid everywhere and means "no context, no budget" — that keeps
// low-level code free of nil checks.
type Run struct {
	ctx       context.Context
	budget    Budget
	start     time.Time
	deadline  time.Time // zero when Budget.Wall == 0
	conflicts atomic.Int64

	observer  *obs.Observer
	span      atomic.Pointer[obs.Span] // current span new work should nest under
	bddPeak   atomic.Int64             // peak live BDD nodes since last reset
	liveNodes *obs.Gauge               // resolved obs.MBDDLiveNodes, nil when unobserved

	checkpoint Checkpoint // per-stage artifact store, nil when not checkpointing
	input      string     // what the run folds, the root of its stage addresses
}

// NewRun binds a context and budget into a Run. ctx may be nil.
func NewRun(ctx context.Context, b Budget) *Run {
	return NewRunObserved(ctx, b, nil)
}

// NewRunObserved is NewRun with an observability hook attached: spans
// opened by Execute and the lower layers flow to o.Tracer, metrics to
// o.Metrics. A nil o (or a nil *Run anywhere downstream) disables
// observability with zero overhead.
func NewRunObserved(ctx context.Context, b Budget, o *obs.Observer) *Run {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Run{ctx: ctx, budget: b, start: time.Now()}
	if b.Wall > 0 {
		r.deadline = r.start.Add(b.Wall)
	}
	if cd, ok := ctx.Deadline(); ok && (r.deadline.IsZero() || cd.Before(r.deadline)) {
		r.deadline = cd
	}
	if o != nil {
		r.observer = o
		r.liveNodes = o.Gauge(obs.MBDDLiveNodes)
	}
	return r
}

// Observer returns the run's observability hook (nil when unobserved).
func (r *Run) Observer() *obs.Observer {
	if r == nil {
		return nil
	}
	return r.observer
}

// Metrics returns the run's metrics registry (nil when unobserved).
func (r *Run) Metrics() *obs.Registry {
	if r == nil || r.observer == nil {
		return nil
	}
	return r.observer.Metrics
}

// Span returns the span that new work should nest under: Execute points
// it at the running stage's span for the stage's duration. Nil when
// unobserved.
func (r *Run) Span() *obs.Span {
	if r == nil {
		return nil
	}
	return r.span.Load()
}

// SetSpan redirects where new child spans hang; used by Execute and by
// stages that introduce their own grouping (e.g. hybrid clusters).
func (r *Run) SetSpan(s *obs.Span) {
	if r != nil {
		r.span.Store(s)
	}
}

// NoteBDDNodes records a BDD manager's current live node count against
// the run: it feeds the bdd.live_nodes gauge and the per-stage peak
// that Execute writes into StageStats.BDDNodes.
func (r *Run) NoteBDDNodes(n int) {
	if r == nil {
		return
	}
	v := int64(n)
	for {
		p := r.bddPeak.Load()
		if v <= p || r.bddPeak.CompareAndSwap(p, v) {
			break
		}
	}
	r.liveNodes.Set(v)
}

// BDDPeak returns the peak node count noted since the last stage began.
func (r *Run) BDDPeak() int {
	if r == nil {
		return 0
	}
	return int(r.bddPeak.Load())
}

func (r *Run) resetBDDPeak() {
	if r != nil {
		r.bddPeak.Store(0)
	}
}

// SetCheckpoint attaches a per-stage artifact store to the run. input
// names what the run's pipelines fold (for a fold: the circuit's
// structural hash and T); with the pipeline name and the run's budget it
// roots the stage addresses (see Addresses). Stages that declare
// Snapshot/Restore hooks save their outputs through ck under their
// addresses and skip re-running when a saved artifact exists. Nil (the
// default) disables checkpointing.
func (r *Run) SetCheckpoint(ck Checkpoint, input string) {
	if r != nil {
		r.checkpoint, r.input = ck, input
	}
}

// Checkpoint returns the run's checkpoint store (nil when not
// checkpointing).
func (r *Run) Checkpoint() Checkpoint {
	if r == nil {
		return nil
	}
	return r.checkpoint
}

// Context returns the run's context (context.Background for a nil run).
func (r *Run) Context() context.Context {
	if r == nil || r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// Budget returns the run's budget (the zero Budget for a nil run).
func (r *Run) Budget() Budget {
	if r == nil {
		return Budget{}
	}
	return r.budget
}

// Check reports why the run must stop, or nil to keep going. Context
// cancellation maps to ErrCanceled; an elapsed wall deadline or an
// exhausted conflict budget map to ErrBudgetExceeded.
func (r *Run) Check() error {
	if r == nil {
		return nil
	}
	select {
	case <-r.ctx.Done():
		return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(r.ctx))
	default:
	}
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		return fmt.Errorf("%w: wall clock (%v)", ErrBudgetExceeded, r.budget.Wall)
	}
	if r.budget.SATConflicts > 0 && r.conflicts.Load() > r.budget.SATConflicts {
		return fmt.Errorf("%w: SAT conflicts (%d)", ErrBudgetExceeded, r.budget.SATConflicts)
	}
	return nil
}

// Stop is Check as a boolean, for hot loops that only need yes/no
// (e.g. the SAT solver's search loop).
func (r *Run) Stop() bool { return r.Check() != nil }

// CheckNodes is Check plus the BDD node budget: n is the manager's
// current live node count.
func (r *Run) CheckNodes(n int) error {
	r.NoteBDDNodes(n)
	if err := r.Check(); err != nil {
		return err
	}
	if r != nil && r.budget.BDDNodes > 0 && n > r.budget.BDDNodes {
		return fmt.Errorf("%w: BDD nodes (%d > %d)", ErrBudgetExceeded, n, r.budget.BDDNodes)
	}
	return nil
}

// AddConflicts accumulates SAT conflicts spent on the run's behalf.
func (r *Run) AddConflicts(n int64) {
	if r != nil && n > 0 {
		r.conflicts.Add(n)
	}
}

// Conflicts returns the conflicts accumulated so far.
func (r *Run) Conflicts() int64 {
	if r == nil {
		return 0
	}
	return r.conflicts.Load()
}

// Elapsed returns the time since the run began.
func (r *Run) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Remaining returns the time left before the wall deadline, and whether
// a deadline exists at all. A run past its deadline reports zero.
func (r *Run) Remaining() (time.Duration, bool) {
	if r == nil || r.deadline.IsZero() {
		return 0, false
	}
	d := time.Until(r.deadline)
	if d < 0 {
		d = 0
	}
	return d, true
}

// StateLimit returns the FSM state cap, or def when the budget leaves
// it unset.
func (r *Run) StateLimit(def int) int {
	if r == nil || r.budget.MaxStates <= 0 {
		return def
	}
	return r.budget.MaxStates
}

// NodeLimit returns the BDD node cap, or def when unset.
func (r *Run) NodeLimit(def int) int {
	if r == nil || r.budget.BDDNodes <= 0 {
		return def
	}
	return r.budget.BDDNodes
}

// ConflictLimit returns the SAT conflict cap, or def when unset.
func (r *Run) ConflictLimit(def int64) int64 {
	if r == nil || r.budget.SATConflicts <= 0 {
		return def
	}
	return r.budget.SATConflicts
}

// Stage is one named step of a pipeline. Run receives the stage's own
// stats record to fill in sizes and counters; duration and start are
// recorded by Execute.
//
// Snapshot and Restore are the optional checkpoint hooks. When the Run
// carries a Checkpoint, Execute calls Snapshot after the stage
// completes and saves the bytes under the stage's address (see
// Addresses); on a later run whose stage has the same address, Execute
// calls Restore with the saved bytes instead of Run, marking the stage
// Resumed in its StageStats. Restore must leave the pipeline's closure
// state exactly as a successful Run would have (the whole point is that
// downstream stages cannot tell the difference); a Restore that fails —
// corrupt or version-skewed bytes — falls back to running the stage
// normally.
type Stage struct {
	Name string
	// Reads is the canonical text of the options the stage reads
	// besides the previous stage's output: everything that can change
	// its result and is not already in the run's input or budget. It
	// goes into the stage's address, so it must be deterministic and
	// must leave out knobs that cannot change the result, such as
	// worker counts.
	Reads string
	Run   func(*StageStats) error

	// Snapshot serializes the stage's output artifact.
	Snapshot func() ([]byte, error)
	// Restore rebuilds the stage's output from a snapshot, filling the
	// stats fields Run would have filled.
	Restore func([]byte, *StageStats) error
}

// Execute runs the stages in order over run, building the trace as it
// goes. The first stage error (or a failed pre-stage Run.Check) stops
// the pipeline; the returned *Error wraps the cause and carries the
// partial Report, which is also returned directly so callers can attach
// it to partial results. A pre-cancelled run still yields a one-entry
// trace recording which stage refused to start.
//
// When the run is observed, Execute opens a root span for the pipeline
// and a child span per stage, pointing Run.Span at the running stage so
// lower layers nest their sub-stage spans correctly. Spans end (and so
// flush to the sink) even when a stage aborts, which is what makes a
// budget-exceeded run leave a usable partial trace. A pipeline executed
// while Run.Span is already set (the hybrid method's nested structural
// fallback) roots itself under that span instead.
func Execute(run *Run, name string, stages ...Stage) (*Report, error) {
	rep := &Report{Pipeline: name}
	prev := run.Span()
	var root *obs.Span
	if prev != nil {
		root = prev.Child(name, "pipeline")
	} else {
		root = run.Observer().Span(name, "pipeline")
	}
	defer run.SetSpan(prev)
	keys := make([]string, len(stages))
	if run.Checkpoint() != nil {
		keys = Addresses(name, run.input, run.Budget(), stages)
	}
	fail := func(stage string, err error) (*Report, error) {
		rep.Total = run.Elapsed()
		rep.Err = err.Error()
		root.SetStr("err", err.Error())
		root.End()
		return rep, &Error{Pipeline: name, Stage: stage, Report: rep, Err: err}
	}
	for i, st := range stages {
		ss := StageStats{
			Name: st.Name, Start: run.Elapsed(),
			AndsIn: -1, AndsOut: -1, BDDNodes: -1, StatesIn: -1, StatesOut: -1,
		}
		if err := run.Check(); err != nil {
			ss.Err = err.Error()
			rep.Stages = append(rep.Stages, ss)
			return fail(st.Name, err)
		}
		sp := root.Child(st.Name, "stage")
		run.SetSpan(sp)
		run.resetBDDPeak()
		err := runStage(run, st, keys[i], &ss)
		if ss.Resumed && err == nil {
			// Restored from a checkpoint: record the (near-zero) restore
			// time and move on without snapshotting again.
			run.SetSpan(prev)
			ss.Duration = run.Elapsed() - ss.Start
			sp.SetStr("checkpoint", "restored")
			sp.End()
			rep.Stages = append(rep.Stages, ss)
			continue
		}
		if err == nil {
			saveStage(run, st, keys[i], sp)
		}
		run.SetSpan(prev)
		ss.Duration = run.Elapsed() - ss.Start
		// Per-stage latency histogram ("stage.<name>.seconds"), aborted
		// stages included: their duration is real work the SLO math must
		// see. Restored stages are excluded above — a checkpoint load is
		// not a stage execution.
		run.Metrics().Timing(obs.StageSeconds(st.Name)).Observe(ss.Duration)
		if pk := run.BDDPeak(); pk > 0 && ss.BDDNodes < 0 {
			ss.BDDNodes = pk
		}
		ss.Spans = sp.Descendants()
		if err != nil {
			ss.Err = err.Error()
			sp.SetStr("err", err.Error())
		}
		sp.End()
		rep.Stages = append(rep.Stages, ss)
		if err != nil {
			return fail(st.Name, err)
		}
	}
	rep.Total = run.Elapsed()
	root.End()
	return rep, nil
}

// runStage is the per-stage recover boundary. A panicking stage is
// converted to an error instead of unwinding through Execute: typed
// control-flow panics (the BDD node cap's budget unwind, cancellation)
// keep their identity, everything else becomes an *InternalError with
// the stage name and stack, counted under obs.MFoldPanics.
//
// When the run carries a Checkpoint holding an artifact under the
// stage's address key and the stage can Restore, restoration is
// attempted first; a failed restore (corrupt bytes, version skew, or a
// panic in Restore) is swallowed and the stage runs normally, so a bad
// checkpoint degrades to a cold run instead of failing the fold.
func runStage(run *Run, st Stage, key string, ss *StageStats) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = AsInternal(st.Name, v)
			if errors.Is(err, ErrInternal) {
				run.Metrics().Counter(obs.MFoldPanics).Add(1)
			}
		}
	}()
	if ck := run.Checkpoint(); ck != nil && st.Restore != nil {
		if data, ok := ck.Load(key); ok {
			if restoreStage(st, data, ss) == nil {
				ss.Resumed = true
				return nil
			}
		}
	}
	return st.Run(ss)
}

// restoreStage calls a stage's Restore hook inside its own recover
// boundary: a panic while deserializing a checkpoint reads as a failed
// restore, not a failed stage.
func restoreStage(st Stage, data []byte, ss *StageStats) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = AsInternal(st.Name+".restore", v)
		}
	}()
	return st.Restore(data, ss)
}

// saveStage snapshots a completed stage into the run's checkpoint under
// its address key. Best-effort by contract: snapshot or save failures
// are recorded on the stage's span and otherwise ignored.
func saveStage(run *Run, st Stage, key string, sp *obs.Span) {
	ck := run.Checkpoint()
	if ck == nil || st.Snapshot == nil {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			sp.SetStr("checkpoint_err", fmt.Sprint(v))
		}
	}()
	data, err := st.Snapshot()
	if err == nil {
		err = ck.Save(key, data)
	}
	if err != nil {
		sp.SetStr("checkpoint_err", err.Error())
	} else {
		sp.SetStr("checkpoint", "saved")
	}
}
