package circuitfold

import (
	"context"
	"fmt"

	"circuitfold/internal/bdd"
	"circuitfold/internal/eqcheck"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
	"circuitfold/internal/sat"
)

// Resilience sentinels, matched with errors.Is. They complement
// ErrBudgetExceeded and ErrCanceled:
//
//   - ErrInternal: a panic recovered at an engine boundary, or an
//     injected fault. ErrNodeLimit and ErrResourceLimit wrap
//     ErrBudgetExceeded, not ErrInternal — running out of a declared
//     budget is the instance's fault, not the engine's.
//   - ErrSelfCheck: a fold completed but failed the post-fold
//     equivalence self-check and was discarded.
//   - ErrNodeLimit: the BDD manager exceeded its hard node cap.
//   - ErrResourceLimit: the SAT solver exceeded its hard conflict or
//     learnt-clause cap.
var (
	ErrInternal      = pipeline.ErrInternal
	ErrSelfCheck     = pipeline.ErrSelfCheck
	ErrNodeLimit     = bdd.ErrNodeLimit
	ErrResourceLimit = sat.ErrResourceLimit
)

// InternalError is the typed form of a recovered panic: the entry point
// or stage where it was caught, the panic value, and the stack. Extract
// it with errors.As; it matches ErrInternal via errors.Is.
type InternalError = pipeline.InternalError

// FoldMethod names one rung of the degradation ladder.
type FoldMethod string

// Ladder rungs. MethodFunctionalReorder is the functional method with
// the Reorder option flipped — a second chance when BDD variable order
// was what sank the first functional attempt.
const (
	MethodFunctional        FoldMethod = "functional"
	MethodFunctionalReorder FoldMethod = "functional-reorder"
	MethodHybrid            FoldMethod = "hybrid"
	MethodStructural        FoldMethod = "structural"
)

// RungReport records how one rung of a resilient fold went: its name,
// duration, error (empty on the winning rung), self-check outcome, and
// the partial stage trace salvaged from a failed attempt.
type RungReport = pipeline.RungReport

// ResilientOptions configures RunResilient. The embedded Options apply
// to every rung; the zero value gets the default ladder (functional,
// hybrid, structural) and a 64-vector random-simulation self-check.
type ResilientOptions struct {
	Options

	// Ladder lists the methods to attempt in order. Empty means
	// functional, hybrid, structural.
	Ladder []FoldMethod

	// RungBudgets overrides the fold Budget per rung; a method not in
	// the map uses the embedded Options' budget. This bounds expensive
	// early rungs tightly while leaving the structural safety net
	// unconstrained.
	RungBudgets map[FoldMethod]Budget

	// RetryReorder inserts a functional-reorder rung after each
	// functional rung (with the Reorder option flipped), retrying with
	// a different BDD variable order before degrading to hybrid.
	RetryReorder bool

	// SelfCheckRounds is the number of 64-vector word-parallel random
	// simulation rounds gating each successful fold. 0 means 1 round
	// (64 vectors); negative disables the simulation check.
	SelfCheckRounds int

	// SelfCheckSAT, when positive, escalates the self-check to a SAT
	// equivalence spot-check of the unrolled fold under this conflict
	// budget. An inconclusive (budget-limited) check passes; only a
	// counterexample fails the fold.
	SelfCheckSAT int64
}

// ResilientResult is a verified fold plus the story of how the ladder
// got there.
type ResilientResult struct {
	*Result

	// Method is the rung that produced the result.
	Method FoldMethod

	// Attempts reports every rung tried, in order, including the
	// winning one.
	Attempts []RungReport

	// Fallbacks is how many rung descents this fold took (0 when the
	// first rung won).
	Fallbacks int64

	// PanicsRecovered is how many panics were converted to ErrInternal
	// at recover boundaries during this fold.
	PanicsRecovered int64

	// SelfCheckFails is how many completed folds the self-check
	// discarded during this fold.
	SelfCheckFails int64
}

// defaultLadder is the full degradation sequence: smallest circuits
// first, most scalable last.
var defaultLadder = []FoldMethod{MethodFunctional, MethodHybrid, MethodStructural}

// RunResilient folds g by T frames, walking a degradation ladder until
// a rung produces a self-check-verified result. A rung that exhausts
// its budget (ErrBudgetExceeded, including the hard ErrNodeLimit and
// ErrResourceLimit caps), panics (recovered into ErrInternal), or fails
// the equivalence self-check (ErrSelfCheck) falls through to the next
// rung; cancellation (ErrCanceled) and instance errors (bad T, no
// inputs) abort immediately. When every rung fails, the last rung's
// error is returned and Attempts in the trace still records each rung.
//
// Every successful fold is gated by a bounded self-check — 64-way
// random simulation of the fold against the original circuit,
// optionally escalated to a SAT spot-check (SelfCheckSAT) — so a
// returned ResilientResult is never an unverified artifact of a
// partially-failed engine.
func RunResilient(g *Circuit, T int, opt ResilientOptions) (*ResilientResult, error) {
	// Counters must be readable afterwards, so ensure a Metrics
	// registry exists even when the caller did not ask for one.
	o := opt.Observer
	if o == nil {
		o = &Observer{}
	}
	if o.Metrics == nil {
		oo := *o
		oo.Metrics = NewMetrics()
		o = &oo
	}
	opt.Observer = o

	ladder := opt.Ladder
	if len(ladder) == 0 {
		ladder = defaultLadder
	}
	if opt.RetryReorder {
		expanded := make([]FoldMethod, 0, len(ladder)+1)
		for _, m := range ladder {
			expanded = append(expanded, m)
			if m == MethodFunctional {
				expanded = append(expanded, MethodFunctionalReorder)
			}
		}
		ladder = expanded
	}

	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}

	fallbacks0 := o.Counter(obs.MFoldFallbacks).Value()
	panics0 := o.Counter(obs.MFoldPanics).Value()
	selfFails0 := o.Counter(obs.MFoldSelfCheck).Value()

	rungs := make([]pipeline.Rung, len(ladder))
	for i, m := range ladder {
		method := m
		ro := opt.Options
		ro.Observer = o
		if b, ok := opt.RungBudgets[method]; ok {
			ro.Budget = b
			ro.Timeout = 0
		}
		rungs[i] = pipeline.Rung{
			Name:   string(method),
			Budget: ro.budget(),
			Attempt: func(*pipeline.Run) (any, error) {
				r, err := foldByMethod(g, T, method, ro)
				if err != nil {
					return nil, err
				}
				return r, nil
			},
			Verify: func(v any, run *pipeline.Run) error {
				return selfCheck(g, v.(*Result), opt, run)
			},
		}
	}

	v, attempts, err := pipeline.RunResilient(ctx, o, rungs)
	rr := &ResilientResult{
		Attempts:        attempts,
		Fallbacks:       o.Counter(obs.MFoldFallbacks).Value() - fallbacks0,
		PanicsRecovered: o.Counter(obs.MFoldPanics).Value() - panics0,
		SelfCheckFails:  o.Counter(obs.MFoldSelfCheck).Value() - selfFails0,
	}
	if err != nil {
		return rr, err
	}
	rr.Result = v.(*Result)
	rr.Method = FoldMethod(attempts[len(attempts)-1].Rung)
	if !opt.Trace {
		rr.Result.Report = nil
	}
	return rr, nil
}

// foldByMethod dispatches one rung to its engine.
func foldByMethod(g *Circuit, T int, m FoldMethod, opt Options) (*Result, error) {
	switch m {
	case MethodFunctional:
		return Functional(g, T, opt)
	case MethodFunctionalReorder:
		opt.Reorder = !opt.Reorder
		return Functional(g, T, opt)
	case MethodHybrid:
		return Hybrid(g, T, opt)
	case MethodStructural:
		return Structural(g, T, opt)
	}
	return nil, fmt.Errorf("circuitfold: unknown fold method %q", m)
}

// selfCheck gates a completed fold: bounded random simulation first,
// then an optional SAT equivalence spot-check of the unrolled fold.
func selfCheck(g *Circuit, r *Result, opt ResilientOptions, run *pipeline.Run) error {
	rounds := opt.SelfCheckRounds
	if rounds == 0 {
		rounds = 1
	}
	if rounds > 0 {
		// Fixed seed: a self-check must be reproducible to debug.
		if err := eqcheck.VerifyFoldWords(g, r, rounds, 0x5eed); err != nil {
			return err
		}
	}
	if opt.SelfCheckSAT > 0 {
		status, err := eqcheck.SATCheckFold(g, r, opt.SelfCheckSAT, run.Check)
		if err != nil {
			return err
		}
		if status == sat.Sat {
			return fmt.Errorf("circuitfold: SAT spot-check found a counterexample")
		}
		// Unknown: the budget ran out before a verdict; the simulation
		// check already passed, so treat as inconclusive-but-accepted.
	}
	return nil
}
