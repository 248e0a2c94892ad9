// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, first
// unique implication point conflict analysis with clause minimization,
// VSIDS variable activities, phase saving, Luby restarts and activity-based
// learnt-clause database reduction.
//
// The solver backs the MeMin-style exact FSM minimizer and the SAT
// sweeping / combinational equivalence checking passes of this library.
package sat

import (
	"fmt"
	"slices"
	"sort"

	"circuitfold/internal/fault"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

// ErrResourceLimit reports that a hard resource cap installed with
// SetResourceLimit (total conflicts or live learnt-clause literals) was
// exceeded. It wraps pipeline.ErrBudgetExceeded so the cap reads as a
// budget failure everywhere the engine classifies errors. The search
// itself still returns Unknown — like a soft budget — and callers that
// need the reason read it back with ResourceErr.
var ErrResourceLimit = fmt.Errorf("sat: resource limit exceeded: %w", pipeline.ErrBudgetExceeded)

// Lit is a literal: variable index shifted left once, low bit set for a
// negated literal. Variables are numbered from 0.
type Lit int32

// MkLit builds a literal from a variable index and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota // budget exhausted
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits   []Lit
	act    float64
	learnt bool
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []*clause // problem clauses
	learnts []*clause
	watches [][]*clause // indexed by literal

	assign   []lbool // indexed by variable
	level    []int32
	reason   []*clause
	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	activity []float64
	varInc   float64
	order    varHeap
	phase    []bool  // saved phases
	seen     []bool  // scratch for analyze
	model    []lbool // assignment captured at the last Sat answer

	claInc float64

	// Problem clauses live in slab chunks: AddClause carves each stored
	// clause and its literals out of the current chunk instead of
	// allocating two heap objects per clause. Chunks are never
	// reallocated, so *clause pointers into them stay valid.
	clauseSlab []clause
	litSlab    []Lit
	addBuf     []Lit // AddClause normalization scratch

	ok           bool // false once UNSAT at level 0
	numConflicts int64
	budget       int64       // max conflicts per Solve; <=0 means unlimited
	interrupt    func() bool // polled during search; true aborts with Unknown

	// Hard resource caps (SetResourceLimit). Unlike budget, these are
	// lifetime caps meant to bound memory and CPU even across calls;
	// tripping one records limitErr and returns Unknown.
	hardConflicts  int64
	hardLearntLits int64
	learntLits     int64 // live literals across the learnt database
	limitErr       error // why the last Solve degraded to Unknown, or nil

	stats Stats

	// Observability hooks (nil when unobserved; all uses nil-safe).
	span          *obs.Span      // parent for per-call "sat.solve" spans
	mDecisions    *obs.Counter   // obs.MSATDecisions
	mPropagations *obs.Counter   // obs.MSATPropagations
	mRestarts     *obs.Counter   // obs.MSATRestarts
	mConflicts    *obs.Counter   // obs.MSATConflicts
	mLearned      *obs.Histogram // obs.MSATLearnedSize
	observed      bool
}

// Stats holds cumulative solver counters, accumulated across Solve calls.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
}

// Add accumulates b into a; the sweep engine uses it to aggregate the
// counters of its per-shard solvers.
func (a *Stats) Add(b Stats) {
	a.Conflicts += b.Conflicts
	a.Decisions += b.Decisions
	a.Propagations += b.Propagations
	a.Restarts += b.Restarts
	a.Learnt += b.Learnt
}

// Stats returns a snapshot of the solver's cumulative counters.
func (s *Solver) Stats() Stats { return s.stats }

// SetObserver attaches observability to the solver: each Solve call
// opens a "sat.solve" child span under span carrying the per-call stat
// deltas, and the sat.* counters / the learned-clause-size histogram of
// reg accumulate across calls. Either argument may be nil (the sweep
// engine passes metrics only, keeping traces small across its thousands
// of queries); nil+nil restores the zero-overhead unobserved state.
func (s *Solver) SetObserver(span *obs.Span, reg *obs.Registry) {
	s.span = span
	s.mDecisions = reg.Counter(obs.MSATDecisions)
	s.mPropagations = reg.Counter(obs.MSATPropagations)
	s.mRestarts = reg.Counter(obs.MSATRestarts)
	s.mConflicts = reg.Counter(obs.MSATConflicts)
	s.mLearned = reg.Histogram(obs.MSATLearnedSize)
	s.observed = span != nil || reg != nil
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order.s = s
	return s
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// Reserve pre-grows the per-variable arrays for n more variables, so a
// caller about to create many variables pays for one allocation per
// array instead of repeated append growth. It changes no state.
func (s *Solver) Reserve(n int) {
	s.assign = slices.Grow(s.assign, n)
	s.level = slices.Grow(s.level, n)
	s.reason = slices.Grow(s.reason, n)
	s.activity = slices.Grow(s.activity, n)
	s.phase = slices.Grow(s.phase, n)
	s.seen = slices.Grow(s.seen, n)
	s.watches = slices.Grow(s.watches, 2*n)
	s.order.heap = slices.Grow(s.order.heap, n)
	s.order.index = slices.Grow(s.order.index, n)
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assign) }

// SetBudget limits the number of conflicts in each subsequent Solve call;
// n <= 0 removes the limit. A Solve that exhausts the budget returns
// Unknown.
func (s *Solver) SetBudget(n int64) { s.budget = n }

// SetResourceLimit installs hard caps: conflicts bounds the solver's
// lifetime conflict total (across Solve calls, unlike SetBudget's
// per-call allowance), and learntLits bounds the live literal count of
// the learnt-clause database, which dominates solver memory. Zero
// leaves a cap unset. A Solve that trips a cap backtracks to level 0
// and returns Unknown, with ResourceErr reporting an
// ErrResourceLimit-matching cause.
func (s *Solver) SetResourceLimit(conflicts, learntLits int64) {
	s.hardConflicts = conflicts
	s.hardLearntLits = learntLits
}

// ResourceErr explains the last Unknown caused by a hard resource cap
// or an injected fault; nil after any other outcome.
func (s *Solver) ResourceErr() error { return s.limitErr }

// SetInterrupt installs a callback polled during the search (at every
// conflict and periodically between decisions). When it returns true
// the current Solve call backtracks to level 0 and returns Unknown.
// Pass nil to remove the hook. The callback must be cheap and safe to
// call from the goroutine running Solve.
func (s *Solver) SetInterrupt(f func() bool) { s.interrupt = f }

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// RootTrue reports whether literal l is true at decision level 0, i.e.
// fixed by the clauses added so far. Assignments made by a search in
// progress (visible from an interrupt callback) do not count. A clause
// holding a root-true literal is one AddClause would drop unchanged, so
// callers building large formulas can skip constructing it.
func (s *Solver) RootTrue(l Lit) bool {
	v := l.Var()
	return s.level[v] == 0 && s.value(l) == lTrue
}

// AddClause adds a clause over the given literals. It returns false when
// the formula is already unsatisfiable at level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Sort, dedupe, detect tautology, drop false literals. A tautology
	// or a root-satisfied clause returns before any state changes.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newProblemClause(out)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// Slab chunk bounds: each new chunk is sized to what is already stored
// (so total slab capacity grows geometrically), clamped so small solvers
// stay small and huge ones do not over-reserve.
const (
	minSlabClauses = 32
	maxSlabClauses = 4096
	minSlabLits    = 128
	maxSlabLits    = 16384
)

// newProblemClause copies lits into the literal slab and returns a
// clause carved from the clause slab.
func (s *Solver) newProblemClause(lits []Lit) *clause {
	if len(s.clauseSlab) == cap(s.clauseSlab) {
		s.clauseSlab = make([]clause, 0, min(max(len(s.clauses), minSlabClauses), maxSlabClauses))
	}
	if len(lits) > cap(s.litSlab)-len(s.litSlab) {
		s.litSlab = make([]Lit, 0, max(min(max(2*cap(s.litSlab), minSlabLits), maxSlabLits), len(lits)))
	}
	i := len(s.litSlab)
	s.litSlab = append(s.litSlab, lits...)
	s.clauseSlab = append(s.clauseSlab, clause{lits: s.litSlab[i:len(s.litSlab):len(s.litSlab)]})
	return &s.clauseSlab[len(s.clauseSlab)-1]
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0]] = append(s.watches[c.lits[0]], c)
	s.watches[c.lits[1]] = append(s.watches[c.lits[1]], c)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause
// or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[falseLit]
		j := 0
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Make sure the false literal is lits[1].
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If the other watch is true, clause is satisfied.
			if s.value(c.lits[0]) == lTrue {
				ws[j] = c
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1]] = append(s.watches[c.lits[1]], c)
					found = true
					break
				}
			}
			if found {
				continue // clause removed from this watch list
			}
			// Clause is unit or conflicting.
			ws[j] = c
			j++
			if s.value(c.lits[0]) == lFalse {
				// Conflict: keep remaining watchers, restore list.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[falseLit] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(c.lits[0], c)
		}
		s.watches[falseLit] = ws[:j]
	}
	return nil
}

// analyze performs 1UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.level[v]) == s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal on the trail at the current level.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		confl = s.reason[v]
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. The seen
	// flags of dropped literals must still be cleared afterwards.
	marked := append([]Lit(nil), learnt[1:]...)
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			out = append(out, q)
		}
	}
	learnt = out

	// Compute backtrack level = max level among non-asserting literals.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	for _, q := range marked {
		s.seen[q.Var()] = false
	}
	return learnt, bt
}

// redundant reports whether literal q of a learnt clause is implied by the
// remaining clause literals through its reason clause (local, one-level
// minimization).
func (s *Solver) redundant(q Lit) bool {
	r := s.reason[q.Var()]
	if r == nil {
		return false
	}
	for _, l := range r.lits {
		v := l.Var()
		if l != q.Not() && !s.seen[v] && s.level[v] > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Neg()
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for _, l := range s.learnts {
			l.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			return v
		}
	}
}

// reduceDB removes the least active half of the learnt clauses (binary
// clauses and current reasons are kept).
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.learnts[i].act < s.learnts[j].act })
	locked := make(map[*clause]bool)
	for v := range s.reason {
		if s.reason[v] != nil {
			locked[s.reason[v]] = true
		}
	}
	keep := s.learnts[:0]
	removed := make(map[*clause]bool)
	for i, c := range s.learnts {
		if len(c.lits) <= 2 || locked[c] || i >= len(s.learnts)/2 {
			keep = append(keep, c)
		} else {
			removed[c] = true
			s.learntLits -= int64(len(c.lits))
		}
	}
	s.learnts = keep
	if len(removed) == 0 {
		return
	}
	for li := range s.watches {
		ws := s.watches[li]
		j := 0
		for _, c := range ws {
			if !removed[c] {
				ws[j] = c
				j++
			}
		}
		s.watches[li] = ws[:j]
	}
}

// luby computes the Luby restart sequence term i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<uint(k))-1 {
			return int64(1) << uint(k-1)
		}
		if i >= int64(1)<<uint(k-1) && i < (int64(1)<<uint(k))-1 {
			return luby(i - (int64(1) << uint(k-1)) + 1)
		}
	}
}

// Solve searches for a satisfying assignment under the given assumptions.
// When an observer is attached (SetObserver), the call is wrapped in a
// "sat.solve" span and its stat deltas feed the sat.* metrics.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.limitErr = nil
	if err := fault.Point(fault.PointSATSolve); err != nil {
		// Error-mode injection degrades the call to Unknown — the same
		// shape as budget exhaustion — with the cause in ResourceErr.
		// (Panic mode unwinds out of Point to the recover boundaries.)
		s.limitErr = err
		return Unknown
	}
	if !s.observed {
		return s.search(assumptions)
	}
	sp := s.span.Child("sat.solve", "sat")
	before := s.stats
	st := s.search(assumptions)
	d := s.stats
	d.Conflicts -= before.Conflicts
	d.Decisions -= before.Decisions
	d.Propagations -= before.Propagations
	d.Restarts -= before.Restarts
	sp.SetStr("status", st.String())
	sp.SetInt("vars", int64(len(s.assign)))
	sp.SetInt("conflicts", d.Conflicts)
	sp.SetInt("decisions", d.Decisions)
	sp.SetInt("propagations", d.Propagations)
	sp.End()
	s.mConflicts.Add(d.Conflicts)
	s.mDecisions.Add(d.Decisions)
	s.mPropagations.Add(d.Propagations)
	s.mRestarts.Add(d.Restarts)
	return st
}

// search is the CDCL main loop behind Solve.
func (s *Solver) search(assumptions []Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.ok = false
		return Unsat
	}

	conflictsAtStart := s.numConflicts
	restart := int64(1)
	restartBudget := luby(restart) * 100
	conflictsSinceRestart := int64(0)
	maxLearnts := int64(len(s.clauses)/3 + 100)

	for {
		confl := s.propagate()
		if confl != nil {
			s.numConflicts++
			s.stats.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			if s.decisionLevel() <= len(assumptions) {
				// Conflict depends only on assumptions.
				s.cancelUntil(0)
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			s.mLearned.Observe(int64(len(learnt)))
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true, act: s.claInc}
				s.learnts = append(s.learnts, c)
				s.learntLits += int64(len(learnt))
				s.stats.Learnt++
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			if s.budget > 0 && s.numConflicts-conflictsAtStart >= s.budget {
				s.cancelUntil(0)
				return Unknown
			}
			if s.hardConflicts > 0 && s.numConflicts >= s.hardConflicts {
				s.limitErr = fmt.Errorf("%w: %d conflicts", ErrResourceLimit, s.numConflicts)
				s.cancelUntil(0)
				return Unknown
			}
			if s.hardLearntLits > 0 && s.learntLits > s.hardLearntLits {
				s.limitErr = fmt.Errorf("%w: %d learnt literals", ErrResourceLimit, s.learntLits)
				s.cancelUntil(0)
				return Unknown
			}
			if s.interrupt != nil && s.interrupt() {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		if conflictsSinceRestart >= restartBudget {
			restart++
			restartBudget = luby(restart) * 100
			conflictsSinceRestart = 0
			s.stats.Restarts++
			s.cancelUntil(len(assumptions))
			continue
		}
		if int64(len(s.learnts)) >= maxLearnts {
			maxLearnts += maxLearnts / 10
			s.reduceDB()
		}

		// Decide.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // dummy level, keeps indexing aligned
			case lFalse:
				s.cancelUntil(0)
				return Unsat
			default:
				s.newDecisionLevel()
				s.uncheckedEnqueue(a, nil)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			// All variables assigned: capture the model, then undo the
			// search so the solver can keep accepting clauses.
			s.model = append(s.model[:0], s.assign...)
			s.cancelUntil(0)
			return Sat
		}
		s.stats.Decisions++
		// Conflict-free instances never reach the per-conflict
		// interrupt check, so poll between decisions too.
		if s.interrupt != nil && s.stats.Decisions&0xff == 0 && s.interrupt() {
			s.cancelUntil(0)
			return Unknown
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), nil)
	}
}

// Value returns the value of variable v in the last satisfying assignment
// (true/false); it must only be called after Solve returned Sat.
func (s *Solver) Value(v int) bool { return s.model[v] == lTrue }

// ValueLit returns the truth value of a literal in the model.
func (s *Solver) ValueLit(l Lit) bool {
	if l.Neg() {
		return s.model[l.Var()] == lFalse
	}
	return s.model[l.Var()] == lTrue
}

// Model returns a copy of the last satisfying assignment.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	for v := range m {
		m[v] = s.model[v] == lTrue
	}
	return m
}

// varHeap is a max-heap on variable activity with lazy deletion support.
type varHeap struct {
	s     *Solver
	heap  []int
	index []int // position of variable in heap, -1 when absent
}

func (h *varHeap) less(a, b int) bool { return h.s.activity[a] > h.s.activity[b] }

func (h *varHeap) push(v int) {
	for len(h.index) <= v {
		h.index = append(h.index, -1)
	}
	if h.index[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.index[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.index[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if v < len(h.index) && h.index[v] >= 0 {
		h.up(h.index[v])
	}
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < len(h.heap) && h.less(h.heap[l], h.heap[sm]) {
			sm = l
		}
		if r < len(h.heap) && h.less(h.heap[r], h.heap[sm]) {
			sm = r
		}
		if sm == i {
			return
		}
		h.swap(i, sm)
		i = sm
	}
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.index[h.heap[i]] = i
	h.index[h.heap[j]] = j
}
