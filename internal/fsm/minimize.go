package fsm

import (
	"encoding/binary"
	"fmt"
	"time"

	"circuitfold/internal/bdd"
	"circuitfold/internal/fault"
	"circuitfold/internal/obs"
	"circuitfold/internal/sat"
)

// MinimizeOptions bounds the exact minimization, mirroring the paper's
// 300-second MeMin timeout: work beyond any bound aborts with an error
// (reported as "-" in the tables).
type MinimizeOptions struct {
	// MaxAtoms bounds the explicit input-partition size.
	MaxAtoms int
	// ConflictBudget bounds each SAT solve; 0 means unlimited.
	ConflictBudget int64
	// MaxLearntLits hard-caps each solver's learnt-clause database (in
	// live literals), bounding solver memory; 0 means unlimited. See
	// sat.SetResourceLimit.
	MaxLearntLits int64
	// Timeout bounds the total wall-clock time; 0 means unlimited.
	Timeout time.Duration
	// MaxClasses bounds the number of classes tried before giving up.
	MaxClasses int
	// MaxStates skips minimization of machines above this size (0 means
	// 400); the paper's large instances also time out and run "nm".
	MaxStates int
	// Stop, when non-nil, is polled during compatibility analysis and
	// inside each SAT solve; a non-nil result aborts minimization with
	// that error (typically pipeline.ErrCanceled/ErrBudgetExceeded).
	Stop func() error
	// Span, when non-nil, is the parent under which each class-count
	// attempt opens a "memin.iter" child span (and its SAT solve a
	// nested "sat.solve" span).
	Span *obs.Span
	// Metrics, when non-nil, receives the fsm.states gauge and the
	// solver's sat.* counters.
	Metrics *obs.Registry
}

// DefaultMinimizeOptions returns the bounds used by the experiment
// harness.
func DefaultMinimizeOptions() MinimizeOptions {
	return MinimizeOptions{MaxAtoms: 2048, ConflictBudget: 500000, Timeout: 30 * time.Second, MaxStates: 400}
}

// Minimize performs SAT-based exact minimization of the incompletely
// specified machine in the style of MeMin: it computes pairwise state
// compatibility, derives a lower bound from a greedy clique of mutually
// incompatible states, and searches for the smallest closed cover of
// compatible classes by solving a sequence of SAT instances. It returns
// the minimized machine. The result covers the original behavior: on any
// input sequence, wherever the original machine's output is specified the
// minimized machine agrees. The second result totals the SAT conflicts
// of every solve, a failed minimization's included, so callers can charge
// them to a run's conflict budget.
func Minimize(m *Machine, opt MinimizeOptions) (*Machine, int64, error) {
	start := time.Now()
	var stopErr error
	deadline := func() bool {
		if opt.Stop != nil {
			if err := opt.Stop(); err != nil {
				stopErr = err
				return true
			}
		}
		return opt.Timeout > 0 && time.Since(start) > opt.Timeout
	}
	if opt.MaxAtoms <= 0 {
		opt.MaxAtoms = 2048
	}
	n := m.NumStates()
	if n == 0 {
		return nil, 0, fmt.Errorf("fsm: empty machine")
	}
	if opt.MaxStates > 0 && n > opt.MaxStates {
		return nil, 0, fmt.Errorf("fsm: %d states exceeds minimization bound %d", n, opt.MaxStates)
	}
	opt.Metrics.Gauge(obs.MFSMStates).Set(int64(n))
	atoms, err := m.Atoms(opt.MaxAtoms)
	if err != nil {
		return nil, 0, err
	}
	na := len(atoms)

	// Explicit behavior tables per state and atom. Atoms refine every
	// condition, so one representative minterm per atom decides which
	// transition (if any) the whole atom takes — far cheaper than BDD
	// intersections per (state, atom, transition) triple.
	reps := make([][]bool, na)
	for a, atom := range atoms {
		rep, ok := m.Mgr.AnySat(atom)
		if !ok {
			return nil, 0, fmt.Errorf("fsm: empty atom in partition")
		}
		reps[a] = rep
	}
	succ := make([][]int, n)
	outs := make([][][]Tri, n)
	for s := 0; s < n; s++ {
		succ[s] = make([]int, na)
		outs[s] = make([][]Tri, na)
		for a := range succ[s] {
			succ[s][a] = DontCare
			if tr, ok := m.Lookup(s, reps[a]); ok {
				succ[s][a] = tr.Dst
				outs[s][a] = tr.Out
			}
		}
	}

	// Pairwise incompatibility fixpoint.
	incompat := make([][]bool, n)
	for i := range incompat {
		incompat[i] = make([]bool, n)
	}
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			for a := 0; a < na; a++ {
				if conflictingOutputs(outs[s][a], outs[t][a]) {
					incompat[s][t], incompat[t][s] = true, true
					break
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for s := 0; s < n; s++ {
			for t := s + 1; t < n; t++ {
				if incompat[s][t] {
					continue
				}
				for a := 0; a < na; a++ {
					u, v := succ[s][a], succ[t][a]
					if u != DontCare && v != DontCare && incompat[u][v] {
						incompat[s][t], incompat[t][s] = true, true
						changed = true
						break
					}
				}
			}
		}
		if deadline() {
			if stopErr != nil {
				return nil, 0, fmt.Errorf("fsm: minimization stopped during compatibility analysis: %w", stopErr)
			}
			return nil, 0, fmt.Errorf("fsm: minimization timeout during compatibility analysis")
		}
	}

	// Greedy clique of mutually incompatible states: a lower bound on the
	// class count and a partial solution for symmetry breaking.
	deg := make([]int, n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if incompat[s][t] {
				deg[s]++
			}
		}
	}
	var clique []int
	for {
		best, bestDeg := -1, -1
		for s := 0; s < n; s++ {
			ok := true
			for _, c := range clique {
				if !incompat[s][c] {
					ok = false
					break
				}
			}
			if ok && deg[s] > bestDeg {
				best, bestDeg = s, deg[s]
			}
		}
		if best < 0 {
			break
		}
		clique = append(clique, best)
		deg[best] = -2 // do not pick twice
	}
	lower := len(clique)
	if lower == 0 {
		lower = 1
	}

	maxK := n
	if opt.MaxClasses > 0 && opt.MaxClasses < maxK {
		maxK = opt.MaxClasses
	}
	var conflicts int64
	for k := lower; k <= maxK; k++ {
		if deadline() {
			if stopErr != nil {
				return nil, conflicts, fmt.Errorf("fsm: minimization stopped at k=%d: %w", k, stopErr)
			}
			return nil, conflicts, fmt.Errorf("fsm: minimization timeout at k=%d", k)
		}
		if err := fault.Point(fault.PointMeMinIter); err != nil {
			return nil, conflicts, fmt.Errorf("fsm: minimization fault at k=%d: %w", k, err)
		}
		mm, status, c := trySolve(m, atoms, succ, outs, incompat, clique, k, opt)
		conflicts += c
		switch status {
		case sat.Sat:
			return mm, conflicts, nil
		case sat.Unknown:
			if opt.Stop != nil {
				if err := opt.Stop(); err != nil {
					return nil, conflicts, fmt.Errorf("fsm: minimization stopped at k=%d: %w", k, err)
				}
			}
			// Out of conflicts or learnt-literal headroom either way:
			// classify as a resource-limit (and so budget) failure.
			return nil, conflicts, fmt.Errorf("fsm: SAT budget exhausted at k=%d: %w", k, sat.ErrResourceLimit)
		}
	}
	return nil, conflicts, fmt.Errorf("fsm: no solution up to %d classes", maxK)
}

// conflictingOutputs reports whether two output rows disagree on a
// commonly specified position. Unspecified rows (nil) never conflict.
func conflictingOutputs(a, b []Tri) bool {
	if a == nil || b == nil {
		return false
	}
	for i := range a {
		if a[i] != X && b[i] != X && a[i] != b[i] {
			return true
		}
	}
	return false
}

// trySolve encodes "a closed cover with k classes exists" into SAT and
// extracts the minimized machine when satisfiable. It also returns the
// solve's conflict count.
func trySolve(m *Machine, atoms []bdd.Node, succ [][]int, outs [][][]Tri,
	incompat [][]bool, clique []int, k int, opt MinimizeOptions) (*Machine, sat.Status, int64) {
	n := m.NumStates()
	na := len(atoms)
	sp := opt.Span.Child("memin.iter", "fsm")
	sp.SetInt("k", int64(k))
	sp.SetInt("states", int64(n))
	sp.SetInt("atoms", int64(na))
	defer sp.End()
	s2 := sat.New()
	if opt.Span != nil || opt.Metrics != nil {
		s2.SetObserver(sp, opt.Metrics)
	}
	if opt.ConflictBudget > 0 {
		s2.SetBudget(opt.ConflictBudget)
	}
	if opt.MaxLearntLits > 0 {
		s2.SetResourceLimit(0, opt.MaxLearntLits)
	}
	if opt.Stop != nil {
		s2.SetInterrupt(func() bool { return opt.Stop() != nil })
	}
	s2.Reserve(n*k + k*k*na)
	// mem[s][i]: state s belongs to class i.
	mem := make([][]int, n)
	for s := range mem {
		mem[s] = make([]int, k)
		for i := range mem[s] {
			mem[s][i] = s2.NewVar()
		}
	}
	// nxt[i][a][j]: the successor class of class i under atom a is j.
	nxt := make([][][]int, k)
	for i := range nxt {
		nxt[i] = make([][]int, na)
		for a := range nxt[i] {
			nxt[i][a] = make([]int, k)
			for j := range nxt[i][a] {
				nxt[i][a][j] = s2.NewVar()
			}
		}
	}
	pos := func(v int) sat.Lit { return sat.MkLit(v, false) }
	neg := func(v int) sat.Lit { return sat.MkLit(v, true) }

	// Symmetry breaking: clique states are pinned to distinct classes.
	for c, s := range clique {
		if c >= k {
			break
		}
		s2.AddClause(pos(mem[s][c]))
		for i := 0; i < k; i++ {
			if i != c {
				s2.AddClause(neg(mem[s][i]))
			}
		}
	}
	// Covering: every state is in some class.
	for s := 0; s < n; s++ {
		cl := make([]sat.Lit, k)
		for i := 0; i < k; i++ {
			cl[i] = pos(mem[s][i])
		}
		s2.AddClause(cl...)
	}
	// Consistency: incompatible states never share a class.
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if !incompat[s][t] {
				continue
			}
			for i := 0; i < k; i++ {
				s2.AddClause(neg(mem[s][i]), neg(mem[t][i]))
			}
		}
	}
	// Closure: if state s (with a defined successor under atom a) is in
	// class i, and class i maps atom a to class j, then succ(s,a) is in
	// class j. Each (i,a) maps somewhere.
	//
	// The clique pins most mem[s][i] false at level 0, which satisfies
	// nearly all of the k²·atoms·states closure clauses before they are
	// built. AddClause would drop such a clause without touching the
	// solver, so skipping it keeps the stored clause database, and with
	// it the search, exactly as if every clause had been added.
	somewhere := make([]sat.Lit, k)
	for i := 0; i < k; i++ {
		for a := 0; a < na; a++ {
			for j := 0; j < k; j++ {
				somewhere[j] = pos(nxt[i][a][j])
			}
			s2.AddClause(somewhere...)
			for s := 0; s < n; s++ {
				d := succ[s][a]
				if d == DontCare || s2.RootTrue(neg(mem[s][i])) {
					continue
				}
				for j := 0; j < k; j++ {
					l1, l2 := neg(nxt[i][a][j]), pos(mem[d][j])
					if s2.RootTrue(l1) || s2.RootTrue(l2) {
						continue
					}
					s2.AddClause(neg(mem[s][i]), l1, l2)
				}
			}
		}
	}

	status := s2.Solve()
	conflicts := s2.Stats().Conflicts
	sp.SetStr("status", status.String())
	if status != sat.Sat {
		return nil, status, conflicts
	}

	// Extract the minimized machine.
	members := make([][]int, k)
	for s := 0; s < n; s++ {
		for i := 0; i < k; i++ {
			if s2.Value(mem[s][i]) {
				members[i] = append(members[i], s)
			}
		}
	}
	initial := -1
	for i := 0; i < k; i++ {
		for _, s := range members[i] {
			if s == m.Initial {
				initial = i
				break
			}
		}
		if initial >= 0 {
			break
		}
	}
	trans := make([][]Transition, k)
	outBuf := make([]Tri, m.NumOutputs)
	var key []byte
	for i := 0; i < k; i++ {
		// Group atoms by (joined outputs, successor class), keyed by
		// the outputs' bytes followed by the successor's four bytes.
		type beh struct {
			out []Tri
			dst int
			cnd bdd.Node
		}
		var behs []beh
		index := make(map[string]int)
		for a := 0; a < na; a++ {
			out := outBuf
			for o := range out {
				out[o] = X
			}
			specified := false
			for _, s := range members[i] {
				if outs[s][a] == nil {
					continue
				}
				for o, v := range outs[s][a] {
					if v != X {
						out[o] = v
						specified = true
					}
				}
			}
			dst := DontCare
			anySucc := false
			for _, s := range members[i] {
				if succ[s][a] != DontCare {
					anySucc = true
					break
				}
			}
			if anySucc {
				for j := 0; j < k; j++ {
					if s2.Value(nxt[i][a][j]) {
						dst = j
						break
					}
				}
			}
			if !specified && dst == DontCare {
				continue // fully unspecified: leave uncovered
			}
			key = key[:0]
			for _, v := range out {
				key = append(key, byte(v))
			}
			key = binary.LittleEndian.AppendUint32(key, uint32(int32(dst)))
			if bi, ok := index[string(key)]; ok {
				behs[bi].cnd = m.Mgr.Or(behs[bi].cnd, atoms[a])
			} else {
				index[string(key)] = len(behs)
				behs = append(behs, beh{out: append([]Tri(nil), out...), dst: dst, cnd: atoms[a]})
			}
		}
		for _, b := range behs {
			trans[i] = append(trans[i], Transition{Cond: b.cnd, Out: b.out, Dst: b.dst})
		}
	}
	return &Machine{
		Mgr:        m.Mgr,
		NumInputs:  m.NumInputs,
		NumOutputs: m.NumOutputs,
		Initial:    initial,
		Trans:      trans,
	}, sat.Sat, conflicts
}
