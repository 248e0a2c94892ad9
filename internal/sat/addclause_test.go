package sat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// addClauseRef is the straightforward AddClause normalization — copy,
// sort.Slice, dedupe, drop tautologies and root-satisfied clauses, drop
// root-false literals — storing one heap clause per call. AddClause must
// leave the solver in exactly the state this reference does.
func addClauseRef(s *Solver, lits ...Lit) bool {
	if !s.ok {
		return false
	}
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true
		}
		switch s.value(l) {
		case lTrue:
			return true
		case lFalse:
			continue
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
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// sameState compares the observable clause-database state of two
// solvers: stored clauses literal for literal, watch lists as clause
// indices in order, the root trail and the ok flag.
func sameState(t *testing.T, got, want *Solver) {
	t.Helper()
	if got.ok != want.ok || !slices.Equal(got.trail, want.trail) || len(got.clauses) != len(want.clauses) {
		t.Fatalf("ok/trail/#clauses: got %v %v %d, want %v %v %d",
			got.ok, got.trail, len(got.clauses), want.ok, want.trail, len(want.clauses))
	}
	gi := make(map[*clause]int)
	wi := make(map[*clause]int)
	for i := range got.clauses {
		if !slices.Equal(got.clauses[i].lits, want.clauses[i].lits) {
			t.Fatalf("clause %d: got %v, want %v", i, got.clauses[i].lits, want.clauses[i].lits)
		}
		gi[got.clauses[i]], wi[want.clauses[i]] = i, i
	}
	for l := range got.watches {
		if len(got.watches[l]) != len(want.watches[l]) {
			t.Fatalf("watches[%d]: %d entries, want %d", l, len(got.watches[l]), len(want.watches[l]))
		}
		for k := range got.watches[l] {
			if gi[got.watches[l][k]] != wi[want.watches[l][k]] {
				t.Fatalf("watches[%d][%d] differ", l, k)
			}
		}
	}
}

func TestAddClauseMatchesSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		nv := 3 + rng.Intn(10)
		got, want := New(), New()
		got.Reserve(nv)
		for v := 0; v < nv; v++ {
			got.NewVar()
			want.NewVar()
		}
		for c := 0; c < 60 && want.ok; c++ {
			// Short lists over few variables make duplicates,
			// tautologies and root-assigned variables common; a few
			// long lists exercise the large-clause path.
			n := rng.Intn(6)
			if rng.Intn(20) == 0 {
				n = 20 + rng.Intn(40)
			}
			lits := make([]Lit, n)
			for i := range lits {
				lits[i] = MkLit(rng.Intn(nv), rng.Intn(2) == 0)
			}
			gr, wr := got.AddClause(lits...), addClauseRef(want, lits...)
			if gr != wr {
				t.Fatalf("round %d clause %v: AddClause = %v, reference = %v", round, lits, gr, wr)
			}
			sameState(t, got, want)
		}
		if gs, ws := got.Solve(), want.Solve(); gs != ws || got.stats != want.stats {
			t.Fatalf("round %d: solve %v %+v, reference %v %+v", round, gs, got.stats, ws, want.stats)
		}
	}
}

func TestRootTrueReportsOnlyLevelZero(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(lit(a))
	s.AddClause(nlit(a), nlit(b)) // propagates ¬b at level 0
	if !s.RootTrue(lit(a)) || s.RootTrue(nlit(a)) {
		t.Fatal("unit a not reported root-true")
	}
	if !s.RootTrue(nlit(b)) || s.RootTrue(lit(b)) {
		t.Fatal("propagated ¬b not reported root-true")
	}
	if s.RootTrue(lit(c)) || s.RootTrue(nlit(c)) {
		t.Fatal("unassigned c reported root-true")
	}
	s.AddClause(lit(b), lit(c), nlit(a)) // propagates c at level 0
	if !s.RootTrue(lit(c)) {
		t.Fatal("propagated c not reported root-true")
	}
	// A decision at level 1 is not a root fact, nor is anything it
	// implies.
	d, e := s.NewVar(), s.NewVar()
	s.AddClause(nlit(d), lit(e))
	s.newDecisionLevel()
	s.uncheckedEnqueue(lit(d), nil)
	if s.propagate() != nil {
		t.Fatal("unexpected conflict")
	}
	if s.value(lit(e)) != lTrue {
		t.Fatal("e not implied by d")
	}
	if s.RootTrue(lit(d)) || s.RootTrue(lit(e)) {
		t.Fatal("level-1 assignments reported root-true")
	}
	if !s.RootTrue(lit(a)) {
		t.Fatal("root fact lost above level 0")
	}
	s.cancelUntil(0)
	if s.RootTrue(lit(d)) || s.RootTrue(lit(e)) {
		t.Fatal("backtracked assignments reported root-true")
	}
}

func TestAddClauseAllocsAmortized(t *testing.T) {
	const nv = 8
	s := New()
	for v := 0; v < nv; v++ {
		s.NewVar()
	}
	rng := rand.New(rand.NewSource(1))
	clauses := make([][3]Lit, 4096)
	for i := range clauses {
		p := rng.Perm(nv)
		for j := range clauses[i] {
			clauses[i][j] = MkLit(p[j], rng.Intn(2) == 0)
		}
	}
	// Warm the watch lists and slabs, as any large formula does.
	for i := 0; i < 20000; i++ {
		c := clauses[i%len(clauses)]
		s.AddClause(c[0], c[1], c[2])
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		c := clauses[i%len(clauses)]
		i++
		s.AddClause(c[0], c[1], c[2])
	})
	if allocs > 0.1 {
		t.Fatalf("AddClause of a 3-literal clause: %.3f allocs/op, want <= 0.1", allocs)
	}
}
