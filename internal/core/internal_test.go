package core

import (
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
	"circuitfold/internal/gen"
	"circuitfold/internal/pipeline"
)

// TestDecomposeAtCutReconstructs checks the defining property of the cut
// decomposition: f = OR_i (cond_i AND leaf_i), with pairwise-disjoint
// conditions covering the whole space above the cut.
func TestDecomposeAtCutReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 6
		m := bdd.New(n)
		f := randomBDD(m, rng, n, 25)
		cut := 1 + rng.Intn(n-1)
		branches := decomposeAtCut(m, f, cut, nil)
		if len(branches) == 0 {
			t.Fatal("no branches")
		}
		recon := bdd.False
		cover := bdd.False
		for i, bi := range branches {
			if bi.cond == bdd.False {
				t.Fatal("empty branch condition")
			}
			if m.Level(bi.leaf) < cut {
				t.Fatalf("leaf above the cut: level %d < %d", m.Level(bi.leaf), cut)
			}
			recon = m.Or(recon, m.And(bi.cond, bi.leaf))
			if m.And(cover, bi.cond) != bdd.False {
				t.Fatal("branch conditions overlap")
			}
			cover = m.Or(cover, bi.cond)
			for j := 0; j < i; j++ {
				if branches[j].leaf == bi.leaf {
					t.Fatal("duplicate leaves in decomposition")
				}
			}
		}
		if recon != f {
			t.Fatalf("trial %d: reconstruction differs", trial)
		}
		if cover != bdd.True {
			t.Fatalf("trial %d: conditions do not cover the space", trial)
		}
	}
}

func TestDecomposeAtCutTrivialCases(t *testing.T) {
	m := bdd.New(4)
	// Function entirely below the cut: single branch with cond True.
	f := m.And(m.Var(2), m.Var(3))
	br := decomposeAtCut(m, f, 2, nil)
	if len(br) != 1 || br[0].cond != bdd.True || br[0].leaf != f {
		t.Fatalf("below-cut decomposition wrong: %+v", br)
	}
	// Constant function.
	br = decomposeAtCut(m, bdd.True, 2, nil)
	if len(br) != 1 || br[0].leaf != bdd.True {
		t.Fatalf("constant decomposition wrong: %+v", br)
	}
	// Function entirely above the cut: terminal leaves.
	g := m.Xor(m.Var(0), m.Var(1))
	br = decomposeAtCut(m, g, 2, nil)
	if len(br) != 2 {
		t.Fatalf("above-cut decomposition: %d branches, want 2", len(br))
	}
	for _, b := range br {
		if b.leaf != bdd.True && b.leaf != bdd.False {
			t.Fatal("leaves must be terminals")
		}
	}
}

func TestQuickDecompose(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		m := bdd.New(n)
		f := randomBDD(m, rng, n, 15)
		cut := 1 + rng.Intn(n-1)
		recon := bdd.False
		for _, bi := range decomposeAtCut(m, f, cut, nil) {
			recon = m.Or(recon, m.And(bi.cond, bi.leaf))
		}
		return recon == f
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOutputBDDsMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		g := randomAIG(rng, 40, 7, 4)
		m := bdd.New(7)
		varOf := make([]int, 7)
		for i := range varOf {
			varOf[i] = i
		}
		roots := make([]aig.Lit, g.NumPOs())
		for i := range roots {
			roots[i] = g.PO(i)
		}
		nodes, err := buildOutputBDDs(g, m, varOf, roots, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]bool, 7)
		for v := uint64(0); v < 128; v++ {
			for i := range in {
				in[i] = v>>uint(i)&1 == 1
			}
			want := g.Eval(in)
			for o, nd := range nodes {
				if m.Eval(nd, in) != want[o] {
					t.Fatalf("trial %d output %d differs at %d", trial, o, v)
				}
			}
		}
	}
}

func TestBuildOutputBDDsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomAIG(rng, 400, 24, 8)
	m := bdd.New(24)
	varOf := make([]int, 24)
	for i := range varOf {
		varOf[i] = i
	}
	roots := make([]aig.Lit, g.NumPOs())
	for i := range roots {
		roots[i] = g.PO(i)
	}
	if _, err := buildOutputBDDs(g, m, varOf, roots, 8, nil); err == nil {
		t.Fatal("tiny node budget should abort")
	} else if !errors.Is(err, pipeline.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestTimeFrameFoldDirect(t *testing.T) {
	// Fold a 2-bit equality comparator by hand-built schedule and check
	// the machine's behavior: out = (a0==b0) & (a1==b1), emitted frame 2.
	g := aig.New()
	a0 := g.PI("a0")
	b0 := g.PI("b0")
	a1 := g.PI("a1")
	b1 := g.PI("b1")
	g.AddPO(g.And(g.Xnor(a0, b0), g.Xnor(a1, b1)), "eq")

	sched, err := PinSchedule(g, 2, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	machine, states, err := TimeFrameFold(g, sched, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Frame-1 classes: "equal so far" and "already different" (+initial
	// +don't-care) -> 1 + 2 + 1 = 4.
	if states != 4 {
		t.Fatalf("states = %d, want 4", states)
	}
	if err := machine.Validate(); err != nil {
		t.Fatal(err)
	}
	// Behavior: feed both frames, read the second frame's output.
	for v := 0; v < 16; v++ {
		in1 := []bool{v&1 == 1, v&2 == 2}
		in2 := []bool{v&4 == 4, v&8 == 8}
		outs := machine.Simulate([][]bool{in1, in2})
		wantEq := (in1[0] == in1[1]) && (in2[0] == in2[1])
		// Locate the eq output pin in frame 2.
		pin := -1
		for k, po := range sched.OutSlot[1] {
			if po == 0 {
				pin = k
			}
		}
		if pin < 0 {
			t.Fatal("output not scheduled in frame 2")
		}
		got := outs[1][pin]
		if (got == 1) != wantEq {
			t.Fatalf("v=%d: got %v want %v", v, got, wantEq)
		}
	}
}

func randomBDD(m *bdd.Manager, rng *rand.Rand, n, ops int) bdd.Node {
	pool := []bdd.Node{bdd.True, bdd.False}
	for i := 0; i < n; i++ {
		pool = append(pool, m.Var(i))
	}
	for i := 0; i < ops; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			pool = append(pool, m.And(a, b))
		case 1:
			pool = append(pool, m.Or(a, b))
		default:
			pool = append(pool, m.Xor(a, b))
		}
	}
	return pool[len(pool)-1]
}

func randomAIG(rng *rand.Rand, ands, pis, pos int) *aig.Graph {
	g := aig.New()
	lits := []aig.Lit{aig.Const1}
	for i := 0; i < pis; i++ {
		lits = append(lits, g.PI(""))
	}
	for i := 0; i < ands; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < pos; i++ {
		g.AddPO(lits[len(lits)-1-rng.Intn(ands/2)].NotIf(rng.Intn(2) == 0), "")
	}
	return g
}

func TestTimeFrameFoldStateCapTypedError(t *testing.T) {
	// A 2-bit comparator folded by 2 frames needs 4 states (see
	// TestTimeFrameFoldDirect); a 2-state budget must abort with
	// ErrBudgetExceeded.
	g := aig.New()
	a0 := g.PI("a0")
	b0 := g.PI("b0")
	a1 := g.PI("a1")
	b1 := g.PI("b1")
	g.AddPO(g.And(g.Xnor(a0, b0), g.Xnor(a1, b1)), "eq")

	sched, err := PinSchedule(g, 2, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := pipeline.NewRun(nil, pipeline.Budget{MaxStates: 2})
	if _, _, err := TimeFrameFold(g, sched, 1, run); err == nil {
		t.Fatal("2-state cap should abort the fold")
	} else if !errors.Is(err, pipeline.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}

	// The same fold under a sufficient budget succeeds.
	run = pipeline.NewRun(nil, pipeline.Budget{MaxStates: 10})
	if _, states, err := TimeFrameFold(g, sched, 1, run); err != nil {
		t.Fatal(err)
	} else if states != 4 {
		t.Fatalf("states = %d, want 4", states)
	}
}

// TestBuildOutputBDDsCollects builds circuits whose dead intermediates
// pass the collection floor and checks the collected build against a
// collection-free reference build in a second manager: every output
// translates to exactly the reference's canonical node.
func TestBuildOutputBDDsCollects(t *testing.T) {
	for _, name := range []string{"arbiter", "apex2"} {
		g := gen.MustBuild(name)
		n := g.NumPIs()
		varOf := make([]int, n)
		for i := range varOf {
			varOf[i] = i
		}
		roots := make([]aig.Lit, g.NumPOs())
		for i := range roots {
			roots[i] = g.PO(i)
		}
		m := bdd.New(n)
		got, err := buildOutputBDDs(g, m, varOf, roots, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Stats().FreeNodes == 0 {
			t.Fatalf("%s: build never collected (%d arena nodes)", name, m.NumNodes())
		}
		ref := bdd.New(n)
		memo := map[int]bdd.Node{0: bdd.False}
		var build func(id int) bdd.Node
		build = func(id int) bdd.Node {
			if r, ok := memo[id]; ok {
				return r
			}
			var r bdd.Node
			if pi := g.PIIndex(id); pi >= 0 {
				r = ref.Var(pi)
			} else {
				f0, f1 := g.Fanins(id)
				b0, b1 := build(f0.Node()), build(f1.Node())
				if f0.Compl() {
					b0 = ref.Not(b0)
				}
				if f1.Compl() {
					b1 = ref.Not(b1)
				}
				r = ref.And(b0, b1)
			}
			memo[id] = r
			return r
		}
		tr := bdd.NewTranslator(m, ref, varOf)
		for i, root := range roots {
			want := build(root.Node())
			if root.Compl() {
				want = ref.Not(want)
			}
			if tr.Translate(got[i]) != want {
				t.Fatalf("%s output %d differs from the reference build", name, i)
			}
		}
		if m.NumNodes() >= ref.NumNodes() {
			t.Errorf("%s: collected arena %d nodes, reference %d", name, m.NumNodes(), ref.NumNodes())
		}
	}
}

// TestBuildOutputBDDsDeepChain builds a 1M-deep AND chain under a
// 32 MiB stack cap: the build walks the AIG with explicit stacks, so
// depth costs heap, not goroutine stack.
func TestBuildOutputBDDsDeepChain(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	g := aig.New()
	x := []aig.Lit{g.PI("a"), g.PI("b"), g.PI("c")}
	acc := x[0]
	const depth = 1 << 20
	for i := 0; i < depth; i++ {
		acc = g.And(acc.NotIf(i%2 == 1), x[i%3])
	}
	g.AddPO(acc, "y")
	m := bdd.New(3)
	out, err := buildOutputBDDs(g, m, []int{0, 1, 2}, []aig.Lit{acc}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, 3)
	for v := 0; v < 8; v++ {
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		if m.Eval(out[0], in) != g.Eval(in)[0] {
			t.Fatalf("chain output differs at %03b", v)
		}
	}
}
