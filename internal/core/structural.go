package core

import (
	"context"
	"sort"

	"circuitfold/internal/aig"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
	"circuitfold/internal/seq"
)

// StructuralOptions configures StructuralFold.
type StructuralOptions struct {
	// Counter selects the frame counter implementation: a Binary
	// ceil(log2 T)-bit counter or a OneHot T-bit shift register
	// (Section IV).
	Counter Encoding
	// Ctx cancels the fold mid-stage; nil means no cancellation.
	Ctx context.Context
	// Budget bounds the fold's resources (wall clock; SAT conflicts
	// when PostOptimize sweeps).
	Budget pipeline.Budget
	// PostOptimize, when non-nil, runs the cleanup/balance/SAT-sweep
	// pipeline with these settings on the folded circuit's combinational
	// core before returning.
	PostOptimize *aig.SweepOptions
	// Obs, when non-nil, receives span traces and metrics for the whole
	// fold (see internal/obs). Nil disables observability at zero cost.
	Obs *obs.Observer
}

// StructuralFold folds the combinational circuit g by T time-frames using
// the structural method of Section IV, composed as the pipeline schedule
// → synth → [sweep]: inputs are split into T consecutive groups, gates
// are assigned to the earliest frame where all their fanins are
// available, frame-boundary values are carried in flip-flop chains, and
// outputs are muxed onto shared pins selected by a frame counter.
// Result.Report carries the per-stage trace.
func StructuralFold(g *aig.Graph, T int, opt StructuralOptions) (*Result, error) {
	if err := validateFoldArgs(g, T); err != nil {
		return nil, err
	}
	run := pipeline.NewRunObserved(opt.Ctx, opt.Budget, opt.Obs)
	return structuralFoldRun(g, T, opt, run)
}

// structuralFoldRun is StructuralFold over an existing run, so the
// hybrid method can execute its structural fallback under its own
// budget.
func structuralFoldRun(g *aig.Graph, T int, opt StructuralOptions, run *pipeline.Run) (*Result, error) {
	if T == 1 {
		return identityFold(g, run, "structural", opt.PostOptimize)
	}
	n := g.NumPIs()
	m := ceilDiv(n, T)

	type ffKey struct{ node, boundary int }
	var (
		layer   []int
		lastUse []int
		ffOrder []ffKey
		res     *Result
	)
	stages := []pipeline.Stage{
		{Name: pipeline.StageSchedule, Run: func(ss *pipeline.StageStats) error {
			ss.AndsIn = g.NumAnds()
			ss.AndsOut = g.NumAnds() // scheduling never rewrites the graph
			// Frame of every node: PIs get their group (1-based); an AND
			// gets the max of its fanins; constants belong to frame 1.
			layer = make([]int, g.NumNodes())
			layer[0] = 1
			for id := 1; id < g.NumNodes(); id++ {
				if pi := g.PIIndex(id); pi >= 0 {
					layer[id] = pi/m + 1
					continue
				}
				f0, f1 := g.Fanins(id)
				l := layer[f0.Node()]
				if l2 := layer[f1.Node()]; l2 > l {
					l = l2
				}
				layer[id] = l
			}

			// Last frame each node's value is consumed in: by later gates.
			// A node also lives to its own frame if it drives a PO (POs are
			// emitted in the producing frame, so they never extend lifetime).
			lastUse = make([]int, g.NumNodes())
			for id := 1; id < g.NumNodes(); id++ {
				lastUse[id] = layer[id]
			}
			for id := 1; id < g.NumNodes(); id++ {
				if !g.IsAnd(id) {
					continue
				}
				f0, f1 := g.Fanins(id)
				for _, f := range []aig.Lit{f0, f1} {
					u := f.Node()
					if u != 0 && layer[id] > lastUse[u] {
						lastUse[u] = layer[id]
					}
				}
			}

			// Flip-flop plan: node s needs a register at every boundary b
			// in [layer[s], lastUse[s]) (boundary b sits between frames b
			// and b+1).
			for id := 1; id < g.NumNodes(); id++ {
				for b := layer[id]; b < lastUse[id]; b++ {
					ffOrder = append(ffOrder, ffKey{id, b})
				}
			}
			sort.Slice(ffOrder, func(i, j int) bool {
				if ffOrder[i].node != ffOrder[j].node {
					return ffOrder[i].node < ffOrder[j].node
				}
				return ffOrder[i].boundary < ffOrder[j].boundary
			})
			return run.Check()
		}},
		{Name: pipeline.StageSynth, Run: func(ss *pipeline.StageStats) error {
			ss.AndsIn = g.NumAnds()
			cs := aig.New()
			pins := make([]aig.Lit, m)
			for j := range pins {
				pins[j] = cs.PI(pinName("x", j))
			}
			ffOut := make(map[ffKey]aig.Lit, len(ffOrder))
			for _, k := range ffOrder {
				ffOut[k] = cs.PI("")
			}
			// Counter pseudo-inputs.
			var sel []aig.Lit // sel[t] is true during frame t+1
			var ctrBits []aig.Lit
			switch opt.Counter {
			case OneHot:
				ctrBits = make([]aig.Lit, T)
				for i := range ctrBits {
					ctrBits[i] = cs.PI("")
				}
				sel = append(sel, ctrBits...)
			case Binary:
				k := 1
				for 1<<uint(k) < T {
					k++
				}
				ctrBits = make([]aig.Lit, k)
				for i := range ctrBits {
					ctrBits[i] = cs.PI("")
				}
				sel = make([]aig.Lit, T)
				for t := 0; t < T; t++ {
					terms := make([]aig.Lit, k)
					for i := 0; i < k; i++ {
						terms[i] = ctrBits[i].NotIf(t>>uint(i)&1 == 0)
					}
					sel[t] = cs.AndN(terms...)
				}
			}

			// fetch returns the value of fanin f as seen by a consumer in
			// frame t (1-based): directly when produced in the same frame,
			// otherwise from the register chain at boundary t-1.
			lits := make([]aig.Lit, g.NumNodes())
			lits[0] = aig.Const0
			fetch := func(f aig.Lit, t int) aig.Lit {
				u := f.Node()
				var v aig.Lit
				switch {
				case u == 0:
					v = aig.Const0
				case layer[u] == t:
					v = lits[u]
				default:
					v = ffOut[ffKey{u, t - 1}]
				}
				return v.NotIf(f.Compl())
			}
			for id := 1; id < g.NumNodes(); id++ {
				if id&0xfff == 0 {
					if err := run.Check(); err != nil {
						return err
					}
				}
				if pi := g.PIIndex(id); pi >= 0 {
					lits[id] = pins[pi%m]
					continue
				}
				f0, f1 := g.Fanins(id)
				lits[id] = cs.And(fetch(f0, layer[id]), fetch(f1, layer[id]))
			}

			// Output scheduling: PO i is produced in the frame of its driver.
			outSched := make([][]int, T)
			outLits := make([][]aig.Lit, T)
			for i := 0; i < g.NumPOs(); i++ {
				po := g.PO(i)
				t := layer[po.Node()]
				outSched[t-1] = append(outSched[t-1], i)
				outLits[t-1] = append(outLits[t-1], fetch(po, t))
			}
			mOut := 0
			for t := range outSched {
				if len(outSched[t]) > mOut {
					mOut = len(outSched[t])
				}
			}
			// Pin k output: mux of the frames that drive it, gated by sel.
			for k := 0; k < mOut; k++ {
				var users []int
				for t := 0; t < T; t++ {
					if k < len(outSched[t]) {
						users = append(users, t)
					}
				}
				var lit aig.Lit
				if len(users) == 1 {
					lit = outLits[users[0]][k]
				} else {
					terms := make([]aig.Lit, len(users))
					for i, t := range users {
						terms[i] = cs.And(sel[t], outLits[t][k])
					}
					lit = cs.OrN(terms...)
				}
				cs.AddPO(lit, pinName("y", k))
			}
			for t := range outSched {
				for len(outSched[t]) < mOut {
					outSched[t] = append(outSched[t], -1)
				}
			}

			// Next-state functions, in pseudo-input order: data registers
			// first, then the counter.
			next := make([]aig.Lit, 0, len(ffOrder)+len(ctrBits))
			init := make([]bool, 0, len(ffOrder)+len(ctrBits))
			for _, k := range ffOrder {
				if k.boundary == layer[k.node] {
					next = append(next, lits[k.node]) // first stage latches the value
				} else {
					next = append(next, ffOut[ffKey{k.node, k.boundary - 1}])
				}
				init = append(init, false)
			}
			switch opt.Counter {
			case OneHot:
				for i := 0; i < T; i++ {
					next = append(next, ctrBits[(i+T-1)%T]) // rotate
					init = append(init, i == 0)
				}
			case Binary:
				// cnt' = (cnt == T-1) ? 0 : cnt + 1
				k := len(ctrBits)
				isLast := sel[T-1]
				carry := aig.Const1
				for i := 0; i < k; i++ {
					s := cs.Xor(ctrBits[i], carry)
					carry = cs.And(ctrBits[i], carry)
					next = append(next, cs.And(s, isLast.Not()))
					init = append(init, false)
				}
			}

			inSched := make([][]int, T)
			for t := 0; t < T; t++ {
				row := make([]int, m)
				for j := 0; j < m; j++ {
					src := t*m + j
					if src >= n {
						src = -1
					}
					row[j] = src
				}
				inSched[t] = row
			}
			ss.AndsOut = cs.NumAnds()
			res = &Result{
				Seq:       &seq.Circuit{G: cs, NumInputs: m, Next: next, Init: init},
				T:         T,
				InSched:   inSched,
				OutSched:  outSched,
				States:    T,
				StatesMin: -1,
			}
			return nil
		}},
	}
	if opt.PostOptimize != nil {
		stages = append(stages, sweepStage(&res, opt.PostOptimize, run))
	}
	rep, err := pipeline.Execute(run, "structural", stages...)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	return res, nil
}
