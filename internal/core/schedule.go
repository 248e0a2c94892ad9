package core

import (
	"errors"
	"fmt"
	"sort"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
	"circuitfold/internal/pipeline"
)

// Schedule is a pin schedule for folding by T frames: which original
// input feeds each input pin in each frame, and which original output
// each output pin produces in each frame.
type Schedule struct {
	T int
	// M is the input pin count, ceil(n/T).
	M int
	// InSlot[t][j] is the original PI presented on pin j in frame t, or
	// -1 for a dummy slot.
	InSlot [][]int
	// OutSlot[t][k] is the original PO produced on pin k in frame t, or
	// -1 for a null output.
	OutSlot [][]int
	// FrameOfPO[i] is the frame (0-based) output i is scheduled in.
	FrameOfPO []int
	// SlotOfPI[i] is the global input slot (frame*M + pin) of input i.
	SlotOfPI []int
	// BDDHint is the peak BDD manager size observed while building the
	// scheduling BDDs (0 when reordering was off). TimeFrameFold uses
	// it to presize its folding manager, skipping the unique-table
	// growth rehashes the schedule stage already paid for.
	BDDHint int
}

// ScheduleOptions configures PinSchedule. Resource limits (BDD node
// budget, wall clock) come from the pipeline.Run the schedule executes
// under, not from this struct.
type ScheduleOptions struct {
	// Reorder enables the optional BDD symmetric-sifting reordering of
	// each frame's fresh support (Algorithm 2, line 4; config "r"/"nr").
	Reorder bool
	// MaxSiftNodes skips reordering a frame whose scheduling BDDs exceed
	// this live-node count (sifting cost grows with it); 0 means 30000.
	MaxSiftNodes int
	// MaxSiftVars skips reordering frames with more fresh variables than
	// this (0 means 32).
	MaxSiftVars int
}

// PinSchedule runs Algorithms 1 and 2: outputs are scheduled greedily in
// ascending support-size order into the earliest frame whose accumulated
// support fits, then inputs are queued in first-use order (optionally
// reordered per frame by symmetric sifting to shrink the scheduling BDDs)
// and split evenly into T groups. It runs without budgets; use
// PinScheduleRun to bound the reordering work.
func PinSchedule(g *aig.Graph, T int, opt ScheduleOptions) (*Schedule, error) {
	return PinScheduleRun(g, T, opt, nil)
}

// PinScheduleRun is PinSchedule executing under a pipeline.Run: the
// run's wall deadline and BDD node budget bound the per-frame
// reordering work. Frames past the deadline keep their natural order —
// the schedule stays valid — so a budget-bound schedule degrades
// gracefully instead of failing; only a cancelled context aborts with
// an error.
func PinScheduleRun(g *aig.Graph, T int, opt ScheduleOptions, run *pipeline.Run) (*Schedule, error) {
	if err := validateFoldArgs(g, T); err != nil {
		return nil, err
	}
	n := g.NumPIs()
	m := ceilDiv(n, T)
	if opt.MaxSiftNodes <= 0 {
		opt.MaxSiftNodes = 30000
	}
	if opt.MaxSiftVars <= 0 {
		opt.MaxSiftVars = 32
	}
	expired := func() bool { return run.Stop() }
	supports := g.SupportSets()

	// Algorithm 1: OutputSchedule.
	order := make([]int, g.NumPOs())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(supports[order[a]]) < len(supports[order[b]])
	})
	inSup := make([]bool, n)
	supSize := 0
	frameOfPO := make([]int, g.NumPOs())
	outFrames := make([][]int, T)
	for _, w := range order {
		for _, u := range supports[w] {
			if !inSup[u] {
				inSup[u] = true
				supSize++
			}
		}
		t := ceilDiv(supSize, m)
		if t < 1 {
			t = 1
		}
		if t > T {
			t = T
		}
		frameOfPO[w] = t - 1
		outFrames[t-1] = append(outFrames[t-1], w)
	}

	// Algorithm 2: InputSchedule.
	queued := make([]bool, n)
	var que []int
	bddHint := 0
	for t := 0; t < T; t++ {
		// Fresh support of this frame's outputs, in PI-index order.
		fresh := make(map[int]bool)
		for _, w := range outFrames[t] {
			for _, u := range supports[w] {
				if !queued[u] {
					fresh[u] = true
				}
			}
		}
		var xsup []int
		for u := range fresh {
			xsup = append(xsup, u)
		}
		sort.Ints(xsup)
		if opt.Reorder && len(xsup) > 1 && len(xsup) <= opt.MaxSiftVars && !expired() {
			if reord, err := reorderProtected(g, que, xsup, outFrames[t], opt.MaxSiftNodes, run, &bddHint); err == nil {
				xsup = reord
			}
			// On budget exhaustion — or a node-cap / panic unwind out of
			// the sifting manager — the unreordered order is kept; the
			// schedule stays valid either way.
		}
		for _, u := range xsup {
			queued[u] = true
			que = append(que, u)
		}
	}
	// Inputs in no output's support go last; they influence nothing.
	for u := 0; u < n; u++ {
		if !queued[u] {
			que = append(que, u)
		}
	}

	// Cancellation aborts; only budget expiry degrades. expired() above
	// also fires when the context is cancelled — a dying process —
	// and a schedule whose remaining frames silently kept their natural
	// order is valid but not the schedule an uninterrupted run computes.
	// Returning it would let the pipeline checkpoint it, poisoning every
	// future resume with a different (if correct) fold. Cancellation is
	// sticky, so one check here catches any frame it could have
	// influenced.
	if err := run.Check(); err != nil && errors.Is(err, pipeline.ErrCanceled) {
		return nil, err
	}

	s := &Schedule{
		T:         T,
		M:         m,
		FrameOfPO: frameOfPO,
		SlotOfPI:  make([]int, n),
		BDDHint:   bddHint,
	}
	s.InSlot = make([][]int, T)
	for t := 0; t < T; t++ {
		row := make([]int, m)
		for j := 0; j < m; j++ {
			slot := t*m + j
			if slot < len(que) {
				row[j] = que[slot]
				s.SlotOfPI[que[slot]] = slot
			} else {
				row[j] = -1
			}
		}
		s.InSlot[t] = row
	}
	mOut := 0
	for t := range outFrames {
		if len(outFrames[t]) > mOut {
			mOut = len(outFrames[t])
		}
	}
	s.OutSlot = make([][]int, T)
	for t := 0; t < T; t++ {
		row := make([]int, mOut)
		copy(row, outFrames[t])
		for k := len(outFrames[t]); k < mOut; k++ {
			row[k] = -1
		}
		s.OutSlot[t] = row
	}
	return s, nil
}

// reorderProtected shields the schedule against failures of the
// reordering heuristic: its caller swallows errors (keeping the natural
// order), so panics out of the sifting manager — the hard node cap, an
// injected fault — must degrade the same way instead of unwinding
// through PinScheduleRun.
func reorderProtected(g *aig.Graph, que []int, xsup []int, outs []int, maxSiftNodes int, run *pipeline.Run, hint *int) (out []int, err error) {
	defer pipeline.RecoverTo(&err, "schedule.reorder")
	return reorderFreshSupport(g, que, xsup, outs, maxSiftNodes, run, hint)
}

// reorderFreshSupport implements Algorithm 2 line 4: it builds the BDDs
// of this frame's outputs under the order [already-queued | fresh |
// remaining], applies symmetric sifting restricted to the fresh block,
// and returns the fresh inputs in their new level order. The run bounds
// the BDD size (default 4M nodes) and interrupts sifting mid-flight.
func reorderFreshSupport(g *aig.Graph, que []int, xsup []int, outs []int, maxSiftNodes int, run *pipeline.Run, hint *int) ([]int, error) {
	n := g.NumPIs()
	mgr := bdd.New(n)
	mgr.Reserve(*hint) // earlier frames predict this one's size well
	mgr.SetNodeLimit(4 * run.NodeLimit(4000000))
	if run != nil {
		mgr.SetInterrupt(run.Check)
		mgr.SetObserver(run.Span(), run.Metrics())
	}
	// Desired order: queued inputs first (frozen), then the fresh block,
	// then everything else. Arranging the order on an empty manager is
	// cheap: swaps touch no nodes.
	desired := make([]int, 0, n)
	used := make([]bool, n)
	for _, u := range que {
		desired = append(desired, u)
		used[u] = true
	}
	lo := len(desired)
	for _, u := range xsup {
		desired = append(desired, u)
		used[u] = true
	}
	hi := len(desired) - 1
	for u := 0; u < n; u++ {
		if !used[u] {
			desired = append(desired, u)
		}
	}
	for level, v := range desired {
		cur := mgr.LevelOfVar(v)
		for cur > level {
			mgr.SwapAdjacent(cur - 1)
			cur--
		}
	}

	varOfPI := make([]int, n)
	for i := range varOfPI {
		varOfPI[i] = i
	}
	roots := make([]aig.Lit, len(outs))
	for i, w := range outs {
		roots[i] = g.PO(w)
	}
	nodes, err := buildOutputBDDs(g, mgr, varOfPI, roots, run.NodeLimit(4000000), run)
	if err != nil {
		return nil, err
	}
	if nn := mgr.NumNodes(); nn > *hint {
		*hint = nn
	}
	run.NoteBDDNodes(mgr.NumNodes())
	if live := mgr.NodeCount(nodes...); live > maxSiftNodes {
		return nil, fmt.Errorf("core: scheduling BDDs too large to sift (%d nodes)", live)
	}
	mgr.SiftSymmetric(nodes, lo, hi)
	out := make([]int, 0, len(xsup))
	for l := lo; l <= hi; l++ {
		out = append(out, mgr.VarAtLevel(l))
	}
	return out, nil
}
