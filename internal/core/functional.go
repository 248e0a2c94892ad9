package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
	"circuitfold/internal/fault"
	"circuitfold/internal/fsm"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

// FunctionalOptions configures FunctionalFold (Section V). The three
// booleans match the configuration column of Table III: input reordering
// (r/nr), state minimization (m/nm), and the state encoding (nat/1hot).
type FunctionalOptions struct {
	// Reorder enables BDD symmetric-sifting input reordering during pin
	// scheduling.
	Reorder bool
	// Minimize runs MeMin-style exact state minimization on the folded
	// FSM before encoding.
	Minimize bool
	// StateEnc selects natural binary or one-hot state encoding.
	StateEnc Encoding
	// Ctx cancels the fold mid-stage; nil means no cancellation.
	Ctx context.Context
	// Budget bounds the fold's resources. Zero fields fall back to the
	// method defaults: 20000 states, 4,000,000 BDD nodes, no deadline.
	// The paper's analogue is its 300-second limit on scheduling plus
	// folding.
	Budget pipeline.Budget
	// MinOpts bounds the minimization step.
	MinOpts fsm.MinimizeOptions
	// Workers bounds the goroutines refining each frame's states in
	// parallel during time-frame folding. Values below 2 keep the fold
	// sequential; the result is bit-identical for every worker count
	// (see TimeFrameFold). Zero means sequential.
	Workers int
	// PostOptimize, when non-nil, runs the cleanup/balance/SAT-sweep
	// pipeline with these settings on the folded circuit's combinational
	// core before returning.
	PostOptimize *aig.SweepOptions
	// Obs, when non-nil, receives span traces and metrics for the whole
	// fold (see internal/obs). Nil disables observability at zero cost.
	Obs *obs.Observer
	// Checkpoint, when non-nil, saves the schedule, folded machine and
	// minimized machine and restores them on a later run, re-entering
	// the pipeline after the last stage it finds. Each artifact is saved
	// under its stage's address (pipeline.Addresses): the circuit's
	// structural hash, T and Budget, then the options each stage reads
	// up to it — Reorder for schedule, MinOpts for minimize, StateEnc
	// for encode. So one store can serve every fold: folds that differ
	// only in a later stage's options share the earlier stages. The
	// encoded result is not checkpointed; callers that keep results
	// store them whole.
	Checkpoint pipeline.Checkpoint
}

// DefaultFunctionalOptions returns the configuration used by the
// experiment harness: reordering on, minimization on, one-hot encoding.
func DefaultFunctionalOptions() FunctionalOptions {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return FunctionalOptions{
		Reorder:  true,
		Minimize: true,
		StateEnc: OneHot,
		Workers:  w,
		MinOpts:  fsm.DefaultMinimizeOptions(),
	}
}

// FunctionalFold folds g by T frames with the functional method of
// Section V, composed as the pipeline schedule → tff → [minimize] →
// encode → [sweep]: pin scheduling, FSM construction via time-frame
// folding (BDD cut decomposition), optional exact state minimization,
// and state encoding. The returned Result's States/StatesMin report the
// FSM sizes before and after minimization (including the don't-care
// final state, as the paper counts it); StatesMin is -1 when
// minimization was disabled or aborted. Result.Report carries the
// per-stage trace. A cancelled context or exhausted budget aborts
// mid-stage with an error matching pipeline.ErrCanceled or
// pipeline.ErrBudgetExceeded that carries the partial trace (unwrap to
// *pipeline.Error).
func FunctionalFold(g *aig.Graph, T int, opt FunctionalOptions) (*Result, error) {
	if err := validateFoldArgs(g, T); err != nil {
		return nil, err
	}
	run := pipeline.NewRunObserved(opt.Ctx, opt.Budget, opt.Obs)
	if T == 1 {
		return identityFold(g, run, "functional", opt.PostOptimize)
	}
	if opt.Checkpoint != nil {
		run.SetCheckpoint(opt.Checkpoint, foldInput(g, T))
	}
	var res *Result
	rep, err := pipeline.Execute(run, "functional", functionalStages(g, T, opt, run, &res)...)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	return res, nil
}

// foldInput names what a fold of g by T reads before any option: the
// root of its stage addresses.
func foldInput(g *aig.Graph, T int) string {
	return fmt.Sprintf("aig=%016x t=%d", aig.StructuralHash(g), T)
}

// functionalStages composes FunctionalFold's pipeline over run; the
// encode stage leaves the fold in *res. Each stage declares in Reads
// the options it reads, which the stage addresses hash.
func functionalStages(g *aig.Graph, T int, opt FunctionalOptions, run *pipeline.Run, res **Result) []pipeline.Stage {
	var (
		sched     *Schedule
		machine   *fsm.Machine
		states    int
		statesMin = -1
	)
	stages := []pipeline.Stage{
		{Name: pipeline.StageSchedule, Reads: "reorder=" + strconv.FormatBool(opt.Reorder), Run: func(ss *pipeline.StageStats) error {
			ss.AndsIn = g.NumAnds()
			ss.AndsOut = g.NumAnds() // scheduling never rewrites the graph
			var err error
			sched, err = PinScheduleRun(g, T, ScheduleOptions{Reorder: opt.Reorder}, run)
			return err
		},
			Snapshot: func() ([]byte, error) { return EncodeSchedule(sched) },
			Restore: func(data []byte, ss *pipeline.StageStats) error {
				s, err := DecodeSchedule(data)
				if err != nil {
					return err
				}
				if s.T != T {
					return fmt.Errorf("core: checkpointed schedule folds by %d, want %d", s.T, T)
				}
				sched = s
				ss.AndsIn = g.NumAnds()
				ss.AndsOut = g.NumAnds()
				return nil
			},
		},
		{Name: pipeline.StageTFF, Run: func(ss *pipeline.StageStats) error {
			ss.AndsIn = g.NumAnds()
			ss.StatesIn = 1
			var err error
			machine, states, err = TimeFrameFold(g, sched, opt.Workers, run)
			ss.StatesOut = states
			return err
		},
			Snapshot: func() ([]byte, error) { return EncodeMachine(machine, states) },
			Restore: func(data []byte, ss *pipeline.StageStats) error {
				m, n, err := DecodeMachine(data)
				if err != nil {
					return err
				}
				machine, states = m, n
				ss.AndsIn = g.NumAnds()
				ss.StatesIn = 1
				ss.StatesOut = states
				return nil
			},
		},
	}
	if opt.Minimize {
		// Stop, Span and Metrics only observe or abort a solve; the
		// bounds can change which machine comes out.
		mo := opt.MinOpts
		reads := fmt.Sprintf("max_atoms=%d conflict_budget=%d max_learnt_lits=%d timeout=%d max_classes=%d max_states=%d",
			mo.MaxAtoms, mo.ConflictBudget, mo.MaxLearntLits, int64(mo.Timeout), mo.MaxClasses, mo.MaxStates)
		stages = append(stages, pipeline.Stage{Name: pipeline.StageMinimize, Reads: reads, Run: func(ss *pipeline.StageStats) error {
			ss.StatesIn = states
			mo := mo
			if mo.Stop == nil {
				mo.Stop = run.Check
			}
			if mo.Span == nil {
				mo.Span = run.Span()
			}
			if mo.Metrics == nil {
				mo.Metrics = run.Metrics()
			}
			if rem, ok := run.Remaining(); ok && (mo.Timeout <= 0 || rem < mo.Timeout) {
				mo.Timeout = rem
			}
			// The run's conflict budget caps each solve one past what is
			// left of it, so a solve that would overrun the budget stops
			// there instead of running to MeMin's own budget.
			if lim := run.ConflictLimit(0); lim > 0 {
				if left := lim - run.Conflicts() + 1; mo.ConflictBudget <= 0 || left < mo.ConflictBudget {
					mo.ConflictBudget = left
				}
			}
			mm, conflicts, merr := fsm.Minimize(machine, mo)
			ss.SATConflicts += conflicts
			run.AddConflicts(conflicts)
			if merr != nil {
				return fmt.Errorf("core: state minimization failed: %w", merr)
			}
			machine = mm
			statesMin = mm.NumStates()
			ss.StatesOut = statesMin
			return run.Check()
		},
			Snapshot: func() ([]byte, error) { return EncodeMachine(machine, statesMin) },
			Restore: func(data []byte, ss *pipeline.StageStats) error {
				m, n, err := DecodeMachine(data)
				if err != nil {
					return err
				}
				machine, statesMin = m, n
				ss.StatesIn = states
				ss.StatesOut = statesMin
				return nil
			},
		})
	}
	stages = append(stages, pipeline.Stage{Name: pipeline.StageEncode, Reads: "state_enc=" + opt.StateEnc.String(), Run: func(ss *pipeline.StageStats) error {
		ss.StatesIn = machine.NumStates()
		enc := fsm.NaturalBinary
		if opt.StateEnc == OneHot {
			enc = fsm.OneHotState
		}
		circuit, err := fsm.Encode(machine, enc)
		if err != nil {
			return err
		}
		ss.AndsOut = circuit.G.NumAnds()
		*res = &Result{
			Seq:       circuit,
			T:         T,
			InSched:   sched.InSlot,
			OutSched:  sched.OutSlot,
			States:    states,
			StatesMin: statesMin,
		}
		return nil
	}})
	if opt.PostOptimize != nil {
		stages = append(stages, sweepStage(res, opt.PostOptimize, run))
	}
	return stages
}

// TimeFrameFold constructs the minimal per-frame FSM of the scheduled
// circuit: states at frame t are the distinct tuples of residual output
// functions (BDD cofactor classes) after consuming the first t input
// groups — the hyper-function cut decomposition of TFF. It returns the
// machine (final don't-care state elided, transitions into it marked
// DontCare) and the total state count including the don't-care state.
//
// workers > 1 refines each frame's states concurrently once a frame
// holds more states than workers (smaller frames fold inline — the
// fan-out overhead would dominate): every worker owns a Clone of the
// folding manager, taken lazily at the first fanned-out frame, states
// are sharded across workers by index stride, and the per-state
// results are merged sequentially in state order. Cut-decomposition
// leaves are always sub-nodes of the output BDDs, which every arena
// shares — so the next-state tuples, the dedup keys, and the machine's
// condition manager layout are identical for every worker count: the
// folded machine is bit-for-bit independent of workers. A panic inside
// a worker (including the seeded
// fault.PointTFFFrameWorker) is caught at the worker boundary and
// surfaces as an error matching pipeline.ErrInternal (budget unwinds
// keep their pipeline.ErrBudgetExceeded identity) after the frame's
// remaining workers drain — the pool never deadlocks.
//
// The run bounds the construction: its state budget (default 20000)
// and BDD node budget (default 4,000,000) abort with an error matching
// pipeline.ErrBudgetExceeded, a cancelled context or elapsed deadline
// with pipeline.ErrCanceled / pipeline.ErrBudgetExceeded. A nil run
// applies the default caps with no deadline.
func TimeFrameFold(g *aig.Graph, sched *Schedule, workers int, run *pipeline.Run) (*fsm.Machine, int, error) {
	T, m := sched.T, sched.M
	n := g.NumPIs()
	maxStates := run.StateLimit(20000)
	nodeBudget := run.NodeLimit(4000000)

	// Folding manager: variable t*m+j is input pin j during frame t.
	// The hard node cap backstops the soft budget polls below: even a
	// single apply call that blows up between polls unwinds with
	// bdd.ErrNodeLimit instead of growing without bound. The factor
	// leaves headroom for reordering's transient growth.
	fmgr := bdd.New(T * m)
	// The scheduling BDDs predict the folding manager's size: presizing
	// skips the unique-table growth rehashes (the whole-circuit build
	// lands a bit above the per-frame peak, hence the headroom factor).
	if sched.BDDHint > 0 {
		fmgr.Reserve(sched.BDDHint * 2)
	}
	fmgr.SetNodeLimit(4 * nodeBudget)
	fmgr.SetObserver(run.Span(), run.Metrics())
	mStates := run.Metrics().Gauge(obs.MFSMStates)
	varOfPI := make([]int, n)
	for i := range varOfPI {
		varOfPI[i] = sched.SlotOfPI[i]
	}
	roots := make([]aig.Lit, g.NumPOs())
	for i := range roots {
		roots[i] = g.PO(i)
	}
	poBDD, err := buildOutputBDDs(g, fmgr, varOfPI, roots, nodeBudget, run)
	if err != nil {
		return nil, 0, err
	}

	// poList[t]: outputs still pending after frame t, ordered by
	// (frame, pin). State tuples at frame t align with poList[t].
	poList := make([][]int, T)
	for t := 0; t < T; t++ {
		for tt := t; tt < T; tt++ {
			for _, w := range sched.OutSlot[tt] {
				if w >= 0 {
					poList[t] = append(poList[t], w)
				}
			}
		}
	}
	pinOf := make([]int, g.NumPOs())
	for t := 0; t < T; t++ {
		for k, w := range sched.OutSlot[t] {
			if w >= 0 {
				pinOf[w] = k
			}
		}
	}
	mOut := len(sched.OutSlot[0])

	// Common input-variable manager for the machine's conditions. It
	// outlives the fold (the returned Machine owns it), so its metrics
	// share the registry with the folding manager: the gauges track
	// whichever manager flushed last, the counters accumulate across both.
	cmgr := bdd.New(m)
	cmgr.SetNodeLimit(4 * nodeBudget)
	cmgr.SetObserver(run.Span(), run.Metrics())

	keyOf := func(comps []bdd.Node) string {
		b := make([]byte, 0, len(comps)*4)
		for _, c := range comps {
			b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		return string(b)
	}

	// Worker arenas. Worker 0 keeps the folding manager itself (and its
	// observer); every further worker gets a private Clone, taken lazily
	// at the first frame that actually fans out. Any clone taken after
	// the output BDDs exist agrees with every other arena on every node
	// reachable from poBDD — and cut-decomposition leaves are always
	// sub-nodes of those BDDs, never fresh allocations — so the
	// next-state tuples and their dedup keys are arena-independent no
	// matter when the clones are made. State si of a frame is always
	// refined by worker si%W in that worker's arena (frames too small to
	// fan out fold inline on worker 0), so the refinement output does
	// not depend on W.
	if workers < 1 {
		workers = 1
	}
	wmgrs := make([]*bdd.Manager, workers)
	wmgrs[0] = fmgr
	cloned := workers == 1
	memos := make([]*workerScratch, workers)
	for w := range memos {
		memos[w] = &workerScratch{
			memo: make(map[[2]int][]decomposition),
			dec:  newDecompScratch(),
		}
	}
	if workers > 1 {
		run.Metrics().Gauge(obs.MFoldFrameWorkers).Set(int64(workers))
	}
	parallelFrames := int64(0)

	// The initial state's tuple is aligned with poList[0] (frame-major
	// output order), not PO-index order.
	initComps := make([]bdd.Node, len(poList[0]))
	for i, w := range poList[0] {
		initComps[i] = poBDD[w]
	}
	var trans [][]fsm.Transition
	totalStates := 0
	cur := []foldState{{comps: initComps}}
	trans = append(trans, nil)
	totalStates = 1
	curBase := 0 // global id of cur[0]

	abort := func(t int, err error) (*fsm.Machine, int, error) {
		return nil, 0, fmt.Errorf("core: time-frame folding aborted at frame %d: %w", t+1, err)
	}
	// One "tff.frame" span per frame (the cut-decomposition round).
	// End is idempotent, so the deferred close only fires for a frame
	// left in flight by an abort path.
	var fsp *obs.Span
	defer func() { fsp.End() }()
	for t := 0; t < T; t++ {
		fsp.End()
		fsp = run.Span().Child("tff.frame", "core")
		fsp.SetInt("frame", int64(t))
		fsp.SetInt("states", int64(len(cur)))
		if err := run.Check(); err != nil {
			return abort(t, err)
		}
		cut := (t + 1) * m
		varMap := make([]int, cut)
		for v := range varMap {
			varMap[v] = -1
		}
		for j := 0; j < m; j++ {
			varMap[t*m+j] = j
		}

		fr := &frameRefiner{
			sched: sched, run: run, poList: poList[t], pinOf: pinOf,
			frame: t, cut: cut, mOut: mOut,
			maxStates: maxStates, nodeBudget: nodeBudget,
		}
		results := make([][]foldCell, len(cur))
		// Fan out only when the frame holds more states than workers:
		// below that, goroutine and merge overhead outweighs the work
		// (the 64-adder averages two states per frame), and the inline
		// path below produces the identical machine.
		if workers > 1 && len(cur) > workers {
			if !cloned {
				for w := 1; w < workers; w++ {
					wmgrs[w] = fmgr.Clone()
				}
				cloned = true
			}
			parallelFrames++
			fsp.SetInt("workers", int64(workers))
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Attribution labels for CPU profiles: derive from the
					// run's context so labels set upstream (the fold
					// daemon's per-job "job" label) survive alongside the
					// stage-level ones, mirroring the sweep workers.
					pprof.SetGoroutineLabels(pprof.WithLabels(run.Context(),
						pprof.Labels("stage", "tff", "tff.worker", strconv.Itoa(w))))
					// The recover boundary mirrors pipeline.runStage:
					// budget unwinds (bdd.ErrNodeLimit) keep their
					// identity, anything else reads as ErrInternal.
					defer func() {
						if r := recover(); r != nil {
							errs[w] = pipeline.AsInternal("tff.frame.worker", r)
							if errors.Is(errs[w], pipeline.ErrInternal) {
								run.Metrics().Counter(obs.MFoldPanics).Add(1)
							}
						}
					}()
					for si := w; si < len(cur); si += workers {
						cells, err := fr.refineState(wmgrs[w], memos[w], cur[si])
						if err != nil {
							errs[w] = err
							return
						}
						results[si] = cells
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return abort(t, err)
				}
			}
		} else {
			for si := range cur {
				// Before any clone exists everything folds on worker 0;
				// afterwards the inline path keeps the si%W ownership so
				// memos stay consistent with their arenas.
				w := 0
				if cloned {
					w = si % workers
				}
				cells, err := fr.refineState(wmgrs[w], memos[w], cur[si])
				if err != nil {
					return abort(t, err)
				}
				results[si] = cells
			}
		}

		// Sequential merge in state order. Conditions translate into the
		// machine's manager from the arena of the worker that owns the
		// state, through one translator per arena for the whole frame, so
		// a sub-BDD shared by many cells is walked once. The cmgr layout
		// depends only on the translated functions and their order, both
		// of which are worker-count-invariant (a memo hit skips only a
		// walk that would create no node).
		nextIndex := make(map[string]int)
		var nextStates []foldState
		nextBase := curBase + len(cur)
		trs := make([]*bdd.Translator, workers)
		for si := range cur {
			w := 0
			if cloned {
				w = si % workers
			}
			if trs[w] == nil {
				trs[w] = bdd.NewTranslator(wmgrs[w], cmgr, varMap)
			}
			owner := trs[w]
			for _, c := range results[si] {
				dst := fsm.DontCare
				if t+1 < T {
					k := keyOf(c.next)
					id, ok := nextIndex[k]
					if !ok {
						id = len(nextStates)
						nextIndex[k] = id
						nextStates = append(nextStates, foldState{comps: c.next})
					}
					dst = nextBase + id
				}
				cond := owner.Translate(c.cond)
				trans[curBase+si] = append(trans[curBase+si], fsm.Transition{
					Cond: cond, Out: c.outs, Dst: dst,
				})
			}
		}
		if t+1 < T {
			totalStates += len(nextStates)
			if totalStates > maxStates {
				return nil, 0, fmt.Errorf("core: state count exceeds %d at frame %d: %w",
					maxStates, t+1, pipeline.ErrBudgetExceeded)
			}
			for range nextStates {
				trans = append(trans, nil)
			}
			curBase = nextBase
			cur = nextStates
			fsp.SetInt("next_states", int64(len(nextStates)))
		}
		nodes := 0
		for _, wm := range wmgrs {
			if wm == nil {
				continue // worker never cloned (no frame fanned out yet)
			}
			if n := wm.NumNodes(); n > nodes {
				nodes = n
			}
		}
		run.NoteBDDNodes(nodes)
		mStates.Set(int64(totalStates))
	}
	totalStates++ // the don't-care destination state s_*^T
	mStates.Set(int64(totalStates))
	run.Metrics().Gauge(obs.MFoldParallelFrames).Set(parallelFrames)

	machine := &fsm.Machine{
		Mgr:        cmgr,
		NumInputs:  m,
		NumOutputs: mOut,
		Initial:    0,
		Trans:      trans,
	}
	return machine, totalStates, nil
}

// foldState is one TFF state: the tuple of residual output functions,
// aligned with poList[frame]. Node values refer to the shared pre-clone
// arena prefix, so tuples compare equal across worker arenas.
type foldState struct {
	comps []bdd.Node
}

// foldCell is one refined transition cell of a state: the input
// condition (a node in the refining worker's arena), the frame's
// emitted outputs, and the next state's component tuple (nodes of the
// shared arena prefix).
type foldCell struct {
	cond bdd.Node
	outs []fsm.Tri
	next []bdd.Node
}

// workerScratch is one worker's private refinement state: the
// decomposition memo (keyed by component node and cut level) plus the
// reusable decomposeAtCut buffers and refineState's cell slab and
// per-round emit flags. Everything in it references the worker's own
// arena.
type workerScratch struct {
	memo  map[[2]int][]decomposition
	dec   *decompScratch
	slab  []refineCell
	emits []bool
}

// frameRefiner bundles the read-only per-frame context shared by all
// workers refining that frame.
type frameRefiner struct {
	sched      *Schedule
	run        *pipeline.Run
	poList     []int
	pinOf      []int
	frame, cut int
	mOut       int
	maxStates  int
	nodeBudget int
}

// refineState splits one state's input space into cells with uniform
// behavior by intersecting the cut decompositions of its pending
// outputs. wm is the arena of the worker that owns the state and ws
// the worker's private decomposition cache and scratch (decomposition
// conditions live in the owning arena and must never cross workers).
// The error is either
// a budget/cancellation signal from the run or an injected fault;
// bdd.ErrNodeLimit unwinds as a panic and is caught at the worker
// boundary (parallel) or the pipeline stage boundary (sequential).
//
// Each refinement round records only (cond, parent, leaf) per cell in
// the worker's slab; the cells' output and next-state tuples are
// materialized once, for the cells that survive every round, by
// walking their parent chains back through the rounds.
func (fr *frameRefiner) refineState(wm *bdd.Manager, ws *workerScratch, st foldState) ([]foldCell, error) {
	if err := fault.Point(fault.PointTFFFrameWorker); err != nil {
		return nil, err
	}
	if err := fr.run.Check(); err != nil {
		return nil, err
	}
	// Each round appends its cells to slab; the initial cell (True, no
	// outputs, no next-state components) is parent -1.
	slab := ws.slab[:0]
	emits := ws.emits[:0]
	prevLo, prevHi := -1, 0 // parent range of the current round
	for ci, w := range fr.poList {
		branches, ok := ws.memo[[2]int{int(st.comps[ci]), fr.cut}]
		if !ok {
			branches = decomposeAtCut(wm, st.comps[ci], fr.cut, ws.dec)
			ws.memo[[2]int{int(st.comps[ci]), fr.cut}] = branches
		}
		emit := fr.sched.FrameOfPO[w] == fr.frame // output produced this frame
		emits = append(emits, emit)
		if (prevHi-prevLo)*len(branches) > 64 {
			if err := fr.run.Check(); err != nil {
				return nil, err
			}
		}
		lo := len(slab)
		for p := prevLo; p < prevHi; p++ {
			pc := bdd.True
			if p >= 0 {
				pc = slab[p].cond
			}
			for _, br := range branches {
				// The first refinement rounds mostly intersect with True
				// (the initial cell, single-branch decompositions); skip
				// the apply and its cache traffic for those.
				var nc bdd.Node
				switch {
				case br.cond == bdd.True:
					nc = pc
				case pc == bdd.True:
					nc = br.cond
				default:
					nc = wm.And(pc, br.cond)
				}
				if nc == bdd.False {
					continue
				}
				if emit && br.leaf != bdd.True && br.leaf != bdd.False {
					return nil, fmt.Errorf("core: output %d not terminal at its frame", w)
				}
				slab = append(slab, refineCell{cond: nc, parent: int32(p), leaf: br.leaf})
			}
		}
		prevLo, prevHi = lo, len(slab)
		if prevHi-prevLo > 4*fr.maxStates {
			return nil, fmt.Errorf("core: transition refinement exceeds bound %d at frame %d: %w",
				4*fr.maxStates, fr.frame+1, pipeline.ErrBudgetExceeded)
		}
		if fr.nodeBudget > 0 && wm.NumNodes() > fr.nodeBudget {
			return nil, errBudget
		}
	}
	ws.slab, ws.emits = slab, emits

	if prevLo < 0 { // no pending outputs: the one initial cell
		return []foldCell{{cond: bdd.True, outs: makeX(fr.mOut)}}, nil
	}
	nNext := 0
	for _, e := range emits {
		if !e {
			nNext++
		}
	}
	n := prevHi - prevLo
	cells := make([]foldCell, n)
	outs := make([]fsm.Tri, n*fr.mOut)
	for i := range outs {
		outs[i] = fsm.X
	}
	next := make([]bdd.Node, n*nNext)
	for i := range cells {
		o := outs[i*fr.mOut : (i+1)*fr.mOut : (i+1)*fr.mOut]
		nx := next[i*nNext : (i+1)*nNext : (i+1)*nNext]
		p := prevLo + i
		k := nNext
		for r := len(emits) - 1; r >= 0; r-- {
			c := slab[p]
			if emits[r] {
				o[fr.pinOf[fr.poList[r]]] = fsm.Zero
				if c.leaf == bdd.True {
					o[fr.pinOf[fr.poList[r]]] = fsm.One
				}
			} else {
				k--
				nx[k] = c.leaf
			}
			p = int(c.parent)
		}
		cells[i] = foldCell{cond: slab[prevLo+i].cond, outs: o, next: nx}
	}
	return cells, nil
}

// refineCell is one cell of a refinement round: its condition, the
// index of the cell it refines in the previous round (-1 for the
// initial cell), and the decomposition leaf it took.
type refineCell struct {
	cond   bdd.Node
	parent int32
	leaf   bdd.Node
}

func makeX(n int) []fsm.Tri {
	out := make([]fsm.Tri, n)
	for i := range out {
		out[i] = fsm.X
	}
	return out
}
