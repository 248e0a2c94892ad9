package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"circuitfold/internal/aig"
	"circuitfold/internal/fsm"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
	"circuitfold/internal/seq"
)

// HybridOptions configures HybridFold.
type HybridOptions struct {
	// Counter encodes the structural remainder's frame counter.
	Counter Encoding
	// StateEnc encodes the functional clusters' states.
	StateEnc Encoding
	// Minimize runs MeMin on each cluster FSM.
	Minimize bool
	// MaxClusterOutputs caps the outputs grouped into one functional
	// cluster (0 means 32).
	MaxClusterOutputs int
	// ClusterTimeout bounds each cluster's folding work (0 means 5s);
	// the whole fold is additionally bounded by Budget.Wall.
	ClusterTimeout time.Duration
	// Ctx cancels the fold mid-stage; nil means no cancellation.
	Ctx context.Context
	// Budget bounds the fold's resources. Budget.MaxStates bounds each
	// cluster's time-frame folding (0 means 2000); Budget.Wall bounds
	// the whole fold.
	Budget pipeline.Budget
	// MinOpts bounds per-cluster state minimization.
	MinOpts fsm.MinimizeOptions
	// Workers bounds the goroutines folding clusters concurrently.
	// Values below 2 fold the clusters sequentially. Each cluster folds
	// in its own BDD managers and child run either way, and results
	// merge in cluster order, so the folded circuit does not depend on
	// the worker count. Cluster folds run with sequential inner TFF
	// (frame workers = 1): the parallelism budget is spent across
	// clusters, not within them.
	Workers int
	// PostOptimize, when non-nil, runs the cleanup/balance/SAT-sweep
	// pipeline with these settings on the merged circuit's combinational
	// core before returning.
	PostOptimize *aig.SweepOptions
	// Obs, when non-nil, receives span traces and metrics for the whole
	// fold (see internal/obs). Nil disables observability at zero cost.
	Obs *obs.Observer
}

// DefaultHybridOptions returns the settings used by the benchmarks.
func DefaultHybridOptions() HybridOptions {
	return HybridOptions{
		Counter:  Binary,
		StateEnc: OneHot,
		Minimize: true,
		// Each transition's output vector distinguishes states, so wide
		// clusters blow up the per-frame refinement exactly like the
		// paper's functional timeouts at small T; small clusters keep
		// every piece tractable.
		MaxClusterOutputs: 8,
		ClusterTimeout:    2 * time.Second,
		Budget:            pipeline.Budget{MaxStates: 2000},
		MinOpts:           fsm.DefaultMinimizeOptions(),
		Workers:           DefaultFunctionalOptions().Workers,
	}
}

// HybridFold combines the two methods, the future work named in the
// paper's conclusion, composed as the pipeline schedule → tff → synth →
// [sweep]: outputs are clustered by shared structural support
// (schedule), each cluster is folded functionally under its own slice
// of the budget (tff), and clusters whose folding exceeds that slice
// fall back to one common structural fold that is then merged with the
// functional parts over shared pins (synth). All parts share the same
// ceil(n/T) input pins and one frame alignment, so the merged circuit
// is a valid fold of the whole circuit — scalable like the structural
// method, with the functional method's optimality wherever it is
// affordable. Cancelling the context or exhausting Budget.Wall aborts
// the whole fold; a single cluster running out of its own time slice
// only demotes that cluster to the structural fallback.
func HybridFold(g *aig.Graph, T int, opt HybridOptions) (*Result, error) {
	if err := validateFoldArgs(g, T); err != nil {
		return nil, err
	}
	run := pipeline.NewRunObserved(opt.Ctx, opt.Budget, opt.Obs)
	if T == 1 {
		return identityFold(g, run, "hybrid", opt.PostOptimize)
	}
	if opt.MaxClusterOutputs <= 0 {
		opt.MaxClusterOutputs = 32
	}
	if opt.ClusterTimeout <= 0 {
		opt.ClusterTimeout = 5 * time.Second
	}
	n := g.NumPIs()
	m := ceilDiv(n, T)

	type part struct {
		c        *seq.Circuit
		outSched [][]int // per frame, global PO indices (-1 null)
	}
	var (
		clusters      [][]int
		parts         []part
		structuralPOs []int
		res           *Result
	)
	stages := []pipeline.Stage{
		{Name: pipeline.StageSchedule, Run: func(ss *pipeline.StageStats) error {
			ss.AndsIn = g.NumAnds()
			clusters = clusterOutputs(g, opt.MaxClusterOutputs)
			return run.Check()
		}},
		{Name: pipeline.StageTFF, Run: func(ss *pipeline.StageStats) error {
			ss.AndsIn = g.NumAnds()
			// Each cluster folds under its own child run — the cluster
			// timeout clipped to the parent's remaining wall clock, with
			// the shared state and node budgets — inside
			// foldClusterProtected's recover boundary. Clusters are
			// independent (own cone extraction, own BDD managers), so a
			// bounded pool folds them concurrently; results land in a
			// per-cluster slot and merge below in cluster-index order, so
			// the outcome matches the sequential fold part for part.
			foldOne := func(ci int) (*clusterFold, error) {
				cluster := clusters[ci]
				wall := opt.ClusterTimeout
				if rem, ok := run.Remaining(); ok && rem < wall {
					wall = rem
				}
				csp := run.Span().Child("hybrid.cluster", "core")
				csp.SetInt("cluster", int64(ci))
				csp.SetInt("outputs", int64(len(cluster)))
				crun := pipeline.NewRunObserved(run.Context(), pipeline.Budget{
					Wall:      wall,
					BDDNodes:  run.NodeLimit(2000000),
					MaxStates: run.StateLimit(2000),
				}, run.Observer())
				crun.SetSpan(csp)
				p, err := foldClusterProtected(g, T, m, cluster, opt, crun)
				run.NoteBDDNodes(crun.BDDPeak())
				if err != nil {
					csp.SetStr("result", "structural-fallback")
				} else {
					csp.SetStr("result", "functional")
					csp.SetInt("states", int64(p.states))
				}
				csp.End()
				return p, err
			}
			folded := make([]*clusterFold, len(clusters))
			errs := make([]error, len(clusters))
			if w := opt.Workers; w > 1 && len(clusters) > 1 {
				if w > len(clusters) {
					w = len(clusters)
				}
				var wg sync.WaitGroup
				for wk := 0; wk < w; wk++ {
					wg.Add(1)
					go func(wk int) {
						defer wg.Done()
						// CPU-profile attribution, like the tff frame and
						// sweep workers: context-derived so a per-job label
						// from the daemon stays attached.
						pprof.SetGoroutineLabels(pprof.WithLabels(run.Context(),
							pprof.Labels("stage", "hybrid", "hybrid.worker", strconv.Itoa(wk))))
						for ci := wk; ci < len(clusters); ci += w {
							folded[ci], errs[ci] = foldOne(ci)
						}
					}(wk)
				}
				wg.Wait()
			} else {
				for ci := range clusters {
					folded[ci], errs[ci] = foldOne(ci)
				}
			}
			for ci, cluster := range clusters {
				if errs[ci] != nil {
					// The parent being cancelled or out of budget aborts
					// the fold; a cluster merely out of its own slice
					// falls back to the structural remainder.
					if perr := run.Check(); perr != nil {
						return perr
					}
					structuralPOs = append(structuralPOs, cluster...)
					continue
				}
				parts = append(parts, part{folded[ci].c, folded[ci].outSched})
				ss.StatesOut += folded[ci].states
			}
			return nil
		}},
		{Name: pipeline.StageSynth, Run: func(ss *pipeline.StageStats) error {
			if len(structuralPOs) > 0 {
				sub := extractCone(g, structuralPOs)
				sr, err := structuralFoldRun(sub, T, StructuralOptions{Counter: opt.Counter}, run)
				if err != nil {
					return err
				}
				sched := make([][]int, T)
				for t := range sched {
					row := make([]int, len(sr.OutSched[t]))
					for k, local := range sr.OutSched[t] {
						if local < 0 {
							row[k] = -1
						} else {
							row[k] = structuralPOs[local]
						}
					}
					sched[t] = row
				}
				parts = append(parts, part{sr.Seq, sched})
			}
			if len(parts) == 0 {
				return fmt.Errorf("core: hybrid fold produced no parts")
			}

			// Merge the parts over shared input pins.
			merged := aig.New()
			pins := make([]aig.Lit, m)
			for j := range pins {
				pins[j] = merged.PI(pinName("x", j))
			}
			// All flip-flop pseudo-inputs, part by part.
			ffIns := make([][]aig.Lit, len(parts))
			for pi, p := range parts {
				ffIns[pi] = make([]aig.Lit, p.c.NumLatches())
				for i := range ffIns[pi] {
					ffIns[pi][i] = merged.PI("")
				}
			}
			var next []aig.Lit
			var init []bool
			outSched := make([][]int, T)
			for pi, p := range parts {
				piMap := make([]aig.Lit, 0, p.c.G.NumPIs())
				piMap = append(piMap, pins...)
				piMap = append(piMap, ffIns[pi]...)
				roots := make([]aig.Lit, 0, p.c.G.NumPOs()+p.c.NumLatches())
				for i := 0; i < p.c.G.NumPOs(); i++ {
					roots = append(roots, p.c.G.PO(i))
				}
				roots = append(roots, p.c.Next...)
				mapped := aig.Transfer(merged, p.c.G, piMap, roots)
				for i := 0; i < p.c.G.NumPOs(); i++ {
					merged.AddPO(mapped[i], "")
				}
				next = append(next, mapped[p.c.G.NumPOs():]...)
				init = append(init, p.c.Init...)
				for t := 0; t < T; t++ {
					outSched[t] = append(outSched[t], p.outSched[t]...)
				}
			}
			for i := 0; i < merged.NumPOs(); i++ {
				merged.SetPOName(i, pinName("y", i))
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
			ss.AndsOut = merged.NumAnds()
			res = &Result{
				Seq:       &seq.Circuit{G: merged, NumInputs: m, Next: next, Init: init},
				T:         T,
				InSched:   inSched,
				OutSched:  outSched,
				States:    -1,
				StatesMin: -1,
			}
			return nil
		}},
	}
	if opt.PostOptimize != nil {
		stages = append(stages, sweepStage(&res, opt.PostOptimize, run))
	}
	rep, err := pipeline.Execute(run, "hybrid", stages...)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	return res, nil
}

// clusterOutputs groups the primary outputs into connected components of
// the support-sharing graph, splitting oversized components.
func clusterOutputs(g *aig.Graph, maxSize int) [][]int {
	supports := g.SupportSets()
	parent := make([]int, g.NumPOs())
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	// Outputs sharing any input belong together.
	lastUser := make(map[int]int)
	for o := 0; o < g.NumPOs(); o++ {
		for _, u := range supports[o] {
			if prev, ok := lastUser[u]; ok {
				union(prev, o)
			}
			lastUser[u] = o
		}
	}
	byRoot := map[int][]int{}
	for o := 0; o < g.NumPOs(); o++ {
		r := find(o)
		byRoot[r] = append(byRoot[r], o)
	}
	var clusters [][]int
	for o := 0; o < g.NumPOs(); o++ { // deterministic order
		if find(o) != o {
			continue
		}
		comp := byRoot[o]
		for len(comp) > maxSize {
			clusters = append(clusters, comp[:maxSize])
			comp = comp[maxSize:]
		}
		clusters = append(clusters, comp)
	}
	return clusters
}

// extractCone builds a sub-circuit with the same primary inputs as g but
// only the selected outputs.
func extractCone(g *aig.Graph, pos []int) *aig.Graph {
	sub := aig.New()
	piMap := make([]aig.Lit, g.NumPIs())
	for i := range piMap {
		piMap[i] = sub.PI(g.PIName(i))
	}
	roots := make([]aig.Lit, len(pos))
	for i, o := range pos {
		roots[i] = g.PO(o)
	}
	outs := aig.Transfer(sub, g, piMap, roots)
	for i, o := range outs {
		sub.AddPO(o, g.POName(pos[i]))
	}
	return sub
}

type clusterFold struct {
	c        *seq.Circuit
	outSched [][]int
	states   int
}

// foldClusterProtected contains cluster-level failures: a panic out of
// one cluster's functional fold (node-cap unwind, injected fault, real
// bug) becomes that cluster's error, which the tff stage then demotes
// to the structural remainder — one hostile cluster cannot take down
// the whole hybrid fold. Recovered panics that classify as internal
// faults are counted on obs.MFoldPanics.
func foldClusterProtected(g *aig.Graph, T, m int, cluster []int, opt HybridOptions, run *pipeline.Run) (p *clusterFold, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, pipeline.AsInternal("hybrid.cluster", r)
			if errors.Is(err, pipeline.ErrInternal) {
				run.Metrics().Counter(obs.MFoldPanics).Add(1)
			}
		}
	}()
	return foldClusterFunctionally(g, T, m, cluster, opt, run)
}

// foldClusterFunctionally runs time-frame folding on one output cluster
// under the shared natural input schedule, bounded by the cluster's run.
func foldClusterFunctionally(g *aig.Graph, T, m int, cluster []int, opt HybridOptions, run *pipeline.Run) (*clusterFold, error) {
	sub := extractCone(g, cluster)
	supports := sub.SupportSets()
	n := g.NumPIs()

	// Natural schedule shared with the structural remainder: input i is
	// on pin i%m during frame i/m; each output runs in the earliest
	// frame its support allows.
	sched := &Schedule{T: T, M: m, SlotOfPI: make([]int, n), FrameOfPO: make([]int, len(cluster))}
	for i := 0; i < n; i++ {
		sched.SlotOfPI[i] = i
	}
	sched.InSlot = make([][]int, T)
	for t := 0; t < T; t++ {
		row := make([]int, m)
		for j := 0; j < m; j++ {
			src := t*m + j
			if src >= n {
				src = -1
			}
			row[j] = src
		}
		sched.InSlot[t] = row
	}
	outFrames := make([][]int, T)
	for o := range cluster {
		frame := 0
		for _, u := range supports[o] {
			if f := u / m; f > frame {
				frame = f
			}
		}
		sched.FrameOfPO[o] = frame
		outFrames[frame] = append(outFrames[frame], o)
	}
	mOut := 0
	for _, fr := range outFrames {
		if len(fr) > mOut {
			mOut = len(fr)
		}
	}
	sched.OutSlot = make([][]int, T)
	for t := 0; t < T; t++ {
		row := make([]int, mOut)
		copy(row, outFrames[t])
		for k := len(outFrames[t]); k < mOut; k++ {
			row[k] = -1
		}
		sched.OutSlot[t] = row
	}

	machine, states, err := TimeFrameFold(sub, sched, 1, run)
	if err != nil {
		return nil, err
	}
	if opt.Minimize {
		mo := opt.MinOpts
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
		if mo.MaxAtoms <= 0 || mo.MaxAtoms > 512 {
			mo.MaxAtoms = 512
		}
		if mm, _, merr := fsm.Minimize(machine, mo); merr == nil {
			machine = mm
		}
	}
	enc := fsm.NaturalBinary
	if opt.StateEnc == OneHot {
		enc = fsm.OneHotState
	}
	circuit, err := fsm.Encode(machine, enc)
	if err != nil {
		return nil, err
	}
	// Globalize the output schedule.
	outSched := make([][]int, T)
	for t := 0; t < T; t++ {
		row := make([]int, mOut)
		for k, local := range sched.OutSlot[t] {
			if local < 0 {
				row[k] = -1
			} else {
				row[k] = cluster[local]
			}
		}
		outSched[t] = row
	}
	return &clusterFold{c: circuit, outSched: outSched, states: states}, nil
}
