package aig

import (
	"context"
	"encoding/binary"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"circuitfold/internal/fault"
	"circuitfold/internal/obs"
	"circuitfold/internal/sat"
)

// SweepOptions controls SAT sweeping.
type SweepOptions struct {
	// Words is the number of 64-bit random simulation words per node used
	// to split candidate equivalence classes before SAT is consulted.
	Words int
	// SimRounds is the historical name of Words; it is consulted only when
	// Words is zero, so callers of the original API keep their behavior.
	SimRounds int
	// Workers bounds the goroutines used by the simulation kernel and the
	// SAT query pool (0 means GOMAXPROCS). The swept result is identical
	// for every worker count.
	Workers int
	// Shards is the number of solver shards equivalence queries are
	// distributed over (0 means 8). Each shard owns one incremental
	// sat.Solver; queries are assigned to shards by a fixed hash of the
	// queried node, so results do not depend on Workers. Changing Shards
	// itself may flip budget-limited (Unknown) outcomes.
	Shards int
	// MaxCEXRounds bounds the counterexample-refinement rounds: after a
	// failed equivalence proof the SAT model is appended to the pattern
	// pool and all classes are re-split, so one counterexample can kill
	// many false candidates. 0 disables refinement.
	MaxCEXRounds int
	// ConflictBudget bounds each SAT equivalence query; nodes whose query
	// exhausts the budget are conservatively kept distinct.
	ConflictBudget int64
	// TotalConflictBudget, when positive, stops the proving loop at the
	// next round boundary once the shards' combined conflict count passes
	// it. Accounting is shared across workers; the cutoff is checked only
	// between rounds so results stay deterministic.
	TotalConflictBudget int64
	// Seed makes the random simulation reproducible.
	Seed int64
	// Interrupt, when non-nil, is polled between rounds and inside the
	// shard solvers' search loops. A non-nil result aborts the sweep at
	// the earliest safe point: in-flight queries resolve as Unknown
	// (conservatively distinct) and the graph is rebuilt from the
	// merges proven so far, so an interrupted sweep still returns a
	// valid, equivalence-preserving result. The callback runs
	// concurrently from worker goroutines and must be thread-safe.
	Interrupt func() error
	// Span, when non-nil, is the parent under which each proving round
	// opens a "sweep.round" child span. Per-query SAT spans are
	// deliberately not opened (a sweep issues thousands of queries);
	// SAT work is visible through the Metrics counters instead.
	Span *obs.Span
	// Metrics, when non-nil, receives the sweep.* counters/gauges and
	// the shard solvers' sat.* counters.
	Metrics *obs.Registry
	// Stage, when non-empty, labels the sweep's worker goroutines
	// (runtime/pprof labels "stage", "sweep.shard"/"kernel") so live
	// profiles attribute sweep and simulation work to the pipeline
	// stage that triggered it.
	Stage string
}

// DefaultSweepOptions returns the settings used by the optimization flow.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{
		Words:          8,
		Workers:        0, // GOMAXPROCS
		Shards:         8,
		MaxCEXRounds:   4,
		ConflictBudget: 2000,
		Seed:           1,
	}
}

// SweepStats reports what a sweep did; the benchmark harness uses it to
// track SAT-call reduction and budget tuning.
type SweepStats struct {
	Rounds       int // proving rounds (each ends in a deterministic merge pass)
	CEXRounds    int // rounds that appended counterexample patterns
	CEXPatterns  int // counterexample vectors added to the pool
	PatternWords int // final pattern-pool width in 64-bit words
	Queries      int64
	SATCalls     int64 // individual Solve invocations (up to 2 per query)
	ProvedEqual  int64
	Disproved    int64
	BudgetOut    int64
	Merges       int
	Interrupted  bool      // true when SweepOptions.Interrupt cut the sweep short
	Solver       sat.Stats // aggregated over the solver shards
	FaultErr     error     // injected fault that cut the sweep short (tests only)
}

// maxRepTries caps how many class representatives a node is compared
// against before it becomes a representative itself, bounding the
// fallback work on classes that random simulation failed to split.
const maxRepTries = 4

// sweepQuery is one pending equivalence query: prove member == rep up to
// the complement relation implied by their normalized signatures.
type sweepQuery struct {
	rep, member int32
}

// sweepResult is the outcome of one query. cex is the satisfying PI
// assignment packed as a bitset, present only when the proof failed and
// counterexample collection was enabled.
type sweepResult struct {
	status sat.Status
	cex    []uint64
}

// Sweep performs fraig-style SAT sweeping: nodes that random simulation
// cannot distinguish are checked for functional equivalence (up to
// complementation) with SAT, and proven-equivalent nodes are merged. The
// result is a cleaned-up, structurally hashed graph.
func (g *Graph) Sweep(opt SweepOptions) *Graph {
	ng, _ := g.SweepWithStats(opt)
	return ng
}

// SweepWithStats is Sweep returning engine statistics.
//
// The engine is parallel and counterexample-guided. Candidate classes are
// built from multi-word random simulation signatures (FNV-hashed, with
// collision checks). Pending equivalence queries are distributed over a
// pool of solver shards, each with its own incremental cone-limited CNF
// encoding, and solved concurrently by up to Workers goroutines. Failed
// proofs yield counterexample input vectors that are appended to the
// pattern pool so the next simulation round re-splits every class at
// once; proofs that fail against a class representative are retried
// against other members of the class. Queries are sharded by a fixed hash
// and merged in node order, so for a fixed Seed the swept graph is
// identical regardless of Workers.
func (g *Graph) SweepWithStats(opt SweepOptions) (*Graph, *SweepStats) {
	st := &SweepStats{}
	if g.NumAnds() == 0 {
		return g.Cleanup(), st
	}
	words := opt.Words
	if words <= 0 {
		words = opt.SimRounds
	}
	if words <= 0 {
		words = 8
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = 8
	}
	numNodes := g.NumNodes()
	maxW := words + opt.MaxCEXRounds

	// Resolved metrics (nil when opt.Metrics is nil; updates no-op).
	mClasses := opt.Metrics.Gauge(obs.MSweepClasses)
	mCEX := opt.Metrics.Counter(obs.MSweepCEXRounds)
	mMerges := opt.Metrics.Counter(obs.MSweepMerges)
	mCalls := opt.Metrics.Counter(obs.MSweepSATCalls)

	// Random pattern pool: one word slice per PI, with room for the
	// counterexample words appended by refinement rounds.
	rng := rand.New(rand.NewSource(opt.Seed))
	patterns := make([][]uint64, g.NumPIs())
	for i := range patterns {
		p := make([]uint64, words, maxW)
		for w := range p {
			p[w] = rng.Uint64()
		}
		patterns[i] = p
	}
	eng := newSimEngine(g, maxW, workers)
	if opt.Stage != "" {
		eng.labels = pprof.WithLabels(context.Background(),
			pprof.Labels("stage", opt.Stage, "kernel", "sim"))
	}
	eng.run(patterns, words)

	// Only nodes in the PO cones are candidates; dangling logic is
	// dropped by the final Cleanup anyway.
	reach := make([]bool, numNodes)
	reach[0] = true
	for _, po := range g.pos {
		reach[po.Node()] = true
	}
	for id := numNodes - 1; id >= 1; id-- {
		if reach[id] && g.nodes[id].kind == kindAnd {
			reach[g.nodes[id].fan0.Node()] = true
			reach[g.nodes[id].fan1.Node()] = true
		}
	}

	// Complement-normalization flag per node: bit 0 of signature word 0.
	// Refinement only appends words, so the flags are stable across
	// rounds and each (rep, member) pair tests one fixed relation.
	compl := make([]bool, numNodes)
	for id := 0; id < numNodes; id++ {
		compl[id] = eng.vals[id*eng.stride]&1 == 1
	}

	classes := initialClasses(g, eng, words, compl, reach)
	mClasses.Set(int64(len(classes)))

	merged := make([]int32, numNodes)
	for i := range merged {
		merged[i] = -1
	}
	mergedCompl := make([]bool, numNodes)
	tries := make([]int16, numNodes)
	distinct := make(map[int64]bool)
	pairKey := func(rep, member int32) int64 { return int64(rep)<<32 | int64(member) }

	solvers := make([]*sat.Solver, shards)
	encoders := make([]*Encoder, shards)
	shardOf := func(id int32) int {
		return int((uint64(id) * 0x9E3779B97F4A7C15 >> 32) % uint64(shards))
	}

	cexWords := (g.NumPIs() + 63) / 64
	throttle := opt.MaxCEXRounds > 0
	var pending []sweepQuery
	var reps []int32
	var spentConflicts int64

	for {
		if opt.Interrupt != nil && opt.Interrupt() != nil {
			st.Interrupted = true
			break
		}
		// Build this round's queries deterministically: within each class
		// (ascending member ids), a member is compared against the first
		// representative it has not already been distinguished from;
		// members distinct from every representative — or past the retry
		// cap — become representatives themselves, so nodes whose proof
		// against the class leader failed still merge with later members.
		pending = pending[:0]
		for _, cls := range classes {
			reps = reps[:0]
			queried := false
			for _, id := range cls {
				if merged[id] >= 0 {
					continue
				}
				if len(reps) == 0 || g.nodes[id].kind != kindAnd || int(tries[id]) >= maxRepTries {
					// PIs are never merged away; they can only represent.
					reps = append(reps, id)
					continue
				}
				cand := int32(-1)
				for _, r := range reps {
					if !distinct[pairKey(r, id)] {
						cand = r
						break
					}
				}
				if cand < 0 {
					reps = append(reps, id)
					continue
				}
				// With refinement enabled, query one member per class per
				// round: a counterexample from it usually re-splits the
				// class and spares the remaining members their queries.
				if throttle && queried {
					continue
				}
				pending = append(pending, sweepQuery{rep: cand, member: id})
				queried = true
			}
		}
		if len(pending) == 0 {
			break
		}
		st.Rounds++
		st.Queries += int64(len(pending))
		rsp := opt.Span.Child("sweep.round", "aig")
		rsp.SetInt("round", int64(st.Rounds))
		rsp.SetInt("queries", int64(len(pending)))
		rsp.SetInt("classes", int64(len(classes)))
		mergesBefore := st.Merges

		// Distribute queries over the solver shards by member hash. The
		// per-shard sequence depends only on the pending list, never on
		// Workers, so budget-limited outcomes and models are reproducible.
		shardIdx := make([][]int32, shards)
		for qi, q := range pending {
			s := shardOf(q.member)
			shardIdx[s] = append(shardIdx[s], int32(qi))
		}
		results := make([]sweepResult, len(pending))
		collectCEX := st.CEXRounds < opt.MaxCEXRounds
		var satCalls, conflicts int64
		nw := workers
		if nw > shards {
			nw = shards
		}
		var wg sync.WaitGroup
		var faultMu sync.Mutex
		var workerPanic any
		var workerFault error
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// A panic must be recovered on the goroutine that raised
				// it — otherwise it kills the process no matter what the
				// sweeping goroutine defers. Hold the first panic value
				// and re-throw it after Wait, where the pipeline recover
				// boundaries can classify it.
				defer func() {
					if r := recover(); r != nil {
						faultMu.Lock()
						if workerPanic == nil {
							workerPanic = r
						}
						faultMu.Unlock()
					}
				}()
				for sh := w; sh < shards; sh += nw {
					if len(shardIdx[sh]) == 0 {
						continue
					}
					if err := fault.Point(fault.PointSweepShard); err != nil {
						faultMu.Lock()
						if workerFault == nil {
							workerFault = err
						}
						faultMu.Unlock()
						return
					}
					if opt.Stage != "" {
						pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
							pprof.Labels("stage", opt.Stage, "sweep.shard", strconv.Itoa(sh))))
					}
					if solvers[sh] == nil {
						solvers[sh] = sat.New()
						solvers[sh].SetBudget(opt.ConflictBudget)
						if opt.Interrupt != nil {
							solvers[sh].SetInterrupt(func() bool { return opt.Interrupt() != nil })
						}
						if opt.Metrics != nil {
							// Metrics only: per-query spans would swamp
							// the trace with thousands of events.
							solvers[sh].SetObserver(nil, opt.Metrics)
						}
						encoders[sh] = NewEncoder(g, solvers[sh])
					}
					solver, enc := solvers[sh], encoders[sh]
					for _, qi := range shardIdx[sh] {
						before := solver.Stats().Conflicts
						results[qi] = proveQuery(solver, enc, pending[qi], compl, collectCEX, cexWords, &satCalls)
						atomic.AddInt64(&conflicts, solver.Stats().Conflicts-before)
					}
				}
			}(w)
		}
		wg.Wait()
		if workerPanic != nil {
			rsp.SetStr("err", "worker panic")
			rsp.End()
			panic(workerPanic)
		}
		st.SATCalls += satCalls
		spentConflicts += conflicts
		if workerFault != nil {
			// Abandon the round mid-flight, exactly like an interrupt:
			// merges from earlier rounds stand, this round's results are
			// discarded, and the rebuilt graph below stays valid.
			st.Interrupted = true
			st.FaultErr = workerFault
			rsp.SetStr("err", workerFault.Error())
			rsp.End()
			break
		}

		// Merge and refine in deterministic pending order.
		var newCEX [][]uint64
		var cexSeen map[string]bool
		for qi := range pending {
			q := pending[qi]
			switch results[qi].status {
			case sat.Unsat:
				merged[q.member] = q.rep
				mergedCompl[q.member] = compl[q.rep] != compl[q.member]
				st.ProvedEqual++
				st.Merges++
			case sat.Sat:
				st.Disproved++
				distinct[pairKey(q.rep, q.member)] = true
				tries[q.member]++
				if cex := results[qi].cex; cex != nil && len(newCEX) < 64 {
					if cexSeen == nil {
						cexSeen = make(map[string]bool)
					}
					k := cexKey(cex)
					if !cexSeen[k] {
						cexSeen[k] = true
						newCEX = append(newCEX, cex)
					}
				}
			default: // Unknown: budget exhausted, conservatively distinct
				st.BudgetOut++
				distinct[pairKey(q.rep, q.member)] = true
				tries[q.member]++
			}
		}

		if len(newCEX) > 0 {
			// Pack up to 64 counterexample vectors into one new pattern
			// word per PI, simulate only that word, and re-split every
			// class on it: one counterexample kills many false candidates.
			w := len(patterns[0])
			for i := range patterns {
				var word uint64
				for k, vec := range newCEX {
					if vec[i/64]>>(uint(i)%64)&1 == 1 {
						word |= 1 << uint(k)
					}
				}
				patterns[i] = append(patterns[i], word)
			}
			eng.extend(patterns, w, w+1)
			classes = refineClasses(classes, eng, w, compl, merged)
			st.CEXRounds++
			st.CEXPatterns += len(newCEX)
			mCEX.Add(1)
		}
		mCalls.Add(satCalls)
		mMerges.Add(int64(st.Merges - mergesBefore))
		mClasses.Set(int64(len(classes)))
		rsp.SetInt("merges", int64(st.Merges-mergesBefore))
		rsp.SetInt("cex", int64(len(newCEX)))
		rsp.End()
		if opt.TotalConflictBudget > 0 && spentConflicts >= opt.TotalConflictBudget {
			break
		}
	}

	st.PatternWords = len(patterns[0])
	for _, s := range solvers {
		if s != nil {
			st.Solver.Add(s.Stats())
		}
	}

	// Rebuild the graph, replacing merged nodes by their class leaders
	// (chains resolve through strictly smaller ids, so the leader's new
	// literal always exists by the time a member needs it).
	ng := New()
	newLit := make([]Lit, numNodes)
	newLit[0] = Const0
	for i, pid := range g.pis {
		newLit[pid] = ng.PI(g.piNames[i])
	}
	for id := 1; id < numNodes; id++ {
		n := &g.nodes[id]
		if n.kind != kindAnd {
			continue
		}
		if merged[id] >= 0 {
			leader, inv := id, false
			for merged[leader] >= 0 {
				inv = inv != mergedCompl[leader]
				leader = int(merged[leader])
			}
			newLit[id] = newLit[leader].NotIf(inv)
			continue
		}
		a := newLit[n.fan0.Node()].NotIf(n.fan0.Compl())
		b := newLit[n.fan1.Node()].NotIf(n.fan1.Compl())
		newLit[id] = ng.And(a, b)
	}
	for i, po := range g.pos {
		ng.AddPO(newLit[po.Node()].NotIf(po.Compl()), g.poNames[i])
	}
	return ng.Cleanup(), st
}

// initialClasses groups the PO-cone nodes by their normalized simulation
// signatures. Signatures are keyed by a 64-bit FNV-1a hash (serialized
// with PutUint64 into a fixed buffer, not per-byte appends) and verified
// word-for-word against the class leader, so hash collisions cannot merge
// distinct signatures. Classes and their members are in ascending id
// order; singletons are dropped.
func initialClasses(g *Graph, eng *simEngine, words int, compl, reach []bool) [][]int32 {
	classes := make([][]int32, 0, 64)
	buckets := make(map[uint64][]int32)
	for id := 0; id < len(g.nodes); id++ {
		if !reach[id] {
			continue
		}
		h := sigHash(eng, id, words, compl[id])
		found := int32(-1)
		for _, ci := range buckets[h] {
			leader := classes[ci][0]
			if sigEqual(eng, id, int(leader), words, compl[id] != compl[leader]) {
				found = ci
				break
			}
		}
		if found >= 0 {
			classes[found] = append(classes[found], int32(id))
			continue
		}
		buckets[h] = append(buckets[h], int32(len(classes)))
		classes = append(classes, []int32{int32(id)})
	}
	out := classes[:0]
	for _, cls := range classes {
		if len(cls) > 1 {
			out = append(out, cls)
		}
	}
	return out
}

// sigHash is a 64-bit FNV-1a hash of node id's normalized signature,
// over the same parameters StructuralHash mixes with (structhash.go).
func sigHash(eng *simEngine, id, words int, neg bool) uint64 {
	const prime = fnvPrime64
	h := uint64(fnvOffset64)
	base := id * eng.stride
	var buf [8]byte
	for w := 0; w < words; w++ {
		v := eng.vals[base+w]
		if neg {
			v = ^v
		}
		binary.LittleEndian.PutUint64(buf[:], v)
		for _, b := range buf {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

// sigEqual reports whether nodes a and b have identical signatures up to
// the inversion inv over the first `words` words.
func sigEqual(eng *simEngine, a, b, words int, inv bool) bool {
	sa := eng.vals[a*eng.stride : a*eng.stride+words]
	sb := eng.vals[b*eng.stride : b*eng.stride+words]
	if inv {
		for w := range sa {
			if sa[w] != ^sb[w] {
				return false
			}
		}
		return true
	}
	for w := range sa {
		if sa[w] != sb[w] {
			return false
		}
	}
	return true
}

// refineClasses re-splits every class on the freshly simulated word,
// dropping merged members and dissolved classes. Group order follows the
// first member carrying each value, so the result is deterministic.
func refineClasses(classes [][]int32, eng *simEngine, word int, compl []bool, merged []int32) [][]int32 {
	out := make([][]int32, 0, len(classes))
	groupOf := make(map[uint64]int)
	for _, cls := range classes {
		start := len(out)
		for k := range groupOf {
			delete(groupOf, k)
		}
		for _, id := range cls {
			if merged[id] >= 0 {
				continue
			}
			v := eng.vals[int(id)*eng.stride+word]
			if compl[id] {
				v = ^v
			}
			gi, ok := groupOf[v]
			if !ok {
				gi = len(out)
				groupOf[v] = gi
				out = append(out, make([]int32, 0, 2))
			}
			out[gi] = append(out[gi], id)
		}
		// Drop the singletons produced by this class's split.
		keep := start
		for gi := start; gi < len(out); gi++ {
			if len(out[gi]) > 1 {
				out[keep] = out[gi]
				keep++
			}
		}
		out = out[:keep]
	}
	return out
}

// proveQuery checks with SAT that the queried nodes are equal up to the
// complement relation implied by their normalized signatures. Cones are
// encoded lazily into the shard's solver on first use. On a Sat answer
// the model's PI assignment is returned as a packed counterexample when
// collection is enabled.
func proveQuery(solver *sat.Solver, enc *Encoder, q sweepQuery, compl []bool, collectCEX bool, cexWords int, satCalls *int64) sweepResult {
	la := sat.MkLit(enc.Var(int(q.rep)), false)
	inv := compl[q.rep] != compl[q.member]
	lb := sat.MkLit(enc.Var(int(q.member)), inv)
	// UNSAT of (a != b) in both polarities proves equality.
	atomic.AddInt64(satCalls, 1)
	switch solver.Solve(la, lb.Not()) {
	case sat.Sat:
		return sweepResult{status: sat.Sat, cex: extractCEX(solver, enc, collectCEX, cexWords)}
	case sat.Unknown:
		return sweepResult{status: sat.Unknown}
	}
	atomic.AddInt64(satCalls, 1)
	switch solver.Solve(la.Not(), lb) {
	case sat.Sat:
		return sweepResult{status: sat.Sat, cex: extractCEX(solver, enc, collectCEX, cexWords)}
	case sat.Unknown:
		return sweepResult{status: sat.Unknown}
	}
	return sweepResult{status: sat.Unsat}
}

// extractCEX packs the model's primary-input assignment into a bitset.
// PIs outside every encoded cone default to false, keeping the vector a
// pure function of the shard's query sequence.
func extractCEX(solver *sat.Solver, enc *Encoder, collect bool, cexWords int) []uint64 {
	if !collect {
		return nil
	}
	vec := make([]uint64, cexWords)
	for i, pid := range enc.g.pis {
		if enc.Encoded(pid) && solver.Value(enc.Var(pid)) {
			vec[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return vec
}

// cexKey builds a map key for counterexample deduplication.
func cexKey(vec []uint64) string {
	buf := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	return string(buf)
}

// Optimize runs the standard synthesis pipeline used before reporting
// sizes: cleanup, balance, and SAT sweeping, mirroring the paper's "after
// optimization" circuit preparation (ABC's strash/balance/fraig).
func (g *Graph) Optimize() *Graph { return g.OptimizeWith(DefaultSweepOptions()) }

// OptimizeWith runs cleanup, balance, and SAT sweeping with explicit
// sweep settings.
func (g *Graph) OptimizeWith(opt SweepOptions) *Graph {
	out, _ := g.OptimizeWithStats(opt)
	return out
}

// OptimizeWithStats is OptimizeWith keeping the sweep statistics, which
// callers need to tell a clean completion from an interrupted or
// fault-injected sweep (SweepStats.Interrupted / FaultErr).
func (g *Graph) OptimizeWithStats(opt SweepOptions) (*Graph, *SweepStats) {
	return g.Cleanup().Balance().SweepWithStats(opt)
}
