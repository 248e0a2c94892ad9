// Command bench measures the SAT-sweeping engine and the fold pipeline
// and emits the results as machine-readable JSON, so CI and
// EXPERIMENTS.md runs can track the engine's speed and SAT-call counts
// over time.
//
// Usage:
//
//	bench [-out BENCH_sweep.json] [-pipeout BENCH_pipeline.json]
//	      [-bddout BENCH_bdd.json] [-serveout BENCH_serve.json]
//	      [-servejobs 32] [-tputout BENCH_throughput.json] [-tputjobs 32]
//	      [-reps 3] [-size 4000] [-seed 1234] [-tables]
//	      [-tracefile trace.json] [-circuit 64-adder] [-frames 16]
//	      [-traceonly] [-http :6060]
//
// -tracefile folds one benchmark circuit (functionally and
// structurally, both with a post-fold SAT sweep) under a span tracer
// and writes the run as Chrome trace-event JSON that chrome://tracing
// and https://ui.perfetto.dev load directly. -traceonly skips the
// sweep and pipeline measurements and only produces the trace.
//
// -http serves net/http/pprof (/debug/pprof, where the sweep worker
// goroutines carry stage/shard labels) for live profiling; the process
// stays up after the work finishes until interrupted.
//
// Four sweep configurations run on the same random workload:
//
//	workers=1   serial sweep, default pool width
//	workers=N   GOMAXPROCS-worker sweep (identical result by design)
//	cex on/off  one-word pool with and without counterexample refinement
//
// Alongside the sweep report, every benchmark circuit is folded
// structurally through the pass pipeline and its per-stage trace
// (schedule, synth timings and sizes) lands in BENCH_pipeline.json.
//
// -bddout runs the BDD kernel lane: apply/ITE microbenchmarks
// (steady-state ops/sec, computed-cache hit rate, peak live nodes) and
// a build-then-sift pass over the tractable Table III circuits, with
// per-circuit sift wall time. The results land in BENCH_bdd.json.
//
// -serveout runs the fold-service lane: the -circuit/-frames fold
// submitted as jobs through the full HTTP service path (internal/job
// behind a loopback server — POST, status polling, runner queue, fold
// engine) at client concurrency 1, 8 and 64, reporting jobs/sec and
// p50/p99 submit-to-done latency in BENCH_serve.json.
//
// -tputout runs the shared-work throughput lane: the same fold
// submitted straight to the in-process runner (no HTTP), cold (unique
// specs, every fold computed) and warm (identical resubmissions served
// by the result cache) at concurrency 1, 8 and 64, reporting jobs/sec
// and the warm/cold speedup in BENCH_throughput.json.
//
// -tables additionally times a Table I/II regeneration (the harness paths
// whose runtime the sweep dominates) and appends those runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"time"

	"circuitfold/internal/aig"
	"circuitfold/internal/core"
	"circuitfold/internal/exp"
	"circuitfold/internal/gen"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

// Run is one measured sweep configuration.
type Run struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Words     int     `json:"words"`
	CEXRounds int     `json:"cex_rounds"`
	NsPerOp   float64 `json:"ns_per_op"`
	SATCalls  int64   `json:"sat_calls"`
	Merges    int     `json:"merges"`
	Conflicts int64   `json:"conflicts"`
	Ands      int     `json:"ands_after"`
}

// Report is the BENCH_sweep.json schema.
type Report struct {
	Date                string  `json:"date"`
	GoMaxProcs          int     `json:"gomaxprocs"`
	CircuitAnds         int     `json:"circuit_ands"`
	Runs                []Run   `json:"runs"`
	SpeedupWorkers      float64 `json:"speedup_workers"`       // workers=1 time / workers=N time
	SATCallReductionCEX float64 `json:"satcall_reduction_cex"` // cex-off calls / cex-on calls
}

// PipelineRun is one circuit's fold through the pass pipeline.
type PipelineRun struct {
	Circuit  string                `json:"circuit"`
	Frames   int                   `json:"frames"`
	Pipeline string                `json:"pipeline"`
	TotalNs  int64                 `json:"total_ns"`
	Stages   []pipeline.StageStats `json:"stages"`
	Err      string                `json:"err,omitempty"`
}

// PipelineReport is the BENCH_pipeline.json schema.
type PipelineReport struct {
	Date string        `json:"date"`
	Runs []PipelineRun `json:"runs"`
}

// foldPipelines folds every benchmark circuit structurally through the
// pass pipeline and records the per-stage trace. The frame count is the
// minimum that fits the circuit under a 200-pin budget, so wide
// circuits fold deeper (mirroring the Table II setup).
func foldPipelines() []PipelineRun {
	var runs []PipelineRun
	for _, name := range gen.Names() {
		info, err := gen.Lookup(name)
		if err != nil {
			continue
		}
		T := exp.MinFrames(info.PIs, 200)
		if T < 2 {
			T = 2
		}
		g := gen.MustBuild(name)
		pr := PipelineRun{Circuit: name, Frames: T, Pipeline: "structural"}
		r, err := core.StructuralFold(g, T, core.StructuralOptions{Counter: core.Binary})
		if err != nil {
			pr.Err = err.Error()
		} else if r.Report != nil {
			pr.TotalNs = r.Report.Total.Nanoseconds()
			pr.Stages = r.Report.Stages
		}
		runs = append(runs, pr)
	}
	return runs
}

// traceFold folds circuit by T frames under a span tracer and metrics
// registry — functionally (reorder, exact minimization, one-hot
// encoding) and structurally, both with a post-fold SAT sweep, so the
// trace exercises every sub-stage span type: bdd.sift, tff.frame,
// memin.iter/sat.solve, and sweep.round — and writes the combined
// Chrome trace to path. A fold abort (budget, cancellation) still
// writes the partial trace.
func traceFold(circuit string, T int, path string) error {
	g, err := gen.Build(circuit)
	if err != nil {
		return err
	}
	buf := obs.NewTraceBuffer()
	o := &obs.Observer{Tracer: obs.NewTracer(buf), Metrics: obs.NewRegistry()}

	sweep := aig.DefaultSweepOptions()
	fo := core.DefaultFunctionalOptions()
	fo.Budget = pipeline.Budget{Wall: 2 * time.Minute}
	fo.MinOpts.Timeout = fo.Budget.Wall
	fo.PostOptimize = &sweep
	fo.Obs = o
	_, ferr := core.FunctionalFold(g, T, fo)

	_, serr := core.StructuralFold(g, T, core.StructuralOptions{
		Counter:      core.Binary,
		Budget:       pipeline.Budget{Wall: 2 * time.Minute},
		PostOptimize: &sweep,
		Obs:          o,
	})

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTrace(f, buf.Events())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("wrote %s: %d trace events (%s, T=%d)\n", path, buf.Len(), circuit, T)
	if ferr != nil {
		return fmt.Errorf("functional fold: %w", ferr)
	}
	if serr != nil {
		return fmt.Errorf("structural fold: %w", serr)
	}
	return nil
}

func measure(g *aig.Graph, name string, opt aig.SweepOptions, reps int) Run {
	if reps < 1 {
		reps = 1
	}
	var best time.Duration
	var st *aig.SweepStats
	var ng *aig.Graph
	for r := 0; r < reps; r++ {
		start := time.Now()
		ng, st = g.SweepWithStats(opt)
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return Run{
		Name:      name,
		Workers:   workers,
		Words:     opt.Words,
		CEXRounds: opt.MaxCEXRounds,
		NsPerOp:   float64(best.Nanoseconds()),
		SATCalls:  st.SATCalls,
		Merges:    st.Merges,
		Conflicts: st.Solver.Conflicts,
		Ands:      ng.NumAnds(),
	}
}

func main() {
	var (
		out       = flag.String("out", "BENCH_sweep.json", "output JSON path (- for stdout)")
		pipeout   = flag.String("pipeout", "BENCH_pipeline.json", "per-stage fold timings JSON path (empty to skip)")
		bddout    = flag.String("bddout", "BENCH_bdd.json", "BDD kernel benchmark JSON path (empty to skip)")
		serveout  = flag.String("serveout", "BENCH_serve.json", "fold-service benchmark JSON path (empty to skip)")
		servejobs = flag.Int("servejobs", 32, "jobs per service concurrency level")
		tputout   = flag.String("tputout", "BENCH_throughput.json", "shared-work throughput benchmark JSON path (empty to skip)")
		tputjobs  = flag.Int("tputjobs", 32, "jobs per throughput (mode, concurrency) cell")
		reps      = flag.Int("reps", 3, "repetitions per configuration (best time wins)")
		size      = flag.Int("size", 4000, "workload size in AND nodes")
		seed      = flag.Uint64("seed", 1234, "workload generator seed")
		tables    = flag.Bool("tables", false, "also time a Table I/II regeneration")
		tracefile = flag.String("tracefile", "", "write a Chrome trace of one instrumented fold to this path")
		circuit   = flag.String("circuit", "64-adder", "benchmark circuit to trace (-tracefile)")
		frames    = flag.Int("frames", 16, "folding number for the traced fold (-tracefile)")
		traceonly = flag.Bool("traceonly", false, "only produce the -tracefile trace, skip the measurements")
		httpAddr  = flag.String("http", "", "serve pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	if *httpAddr != "" {
		go func() {
			fmt.Printf("serving pprof on http://%s/debug/pprof/\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "bench: http:", err)
			}
		}()
	}

	if *tracefile != "" {
		if err := traceFold(*circuit, *frames, *tracefile); err != nil {
			fmt.Fprintln(os.Stderr, "bench: trace:", err)
			os.Exit(1)
		}
	}
	if *traceonly {
		hold(*httpAddr)
		return
	}

	g := gen.Random(*seed, 48, 16, *size)

	serial := aig.DefaultSweepOptions()
	serial.Workers = 1
	parallel := aig.DefaultSweepOptions()
	parallel.Workers = runtime.GOMAXPROCS(0)
	cexOff := aig.DefaultSweepOptions()
	cexOff.Words = 1
	cexOff.MaxCEXRounds = 0
	cexOn := aig.DefaultSweepOptions()
	cexOn.Words = 1
	cexOn.MaxCEXRounds = 8

	rep := Report{
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		CircuitAnds: g.NumAnds(),
	}
	rep.Runs = append(rep.Runs,
		measure(g, "sweep/workers=1", serial, *reps),
		measure(g, fmt.Sprintf("sweep/workers=%d", parallel.Workers), parallel, *reps),
		measure(g, "sweep/cex=off", cexOff, *reps),
		measure(g, "sweep/cex=on", cexOn, *reps),
	)
	rep.SpeedupWorkers = rep.Runs[0].NsPerOp / rep.Runs[1].NsPerOp
	rep.SATCallReductionCEX = float64(rep.Runs[2].SATCalls) / float64(rep.Runs[3].SATCalls)

	if *tables {
		start := time.Now()
		if _, err := exp.Table1([]string{"64-adder", "apex2", "e64", "i10", "C7552"}); err != nil {
			fmt.Fprintln(os.Stderr, "bench: table1:", err)
			os.Exit(1)
		}
		rep.Runs = append(rep.Runs, Run{Name: "table1/subset", NsPerOp: float64(time.Since(start).Nanoseconds())})
		start = time.Now()
		if _, err := exp.Table2(exp.PinLimit); err != nil {
			fmt.Fprintln(os.Stderr, "bench: table2:", err)
			os.Exit(1)
		}
		rep.Runs = append(rep.Runs, Run{Name: "table2/full", NsPerOp: float64(time.Since(start).Nanoseconds())})
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: workers speedup %.2fx, CEX SAT-call reduction %.2fx\n",
			*out, rep.SpeedupWorkers, rep.SATCallReductionCEX)
	}

	if *pipeout != "" {
		prep := PipelineReport{
			Date: time.Now().UTC().Format(time.RFC3339),
			Runs: foldPipelines(),
		}
		if err := writeJSON(*pipeout, prep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: per-stage fold timings for %d circuits\n", *pipeout, len(prep.Runs))
	}
	if *bddout != "" {
		brep := benchBDD(*reps)
		if err := writeJSON(*bddout, brep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: BDD kernel lane (%d circuits, apply %.1f Mops/s, cache hit %.1f%%)\n",
			*bddout, len(brep.Circuits), brep.Micro.ApplyOpsPerSec/1e6, brep.Micro.CacheHitPct)
	}
	if *serveout != "" {
		srep, err := benchServe(*circuit, *frames, 8, *servejobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: serve:", err)
			os.Exit(1)
		}
		srep.Overload, err = benchServeOverload(*circuit, *frames, *servejobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: serve overload:", err)
			os.Exit(1)
		}
		if err := writeJSON(*serveout, srep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		last := srep.Runs[len(srep.Runs)-1]
		fmt.Printf("wrote %s: fold service lane (%.1f jobs/s at concurrency %d, p50 %.1fms, p99 %.1fms)\n",
			*serveout, last.JobsPerSec, last.Concurrency, last.P50Ms, last.P99Ms)
		ov := srep.Overload
		fmt.Printf("  overload: %d offered -> %d accepted / %d rejected (retry-after %v), accepted p99 %.1fms\n",
			ov.Offered, ov.Accepted, ov.Rejected, ov.RetryAfterSeen, ov.AcceptedP99Ms)
	}
	if *tputout != "" {
		trep, err := benchThroughput(*circuit, *frames, 8, *tputjobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: throughput:", err)
			os.Exit(1)
		}
		if err := writeJSON(*tputout, trep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: shared-work throughput lane (warm speedup %.1fx)\n",
			*tputout, trep.WarmSpeedup)
	}
	hold(*httpAddr)
}

// writeJSON marshals v with indentation and writes it to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hold keeps the process alive when -http is serving, so the debug
// endpoints stay inspectable after the measurements finish.
func hold(addr string) {
	if addr == "" {
		return
	}
	fmt.Printf("done; still serving on http://%s/debug/ — interrupt to exit\n", addr)
	select {}
}
