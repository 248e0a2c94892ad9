// Command foldbench is the fold service's end-to-end benchmark. It runs
// foldd's HTTP API in-process in the production configuration (FileStore
// plus fsynced journal, runner workers = nproc, Recover before traffic)
// and drives it with closed-loop clients that block on each job's event
// stream and then fetch its result.
//
// Usage:
//
//	foldbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: table3-functional and resubmit-hot (see workloads.go).
// One round submits the workload's fixed job list to a freshly set-up
// service; rounds repeat until --seconds of timed work have run, at
// least five times. Each timing is the best round's (see endToEnd),
// setup_s the median over set-ups and peak_rss_mb the median over
// rounds. With --trace 0 the last line of standard output is the
// end-to-end metrics; with --trace 1 it is the per-layer metrics of a
// traced run, and the Chrome trace, the per-layer self-time table and
// the tracing overhead are written under the output directory.
// Every result is checked against its source circuit after the timed
// windows; a failed check makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"circuitfold/internal/job"
)

// A run measures at least minSetups set-ups and minRounds rounds and
// summarizes them (see endToEnd). A traced run alternates untraced and
// traced rounds, at least minOverheadRounds of each, for the overhead
// figure.
const (
	minSetups         = 3
	minRounds         = 5
	minOverheadRounds = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks the job lists; only the tests set it.
	small  bool
	outDir string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: table3-functional or resubmit-hot")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed seconds per run (whole rounds; at least one)")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".foldbench", "directory for service state and trace artifacts")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "foldbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "foldbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "foldbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// round is one timed pass over the job list on a fresh service.
type round struct {
	samples []sample
	traced  bool
	wall    time.Duration
	cpu     time.Duration
	// storeKB is the size of the service directory after the round.
	storeKB float64
	// start is the wall instant the round's timing began.
	start time.Time
	// peakMB is the process's peak resident set during the round.
	peakMB float64
	// stealPct is the share of host CPU stolen during the round.
	stealPct float64
}

func run(cfg config) (*output, error) {
	nproc := runtime.NumCPU()
	workers, foldWorkers := nproc, nproc
	root := filepath.Join(cfg.outDir, "state")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	chk := newChecker()
	var (
		setups []float64
		rounds []*round
		timed  meter // untraced rounds
		traced meter // traced rounds
		last   *workload
		// saves is the replayed checkpoint save time of each folded key.
		saves = map[string]float64{}
	)
	nTimed, nTraced := 0, 0
	need := func() bool {
		if cfg.trace {
			// Untraced and traced rounds alternate throughout, so the
			// overhead comparison sees both over the same stretch of
			// time; together they take the configured time.
			return nTimed < minOverheadRounds || nTraced < minOverheadRounds ||
				timed.wall.Seconds()+traced.wall.Seconds() < cfg.seconds
		}
		return len(rounds) < minRounds || timed.wall.Seconds() < cfg.seconds
	}
	for len(setups) < minSetups || need() {
		t0 := time.Now()
		w, err := buildWorkload(cfg.workload, cfg.seed, cfg.small, foldWorkers)
		if err != nil {
			return nil, err
		}
		svc, err := startService(runDir, workers, w.Clients)
		if err != nil {
			return nil, err
		}
		cold, err := prepare(svc, w, chk)
		if err != nil {
			svc.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if last == nil {
			last = w
		}
		if need() {
			// Start every round from a collected heap, so one round's
			// garbage does not land in the next round's timing.
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				svc.close()
				return nil, err
			}
			r := &round{traced: cfg.trace && nTraced < nTimed}
			m := &timed
			if r.traced {
				m, nTraced = &traced, nTraced+1
			} else {
				nTimed++
			}
			if err := runRound(svc, w, r, m); err != nil {
				svc.close()
				return nil, err
			}
			if r.peakMB, err = peakRSSMB(); err != nil {
				svc.close()
				return nil, err
			}
			if err := collect(svc, r, saves); err != nil {
				svc.close()
				return nil, err
			}
			if !w.Hot {
				cold = nil
			}
			chk.observe(r.samples, cold)
			// Every set-up regenerates the same inputs; point the samples
			// at the first copy so later copies can be freed.
			for i := range r.samples {
				r.samples[i].in = &last.Jobs[i]
			}
			rounds = append(rounds, r)
			logRound(len(rounds), r)
		}
		if err := svc.close(); err != nil {
			return nil, fmt.Errorf("service teardown: %w", err)
		}
	}
	t0 := time.Now()
	chk.verify()
	fmt.Fprintf(os.Stderr, "check: %d distinct results in %.1fs\n", len(chk.keys), time.Since(t0).Seconds())
	attempted, failed := 0, 0
	for _, r := range rounds {
		for i := range r.samples {
			attempted++
			if chk.failed(&r.samples[i]) {
				failed++
			}
		}
	}
	for _, p := range chk.problems {
		fmt.Fprintln(os.Stderr, "check:", p)
	}
	gates, ffs, states := chk.quality(last.Jobs)

	m := &timed
	if cfg.trace {
		m = &traced
	}
	host := newHostRecord(cfg.workload, cfg.seed, cfg.trace, workers, last.Clients, foldWorkers)
	host.Rounds, host.Setups, host.JobsPerRound = len(rounds), len(setups), len(last.Jobs)
	host.TimedSeconds, host.ProcessCPUSec = m.wall.Seconds(), m.cpu.Seconds()
	host.HostStealPct = 100 * m.stealShare()
	host.TailPct = tailPercentile(len(last.Jobs))
	host.SATProved, host.SATUnknown = chk.satProved, chk.satUnknown

	out := &output{Correct: failed == 0 && len(chk.problems) == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{}}
	if cfg.trace {
		var untracedRounds, tracedRounds []*round
		for _, r := range rounds {
			if r.traced {
				tracedRounds = append(tracedRounds, r)
			} else {
				untracedRounds = append(untracedRounds, r)
			}
		}
		e2eTraced := endToEnd(tracedRounds)
		e2eUntraced := endToEnd(untracedRounds)
		host.TailN = e2eTraced.n
		layers, err := traceArtifacts(cfg, last, chk, saves, tracedRounds, e2eTraced, e2eUntraced)
		if err != nil {
			return nil, err
		}
		out.Metrics = layers
	} else {
		e := endToEnd(rounds)
		host.TailN = e.n
		out.Metrics = map[string]metric{
			"jobs_per_s":         {e.jobsPerS, "1/s"},
			"latency_p50_ms":     {e.p50, "ms"},
			"latency_tail_ms":    {e.tail, "ms"},
			"latency_geomean_ms": {e.geomean, "ms"},
			"cpu_ms_per_job":     {e.cpuPerJob, "ms"},
			"success_rate":       {float64(attempted-failed) / float64(attempted), "ratio"},
			"setup_s":            {median(setups), "s"},
			"peak_rss_mb":        {e.peakMB, "MB"},
			"result_gates_sum":   {float64(gates), "count"},
			"result_ffs_sum":     {float64(ffs), "count"},
			"result_states_sum":  {float64(states), "count"},
		}
	}
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(hostLine))
	return out, nil
}

// latencies summarizes rounds. Each timing is the best round's value:
// the lowest over rounds, the highest for jobs_per_s. Interference
// from the rest of a shared host (steal, neighbours on shared caches)
// only ever slows a round, and it comes in stretches of seconds to
// minutes that can cover most of a run, so the fastest round is the
// one that reads the program rather than the host. Peak memory does
// not slow down with the host, so it is the median over rounds.
type latencies struct {
	n                   int // successful jobs over all rounds
	p50, tail, geomean  float64
	jobsPerS, cpuPerJob float64
	peakMB              float64
}

func endToEnd(rounds []*round) latencies {
	var l latencies
	var p50, tails, geo, tput, cpu, peak []float64
	for _, r := range rounds {
		var xs []float64
		for i := range r.samples {
			if s := &r.samples[i]; s.err == nil {
				xs = append(xs, ms(s.latency()))
			}
		}
		if len(xs) == 0 {
			continue
		}
		l.n += len(xs)
		p50 = append(p50, median(xs))
		tails = append(tails, tail(xs))
		geo = append(geo, geomean(xs))
		tput = append(tput, float64(len(xs))/r.wall.Seconds())
		cpu = append(cpu, ms(r.cpu)/float64(len(xs)))
		peak = append(peak, r.peakMB)
	}
	if len(p50) == 0 {
		return l
	}
	l.p50, l.tail, l.geomean = slices.Min(p50), slices.Min(tails), slices.Min(geo)
	l.jobsPerS, l.cpuPerJob = slices.Max(tput), slices.Min(cpu)
	l.peakMB = median(peak)
	return l
}

// logRound writes one round's figures to standard error, so a noisy
// round can be told from a slow program.
func logRound(k int, r *round) {
	e := endToEnd([]*round{r})
	fmt.Fprintf(os.Stderr, "round %d traced=%v wall=%.3fs jobs_per_s=%.2f p50=%.2fms tail=%.2fms geomean=%.2fms cpu/job=%.2fms peak=%.1fMB steal=%.1f%%\n",
		k, r.traced, r.wall.Seconds(), e.jobsPerS, e.p50, e.tail, e.geomean, e.cpuPerJob, e.peakMB, r.stealPct)
}

// prepare runs the set-up folds one at a time and waits for each. On a
// hot workload it returns the bytes each key's cold fold served, which
// every later hit must repeat exactly.
func prepare(svc *service, w *workload, chk *checker) (map[string][]byte, error) {
	cold := make(map[string][]byte)
	for i := range w.Prepare {
		s := svc.runJob(&w.Prepare[i])
		if s.err != nil {
			return nil, fmt.Errorf("%s: %w", w.Prepare[i].source(), s.err)
		}
		if s.cache != "miss" {
			return nil, fmt.Errorf("%s: set-up fold was a cache %s", w.Prepare[i].source(), s.cache)
		}
		cold[s.in.FoldKey] = s.result
		if err := chk.add(s.in, s.result); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Prepare[i].source(), err)
		}
	}
	return cold, nil
}

// runRound submits the job list from w.Clients closed-loop clients.
func runRound(svc *service, w *workload, r *round, m *meter) error {
	r.samples = make([]sample, len(w.Jobs))
	var next atomic.Int64
	if err := m.start(); err != nil {
		return err
	}
	r.start = m.startWall
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.Jobs) {
					return
				}
				r.samples[i] = svc.runJob(&w.Jobs[i])
				r.samples[i].client = c
			}
		}(c)
	}
	wg.Wait()
	before, cpuBefore, ticksBefore := m.wall, m.cpu, m.ticks
	if err := m.stop(); err != nil {
		return err
	}
	r.wall, r.cpu = m.wall-before, m.cpu-cpuBefore
	if total := m.ticks.total - ticksBefore.total; total > 0 {
		r.stealPct = 100 * float64(m.ticks.steal-ticksBefore.steal) / float64(total)
	}
	return nil
}

// collect reads, after the timed window, each job's server-side
// lifecycle. When traced it also reads the folded jobs' stage reports
// and replays, for each folded key not yet in saves, the checkpoint
// saves its fold made.
func collect(svc *service, r *round, saves map[string]float64) error {
	var list []job.Status
	if err := svc.getJSON("/v1/jobs", &list); err != nil {
		return err
	}
	byID := make(map[string]*job.Status, len(list))
	for i := range list {
		byID[list[i].ID] = &list[i]
	}
	parse := func(s string) time.Time {
		t, _ := time.Parse(time.RFC3339Nano, s) // empty for phases a job skipped
		return t
	}
	for i := range r.samples {
		s := &r.samples[i]
		st, ok := byID[s.id]
		if !ok {
			continue // never accepted; s.err says why
		}
		if st.State != job.StateDone && s.err == nil {
			s.err = fmt.Errorf("job %s ended %s: %s", s.id, st.State, st.Error)
		}
		s.created, s.started, s.finished = parse(st.CreatedAt), parse(st.StartedAt), parse(st.FinishedAt)
		if r.traced && s.err == nil && s.cache == "miss" {
			if err := svc.getJSON("/v1/jobs/"+s.id+"/report", &s.report); err != nil {
				return err
			}
		}
	}
	if r.traced {
		n, err := svc.storeBytes()
		if err != nil {
			return err
		}
		r.storeKB = float64(n) / 1024
		for i := range r.samples {
			s := &r.samples[i]
			if _, done := saves[s.in.FoldKey]; done || s.err != nil || s.cache != "miss" {
				continue
			}
			if saves[s.in.FoldKey], err = svc.replaySaves(s.in); err != nil {
				return err
			}
		}
	}
	return nil
}
