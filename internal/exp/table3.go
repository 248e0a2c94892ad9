package exp

import (
	"fmt"
	"io"
	"time"

	"circuitfold/internal/core"
	"circuitfold/internal/fsm"
	"circuitfold/internal/gen"
	"circuitfold/internal/pipeline"
)

// Table3Circuits lists the 11 benchmarks the paper compares the two
// methods on.
var Table3Circuits = []string{
	"64-adder", "apex2", "arbiter", "b17_C", "e64",
	"i2", "i3", "i4", "i6", "i7", "toolarge",
}

// Table3Frames are the folding numbers of Table III, largest first as in
// the paper.
var Table3Frames = []int{16, 8, 4}

// workersForExp parallelizes the harness's TFF runs with the same
// worker cap as core.DefaultFunctionalOptions; the folded machine is
// bit-identical for every worker count, so the tables don't change.
var workersForExp = core.DefaultFunctionalOptions().Workers

// Table3Row is one line of Table III: the structural and best functional
// results for one (circuit, T) pair. OK is false when every functional
// configuration hit its budget — the paper's "-" entries.
type Table3Row struct {
	Name   string
	Frames int
	In     int

	SOut, SGates, SLUTs, SFF int

	OK                 bool
	FOut               int
	States             int
	StatesMin          int // -1 when minimization was not applied
	FGates, FLUTs, FFF int
	LUTRed, FFRed      float64
	Config             string
	Runtime            time.Duration
	// Trace is the winning functional configuration's per-stage
	// pipeline trace (schedule, tff; minimize when it was applied).
	Trace *pipeline.Report
}

// StatesString renders the "#state" column, e.g. "32/2" or "474/-".
func (r Table3Row) StatesString() string { return statesString(r.States, r.StatesMin) }

// Table3Options bounds the per-configuration functional folding runs.
type Table3Options struct {
	// Timeout bounds scheduling+TFF per configuration (paper: 300 s).
	Timeout time.Duration
	// MinimizeTimeout bounds MeMin per configuration (paper: 300 s).
	MinimizeTimeout time.Duration
	// MaxStates aborts TFF beyond this many states.
	MaxStates int
	// Progress, when non-nil, receives one line per completed entry.
	Progress io.Writer
}

// DefaultTable3Options keeps the full sweep tractable on a laptop while
// reproducing the paper's timeout behavior qualitatively.
func DefaultTable3Options() Table3Options {
	return Table3Options{Timeout: 20 * time.Second, MinimizeTimeout: 10 * time.Second, MaxStates: 4000}
}

// functionalConfigs enumerates the configuration space of Table III's
// config column: input reordering, state minimization, encoding.
type functionalConfig struct {
	reorder  bool
	minimize bool
	enc      core.Encoding
}

func (c functionalConfig) String() string {
	s := "nr"
	if c.reorder {
		s = "r"
	}
	s += "/nm"
	if c.minimize {
		s = s[:len(s)-3] + "/m"
	}
	return s + "/" + c.enc.String()
}

// Table3Entry computes one row: the structural fold plus the best
// functional configuration (minimum LUTs, ties broken by flip-flops),
// mirroring the per-row config annotations of the paper.
func Table3Entry(name string, T int, opt Table3Options) (Table3Row, error) {
	g, err := gen.Build(name)
	if err != nil {
		return Table3Row{}, err
	}
	g = optimize(g)
	row := Table3Row{Name: name, Frames: T, StatesMin: -1}

	sr, err := core.StructuralFold(g, T, core.StructuralOptions{Counter: core.Binary})
	if err != nil {
		return row, err
	}
	sFolded := sr.Seq.Transform(optimize)
	row.In = sr.InputPins()
	row.SOut = sr.OutputPins()
	row.SGates = sFolded.G.NumAnds()
	row.SLUTs = luts(sFolded.G)
	row.SFF = sFolded.NumLatches()

	// The schedule and time-frame folding are shared across the
	// minimization and encoding variants of each reordering setting, so
	// the 8-configuration sweep costs two TFF runs, not eight. Each
	// reordering setting executes schedule+tff as a pipeline under one
	// budgeted run, so the per-stage timings land in the row's trace.
	best := -1
	for _, reorder := range []bool{true, false} {
		run := pipeline.NewRun(nil, pipeline.Budget{
			Wall:      opt.Timeout,
			BDDNodes:  4000000,
			MaxStates: opt.MaxStates,
		})
		var (
			sched   *core.Schedule
			machine *fsm.Machine
			states  int
		)
		rep, err := pipeline.Execute(run, "table3/functional",
			pipeline.Stage{Name: pipeline.StageSchedule, Run: func(ss *pipeline.StageStats) error {
				ss.AndsIn = g.NumAnds()
				var serr error
				sched, serr = core.PinScheduleRun(g, T, core.ScheduleOptions{Reorder: reorder}, run)
				return serr
			}},
			pipeline.Stage{Name: pipeline.StageTFF, Run: func(ss *pipeline.StageStats) error {
				var terr error
				machine, states, terr = core.TimeFrameFold(g, sched, workersForExp, run)
				ss.StatesOut = states
				return terr
			}},
		)
		if err != nil {
			continue
		}
		if machine.NumTransitions() > 60000 {
			// Encoding and mapping such a machine dominates the budget;
			// treat it like the paper's timeouts.
			continue
		}
		tffTime := rep.Total

		type variant struct {
			machine   *fsm.Machine
			statesMin int
			minimized bool
		}
		variants := []variant{{machine, -1, false}}
		mstart := time.Now()
		if mm, conflicts, merr := fsm.Minimize(machine, fsm.MinimizeOptions{
			MaxAtoms:       2048,
			ConflictBudget: 200000,
			Timeout:        opt.MinimizeTimeout,
			MaxStates:      400,
		}); merr == nil {
			variants = append(variants, variant{mm, mm.NumStates(), true})
			rep.Stages = append(rep.Stages, pipeline.StageStats{
				Name: pipeline.StageMinimize, Start: rep.Total,
				Duration: time.Since(mstart),
				StatesIn: states, StatesOut: mm.NumStates(),
				AndsIn: -1, AndsOut: -1, BDDNodes: -1, SATConflicts: conflicts,
			})
		}
		minTime := time.Since(mstart)

		for _, v := range variants {
			for _, enc := range []core.Encoding{core.Binary, core.OneHot} {
				fenc := fsm.NaturalBinary
				if enc == core.OneHot {
					fenc = fsm.OneHotState
				}
				circuit, err := fsm.Encode(v.machine, fenc)
				if err != nil {
					continue
				}
				fFolded := circuit.Transform(optimize)
				l := luts(fFolded.G)
				ff := fFolded.NumLatches()
				if best < 0 || l < best || (l == best && ff < row.FFF) {
					best = l
					row.OK = true
					row.FOut = circuit.NumOutputs()
					row.States = states
					row.StatesMin = v.statesMin
					row.FGates = fFolded.G.NumAnds()
					row.FLUTs = l
					row.FFF = ff
					row.Config = functionalConfig{reorder, v.minimized, enc}.String()
					row.Runtime = tffTime
					if v.minimized {
						row.Runtime += minTime
					}
					row.Trace = rep
				}
			}
		}
	}
	if row.OK {
		row.LUTRed = reduction(row.SLUTs, row.FLUTs)
		row.FFRed = reduction(row.SFF, row.FFF)
	}
	return row, nil
}

// Table3 runs the full structural-vs-functional comparison. Progress is
// reported on opt.Progress when set.
func Table3(names []string, frames []int, opt Table3Options) ([]Table3Row, error) {
	if names == nil {
		names = Table3Circuits
	}
	if frames == nil {
		frames = Table3Frames
	}
	var rows []Table3Row
	for _, name := range names {
		for _, T := range frames {
			start := time.Now()
			row, err := Table3Entry(name, T, opt)
			if err != nil {
				return nil, fmt.Errorf("%s T=%d: %w", name, T, err)
			}
			if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "# %s T=%d done in %v (functional ok=%v)%s\n",
					name, T, time.Since(start).Round(time.Millisecond), row.OK, stageTimings(row.Trace))
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// stageTimings renders a report's per-stage durations for progress
// lines, e.g. " [schedule 12ms, tff 340ms]".
func stageTimings(rep *pipeline.Report) string {
	if rep == nil || len(rep.Stages) == 0 {
		return ""
	}
	s := " ["
	for i, st := range rep.Stages {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %v", st.Name, st.Duration.Round(time.Millisecond))
	}
	return s + "]"
}

// reduction returns the percentage reduction of got versus base.
func reduction(base, got int) float64 {
	if base == 0 {
		return 0
	}
	return float64(base-got) / float64(base) * 100
}

// FprintTable3 renders Table III.
func FprintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-9s %4s %4s | %5s %6s %5s %5s | %5s %9s %6s %5s %5s %8s %8s %-10s %8s\n",
		"name", "#frm", "#in", "#out", "#gate", "#LUT", "#FF",
		"#out", "#state", "#gate", "#LUT", "#FF", "#LUTred", "#FFred", "config", "runtime")
	var lutSum, ffSum float64
	ok := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %4d %4d | %5d %6d %5d %5d | ",
			r.Name, r.Frames, r.In, r.SOut, r.SGates, r.SLUTs, r.SFF)
		if !r.OK {
			fmt.Fprintf(w, "%5s %9s %6s %5s %5s %8s %8s %-10s %8s\n",
				"-", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%5d %9s %6d %5d %5d %7.2f%% %7.2f%% %-10s %7.2fs\n",
			r.FOut, r.StatesString(), r.FGates, r.FLUTs, r.FFF,
			r.LUTRed, r.FFRed, r.Config, r.Runtime.Seconds())
		lutSum += r.LUTRed
		ffSum += r.FFRed
		ok++
	}
	if ok > 0 {
		fmt.Fprintf(w, "functional completed %d/%d; average reductions: LUT %.2f%%, FF %.2f%%\n",
			ok, len(rows), lutSum/float64(ok), ffSum/float64(ok))
	}
}

// Figure7Point is one scatter point of Figure 7.
type Figure7Point struct {
	Name     string
	Frames   int
	Method   string // "structural" or "functional"
	OrigLUTs int
	FoldLUTs int
}

// Figure7 derives the circuit-size scatter data from Table III rows.
func Figure7(rows []Table3Row) ([]Figure7Point, error) {
	var pts []Figure7Point
	for _, r := range rows {
		g, err := gen.Build(r.Name)
		if err != nil {
			return nil, err
		}
		orig := luts(optimize(g))
		pts = append(pts, Figure7Point{r.Name, r.Frames, "structural", orig, r.SLUTs})
		if r.OK {
			pts = append(pts, Figure7Point{r.Name, r.Frames, "functional", orig, r.FLUTs})
		}
	}
	return pts, nil
}

// FprintFigure7 renders the scatter as CSV plus the headline counts (how
// many folded circuits ended up smaller than their combinational
// originals, per method).
func FprintFigure7(w io.Writer, pts []Figure7Point) {
	fmt.Fprintln(w, "method,circuit,frames,orig_luts,folded_luts")
	smaller := map[string]int{}
	total := map[string]int{}
	for _, p := range pts {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", p.Method, p.Name, p.Frames, p.OrigLUTs, p.FoldLUTs)
		total[p.Method]++
		if p.FoldLUTs < p.OrigLUTs {
			smaller[p.Method]++
		}
	}
	fmt.Fprintf(w, "# folded smaller than original: functional %d/%d, structural %d/%d\n",
		smaller["functional"], total["functional"], smaller["structural"], total["structural"])
}
