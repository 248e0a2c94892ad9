package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"circuitfold/internal/core"
	"circuitfold/internal/gen"
	"circuitfold/internal/job"
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

// minimizeConflicts is the SAT-conflict budget of every minimize
// configuration, the only work bound Table III sets. As a spec field it
// is part of the fold key, so a configuration minimizes, or fails, the
// same way every run. MeMin on apex2 and on i3 at T=16 runs out of it,
// like the paper's 300-second timeouts.
const minimizeConflicts = 50000

// Table3Row is one line of Table III: the structural and best functional
// results for one (circuit, T) pair. OK is false when every functional
// configuration failed — the paper's "-" entries.
type Table3Row struct {
	Name     string
	Frames   int
	In       int
	OrigLUTs int // the optimized original's LUTs, Figure 7's baseline

	SOut, SGates, SLUTs, SFF int

	OK                 bool
	FOut               int
	States             int
	StatesMin          int // -1 when minimization was not applied
	FGates, FLUTs, FFF int
	LUTRed, FFRed      float64
	Config             string
	// Runtime is the winner's schedule, tff and (when it minimized)
	// minimize time; a stage restored from its encoding twin's
	// checkpoint counts the twin's run of it.
	Runtime time.Duration
	// Trace is the winning functional configuration's per-stage
	// pipeline trace.
	Trace *pipeline.Report
}

// StatesString renders the "#state" column, e.g. "32/2" or "474/-".
func (r Table3Row) StatesString() string { return statesString(r.States, r.StatesMin) }

// Table3Options configures Table3.
type Table3Options struct {
	// Progress, when non-nil, receives one line per completed entry.
	Progress io.Writer
}

// config is one Table III fold: its spec and its result, or the error
// it failed with.
type config struct {
	spec job.Spec
	res  *core.Result
	err  string
}

// String renders the config column, e.g. "r/m/1hot".
func (c config) String() string {
	s := "nr"
	if c.spec.Reorder {
		s = "r"
	}
	if c.spec.Minimize {
		return s + "/m/" + c.spec.StateEnc
	}
	return s + "/nm/" + c.spec.StateEnc
}

// functionalSpecs lists a row's functional configurations in the order
// the best-of choice breaks ties in; encoding twins sit at 2k and 2k+1.
func functionalSpecs(name string, T int) []job.Spec {
	var specs []job.Spec
	for _, reorder := range []bool{true, false} {
		for _, minimize := range []bool{false, true} {
			for _, enc := range []string{"nat", "1hot"} {
				s := job.Spec{Generator: name, T: T, StateEnc: enc, Reorder: reorder, Minimize: minimize}
				if minimize {
					s.MaxSATConflicts = minimizeConflicts
				}
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// foldRow folds a row's structural configuration and its functional
// ones on a runner of its own (GOMAXPROCS workers, a memory store that
// goes with it). Each 1hot spec is submitted once its nat twin is done,
// so it restores schedule, tff and minimize from the twin's stage
// checkpoints. When the twin failed in one of those stages, which leave
// no checkpoint on failure, the 1hot spec takes its error unfolded.
func foldRow(name string, T int) (config, []config, error) {
	r := job.NewRunnerWith(job.RunnerOptions{Workers: runtime.GOMAXPROCS(0)})
	defer r.Shutdown(context.Background())
	sj, err := r.Submit(job.Spec{Generator: name, T: T, Method: job.MethodStructural}, job.SubmitOptions{})
	if err != nil {
		return config{}, nil, err
	}
	specs := functionalSpecs(name, T)
	jobs := make([]*job.Job, len(specs))
	submit := func(i int) (err error) {
		jobs[i], err = r.Submit(specs[i], job.SubmitOptions{})
		return err
	}
	for i := 0; i < len(specs); i += 2 {
		if err := submit(i); err != nil {
			return config{}, nil, err
		}
	}
	functional := make([]config, len(specs))
	for i := 0; i < len(specs); i += 2 {
		functional[i] = await(jobs[i])
		if failedBeforeEncode(functional[i].err) {
			functional[i+1] = config{spec: specs[i+1], err: functional[i].err}
		} else if err := submit(i + 1); err != nil {
			return config{}, nil, err
		}
	}
	for i := 1; i < len(specs); i += 2 {
		if jobs[i] != nil {
			functional[i] = await(jobs[i])
		}
	}
	return await(sj), functional, nil
}

// await waits for j to finish and collects its outcome.
func await(j *job.Job) config {
	<-j.Done()
	if st := j.Status(); st.State != job.StateDone {
		return config{spec: j.Spec(), err: string(st.State) + ": " + st.Error}
	}
	res, err := j.Result()
	if err != nil {
		return config{spec: j.Spec(), err: err.Error()}
	}
	return config{spec: j.Spec(), res: res}
}

// failedBeforeEncode reports whether a functional fold's error names a
// stage that reads no state encoding.
func failedBeforeEncode(errText string) bool {
	for _, st := range []string{pipeline.StageSchedule, pipeline.StageTFF, pipeline.StageMinimize} {
		if strings.Contains(errText, "stage "+st+":") {
			return true
		}
	}
	return false
}

// Table3Entry computes one row: the structural fold plus the best
// functional configuration (minimum LUTs, ties broken by flip-flops),
// mirroring the per-row config annotations of the paper. The folds are
// foldd's (see foldRow); the row optimizes each result and maps it to
// 6-LUTs.
func Table3Entry(name string, T int) (Table3Row, error) {
	g, err := gen.Build(name)
	if err != nil {
		return Table3Row{}, err
	}
	s, fs, err := foldRow(name, T)
	if err != nil {
		return Table3Row{}, err
	}
	if s.res == nil {
		return Table3Row{}, fmt.Errorf("structural fold: %s", s.err)
	}
	sFolded := s.res.Seq.Transform(optimize)
	row := Table3Row{Name: name, Frames: T, In: s.res.InputPins(), OrigLUTs: luts(optimize(g)),
		SOut: s.res.OutputPins(), SGates: sFolded.G.NumAnds(), SLUTs: luts(sFolded.G),
		SFF: sFolded.NumLatches(), StatesMin: -1}
	win := -1
	for i, c := range fs {
		if c.res == nil {
			continue
		}
		f := c.res.Seq.Transform(optimize)
		l, ff := luts(f.G), f.NumLatches()
		if win < 0 || l < row.FLUTs || (l == row.FLUTs && ff < row.FFF) {
			win = i
			row.FOut, row.States, row.StatesMin = c.res.OutputPins(), c.res.States, c.res.StatesMin
			row.FGates, row.FLUTs, row.FFF = f.G.NumAnds(), l, ff
		}
	}
	if win >= 0 {
		row.OK = true
		row.Config = fs[win].String()
		row.Runtime = foldTime(fs[win], fs[win^1])
		row.Trace = fs[win].res.Report
		row.LUTRed = reduction(row.SLUTs, row.FLUTs)
		row.FFRed = reduction(row.SFF, row.FFF)
	}
	return row, nil
}

// foldTime is c's schedule, tff and minimize time, counting a stage c
// restored from a checkpoint at its twin's run of it.
func foldTime(c, twin config) time.Duration {
	ran := map[string]time.Duration{}
	if twin.res != nil {
		for _, st := range twin.res.Report.Stages {
			if !st.Resumed {
				ran[st.Name] = st.Duration
			}
		}
	}
	var d time.Duration
	for _, st := range c.res.Report.Stages {
		if st.Name == pipeline.StageEncode {
			continue
		}
		if t, ok := ran[st.Name]; ok && st.Resumed {
			d += t
		} else {
			d += st.Duration
		}
	}
	return d
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
			row, err := Table3Entry(name, T)
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
func Figure7(rows []Table3Row) []Figure7Point {
	var pts []Figure7Point
	for _, r := range rows {
		pts = append(pts, Figure7Point{r.Name, r.Frames, "structural", r.OrigLUTs, r.SLUTs})
		if r.OK {
			pts = append(pts, Figure7Point{r.Name, r.Frames, "functional", r.OrigLUTs, r.FLUTs})
		}
	}
	return pts
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
