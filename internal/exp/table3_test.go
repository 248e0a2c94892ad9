package exp

import (
	"bytes"
	"context"
	"testing"
	"time"

	"circuitfold"
	"circuitfold/internal/core"
	"circuitfold/internal/job"
	"circuitfold/internal/pipeline"
)

// encodeStripped is a result's encoding without its stage report, which
// holds timings and resume marks.
func encodeStripped(t *testing.T, r *core.Result) []byte {
	t.Helper()
	c := *r
	c.Report = nil
	data, err := core.EncodeResult(&c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTable3FoldIsProductionFold checks that every functional
// configuration Table III folds is the library's fold of the same spec,
// and that each 1hot twin restored every stage before encode from its
// nat twin.
func TestTable3FoldIsProductionFold(t *testing.T) {
	for _, name := range []string{"e64", "64-adder"} {
		_, fs, err := foldRow(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		g, err := circuitfold.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range fs {
			if c.res != nil && i%2 == 1 {
				for _, st := range c.res.Report.Stages {
					if st.Resumed != (st.Name != pipeline.StageEncode) {
						t.Fatalf("%s %s: stage %s resumed=%v; a 1hot twin restores all but encode", name, c, st.Name, st.Resumed)
					}
				}
			}
			want, werr := circuitfold.Functional(g, 16, c.spec.Options())
			if c.res == nil || werr != nil {
				t.Fatalf("%s %s: table fold error %q, library fold error %v", name, c, c.err, werr)
			}
			if !bytes.Equal(encodeStripped(t, c.res), encodeStripped(t, want)) {
				t.Fatalf("%s %s: table fold differs from the library fold", name, c)
			}
		}
	}
}

// TestFailedBeforeEncode reads the stage out of a real fold failure: a
// tff that runs out of states fails every encoding alike.
func TestFailedBeforeEncode(t *testing.T) {
	r := job.NewRunnerWith(job.RunnerOptions{})
	defer r.Shutdown(context.Background())
	j, err := r.Submit(job.Spec{Generator: "e64", T: 16, MaxStates: 2}, job.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := await(j)
	if c.res != nil || !failedBeforeEncode(c.err) {
		t.Fatalf("tff state-budget failure %q not classed as before encode", c.err)
	}
	if failedBeforeEncode("pipeline functional: stage encode: fsm: too many states") {
		t.Fatal("an encode failure classed as before encode")
	}
}

// TestFoldTimeCountsTwinStages: a stage restored from the encoding
// twin's checkpoint counts the twin's run of it, and encode never
// counts.
func TestFoldTimeCountsTwinStages(t *testing.T) {
	ms := time.Millisecond
	report := func(stages ...pipeline.StageStats) *core.Result {
		return &core.Result{Report: &pipeline.Report{Stages: stages}}
	}
	twin := config{res: report(
		pipeline.StageStats{Name: pipeline.StageSchedule, Duration: 5 * ms},
		pipeline.StageStats{Name: pipeline.StageTFF, Duration: 7 * ms},
		pipeline.StageStats{Name: pipeline.StageMinimize, Duration: 11 * ms},
		pipeline.StageStats{Name: pipeline.StageEncode, Duration: 13 * ms})}
	c := config{res: report(
		pipeline.StageStats{Name: pipeline.StageSchedule, Resumed: true},
		pipeline.StageStats{Name: pipeline.StageTFF, Resumed: true},
		pipeline.StageStats{Name: pipeline.StageMinimize, Resumed: true},
		pipeline.StageStats{Name: pipeline.StageEncode, Duration: 17 * ms})}
	if got := foldTime(c, twin); got != 23*ms {
		t.Fatalf("restored winner's time = %v, want the twin's 23ms", got)
	}
	if got := foldTime(twin, c); got != 23*ms {
		t.Fatalf("winner that ran its stages = %v, want its own 23ms", got)
	}
	if got := foldTime(c, config{err: "failed"}); got != 0 {
		t.Fatalf("restored winner with a failed twin = %v, want its own 0", got)
	}
}
