package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"circuitfold/internal/core"
	"circuitfold/internal/fsm"
	"circuitfold/internal/gen"
	"circuitfold/internal/pipeline"
)

// meminGolden pins the SHA-256 of EncodeMachine(Minimize(tff machine))
// for every minimize configuration of foldbench's table3-functional
// workload, with input reordering off and on. Solver and clause-builder
// optimizations must keep the SAT search, and so the chosen cover,
// bit-identical: a changed hash here means every cached and
// checkpointed minimized machine would be stale, which needs a
// foldKeyVersion bump rather than a new table.
var meminGolden = []struct {
	circuit string
	T       int
	reorder bool
	sha     string
}{
	{"arbiter", 16, false, "cb55fe3e29842c9ae30464e0d43c26796c8b55e5731dd84566b8da1c16aa33f3"},
	{"arbiter", 16, true, "cb55fe3e29842c9ae30464e0d43c26796c8b55e5731dd84566b8da1c16aa33f3"},
	{"arbiter", 4, false, "1b36dcf5529f3af13c579149f346e9be24e35cdccf9ed0871a24e5b9bebaef7b"},
	{"arbiter", 4, true, "1b36dcf5529f3af13c579149f346e9be24e35cdccf9ed0871a24e5b9bebaef7b"},
	{"e64", 16, false, "844903eab613422a89c49f235f60023fbf3f61a14cd3e91e5053f10c7977216f"},
	{"e64", 16, true, "995dcdca03cdcef95db35223373040f590aa4ed5a1442fca7952fc2627ecf919"},
	{"e64", 4, false, "468f7dc99bfdb5ce1397269f997058bc9c3d9ba12b355d6fed51fdcc5d3b9f3b"},
	{"e64", 4, true, "fce0a5715ff628e696f5064055f82aad4d015f62e33b1a135da318f867920dc9"},
	{"i2", 16, false, "c38592ea33c4f41481df7b40ad603c38ce35349cedb055c6f940a34ae2313310"},
	{"i2", 16, true, "c38592ea33c4f41481df7b40ad603c38ce35349cedb055c6f940a34ae2313310"},
	{"i3", 8, false, "ba31bd82f4cab612a0af26260e425dd67f06ed506177de2d9f238ae9ef1d7af3"},
	{"i3", 8, true, "ba31bd82f4cab612a0af26260e425dd67f06ed506177de2d9f238ae9ef1d7af3"},
	{"i6", 16, false, "41d39f198d619baca417961bd9c768337c7fb698ed91d3b9d5a30d6fb4a4d2ad"},
	{"i6", 16, true, "72fc287e3a78274500589902d035be8ec17b6ff7e2b77c71f1f26d95aa31ad6c"},
}

// tffMachine schedules and time-frame folds a named benchmark the way
// the functional pipeline does, returning the machine minimize sees.
func tffMachine(tb testing.TB, circuit string, T int, reorder bool) *fsm.Machine {
	tb.Helper()
	g := gen.MustBuild(circuit)
	sched, err := core.PinSchedule(g, T, core.ScheduleOptions{Reorder: reorder})
	if err != nil {
		tb.Fatalf("%s T=%d schedule: %v", circuit, T, err)
	}
	m, _, err := core.TimeFrameFold(g, sched, 1, nil)
	if err != nil {
		tb.Fatalf("%s T=%d tff: %v", circuit, T, err)
	}
	return m
}

func TestMeMinGolden(t *testing.T) {
	for _, c := range meminGolden {
		name := fmt.Sprintf("%s/T=%d/reorder=%v", c.circuit, c.T, c.reorder)
		t.Run(name, func(t *testing.T) {
			m := tffMachine(t, c.circuit, c.T, c.reorder)
			mm, _, err := fsm.Minimize(m, fsm.DefaultMinimizeOptions())
			if err != nil {
				t.Fatalf("minimize: %v", err)
			}
			blob, err := core.EncodeMachine(mm, mm.NumStates())
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != c.sha {
				t.Errorf("minimized machine (%d states) hashes to %s, want %s", mm.NumStates(), got, c.sha)
			}
		})
	}
}

// minimizeStage returns the report row of a fold's minimize stage.
func minimizeStage(t *testing.T, rep *pipeline.Report) pipeline.StageStats {
	t.Helper()
	for _, ss := range rep.Stages {
		if ss.Name == pipeline.StageMinimize {
			return ss
		}
	}
	t.Fatalf("no %s stage in report", pipeline.StageMinimize)
	return pipeline.StageStats{}
}

// TestMeMinConflictsCharged pins the SAT conflicts MeMin spends on i2
// T=16 (7 proving k=3 UNSAT, 24 finding the k=4 cover): they appear on
// the minimize stage's report row, and so in the run's conflict total.
// The count also pins the solver's search trajectory.
func TestMeMinConflictsCharged(t *testing.T) {
	g := gen.MustBuild("i2")
	for _, reorder := range []bool{false, true} {
		opt := core.DefaultFunctionalOptions()
		opt.Reorder = reorder
		res, err := core.FunctionalFold(g, 16, opt)
		if err != nil {
			t.Fatalf("reorder=%v: %v", reorder, err)
		}
		if got := minimizeStage(t, res.Report).SATConflicts; got != 31 {
			t.Errorf("reorder=%v: minimize stage reports %d SAT conflicts, want 31", reorder, got)
		}
	}
}

// TestMeMinConflictBudget checks the run's SAT conflict budget bounds
// MeMin: i2 T=16 needs 31 conflicts, so a budget of 10 fails the
// minimize stage.
func TestMeMinConflictBudget(t *testing.T) {
	opt := core.DefaultFunctionalOptions()
	opt.Budget.SATConflicts = 10
	_, err := core.FunctionalFold(gen.MustBuild("i2"), 16, opt)
	if !errors.Is(err, pipeline.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var pe *pipeline.Error
	if !errors.As(err, &pe) || pe.Stage != pipeline.StageMinimize {
		t.Fatalf("err = %v, want a minimize-stage pipeline error", err)
	}
	if got := minimizeStage(t, pe.Report).SATConflicts; got == 0 || got > 2*11 {
		t.Errorf("failed minimize stage reports %d conflicts, want 1..22 (two solves capped at 11)", got)
	}
}
