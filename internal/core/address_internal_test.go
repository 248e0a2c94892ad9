package core

import (
	"testing"
	"time"

	"circuitfold/internal/aig"
	"circuitfold/internal/gen"
	"circuitfold/internal/pipeline"
)

// TestFunctionalStageAddresses: flipping any one fold option changes
// the address of the stage that reads it and of every later stage, and
// of no stage before it. The circuit, T and the budget change every
// address; Workers and the minimizer's observation hooks change none;
// StateEnc changes only encode's.
func TestFunctionalStageAddresses(t *testing.T) {
	adder, other := gen.MustBuild("adder3"), gen.MustBuild("e64")
	base := DefaultFunctionalOptions()
	base.Minimize, base.Workers = true, 1
	addresses := func(g *aig.Graph, T int, opt FunctionalOptions) map[string]string {
		var res *Result
		stages := functionalStages(g, T, opt, pipeline.NewRun(nil, opt.Budget), &res)
		keys := pipeline.Addresses("functional", foldInput(g, T), opt.Budget, stages)
		out := map[string]string{}
		for i, st := range stages {
			out[st.Name] = keys[i]
		}
		return out
	}
	order := []string{pipeline.StageSchedule, pipeline.StageTFF, pipeline.StageMinimize, pipeline.StageEncode}
	want := addresses(adder, 3, base)
	if len(want) != len(order) {
		t.Fatalf("base fold has stages %v, want %v", want, order)
	}
	none := len(order)
	for _, tc := range []struct {
		name  string
		g     *aig.Graph
		T     int
		flip  func(*FunctionalOptions)
		first int // index in order of the first stage whose address changes
	}{
		{"circuit", other, 3, func(*FunctionalOptions) {}, 0},
		{"T", adder, 2, func(*FunctionalOptions) {}, 0},
		{"Budget.Wall", adder, 3, func(o *FunctionalOptions) { o.Budget.Wall = time.Second }, 0},
		{"Budget.BDDNodes", adder, 3, func(o *FunctionalOptions) { o.Budget.BDDNodes = 1000 }, 0},
		{"Budget.SATConflicts", adder, 3, func(o *FunctionalOptions) { o.Budget.SATConflicts = 1000 }, 0},
		{"Budget.MaxStates", adder, 3, func(o *FunctionalOptions) { o.Budget.MaxStates = 1000 }, 0},
		{"Reorder", adder, 3, func(o *FunctionalOptions) { o.Reorder = !o.Reorder }, 0},
		{"MinOpts.MaxAtoms", adder, 3, func(o *FunctionalOptions) { o.MinOpts.MaxAtoms++ }, 2},
		{"MinOpts.ConflictBudget", adder, 3, func(o *FunctionalOptions) { o.MinOpts.ConflictBudget++ }, 2},
		{"MinOpts.MaxLearntLits", adder, 3, func(o *FunctionalOptions) { o.MinOpts.MaxLearntLits++ }, 2},
		{"MinOpts.Timeout", adder, 3, func(o *FunctionalOptions) { o.MinOpts.Timeout++ }, 2},
		{"MinOpts.MaxClasses", adder, 3, func(o *FunctionalOptions) { o.MinOpts.MaxClasses++ }, 2},
		{"MinOpts.MaxStates", adder, 3, func(o *FunctionalOptions) { o.MinOpts.MaxStates++ }, 2},
		{"StateEnc", adder, 3, func(o *FunctionalOptions) { o.StateEnc = Binary }, 3},
		{"Workers", adder, 3, func(o *FunctionalOptions) { o.Workers = 4 }, none},
		{"MinOpts.Stop", adder, 3, func(o *FunctionalOptions) { o.MinOpts.Stop = func() error { return nil } }, none},
	} {
		opt := base
		tc.flip(&opt)
		got := addresses(tc.g, tc.T, opt)
		for i, stage := range order {
			if changed := got[stage] != want[stage]; changed != (i >= tc.first) {
				t.Errorf("%s: %s address changed=%v, want %v", tc.name, stage, changed, i >= tc.first)
			}
		}
	}

	// Minimize adds a stage: the stages before it keep their addresses,
	// the encode stage after it does not.
	opt := base
	opt.Minimize = false
	got := addresses(adder, 3, opt)
	if _, ok := got[pipeline.StageMinimize]; ok {
		t.Fatal("minimize stage without Minimize")
	}
	for _, stage := range []string{pipeline.StageSchedule, pipeline.StageTFF} {
		if got[stage] != want[stage] {
			t.Errorf("Minimize: %s address changed", stage)
		}
	}
	if got[pipeline.StageEncode] == want[pipeline.StageEncode] {
		t.Error("Minimize: encode address unchanged")
	}
}
