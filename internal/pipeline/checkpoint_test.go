package pipeline

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// mapCheckpoint is the simplest possible Checkpoint for tests.
type mapCheckpoint struct {
	mu   sync.Mutex
	m    map[string][]byte
	errs map[string]error // stage -> forced Save error
}

func newMapCheckpoint() *mapCheckpoint {
	return &mapCheckpoint{m: map[string][]byte{}}
}

func (c *mapCheckpoint) Load(stage string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[stage]
	return d, ok
}

func (c *mapCheckpoint) Save(stage string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.errs[stage]; err != nil {
		return err
	}
	c.m[stage] = append([]byte(nil), data...)
	return nil
}

// checkpointedStages builds a two-stage pipeline whose stages snapshot
// their outputs into out; ran records which stages actually executed.
func checkpointedStages(out *[]string, ran *[]string) []Stage {
	mk := func(name string) Stage {
		return Stage{
			Name: name,
			Run: func(ss *StageStats) error {
				*ran = append(*ran, name)
				*out = append(*out, name+"-artifact")
				return nil
			},
			Snapshot: func() ([]byte, error) {
				return []byte(name + "-artifact"), nil
			},
			Restore: func(data []byte, ss *StageStats) error {
				if string(data) != name+"-artifact" {
					return errors.New("corrupt")
				}
				*out = append(*out, string(data))
				return nil
			},
		}
	}
	return []Stage{mk("alpha"), mk("beta")}
}

// testInput is the run input every checkpointed test run carries.
const testInput = "in"

// keyOf is the checkpoint key of stage name in a pipeline "p" run over
// testInput with no budget.
func keyOf(stages []Stage, name string) string {
	for i, k := range Addresses("p", testInput, Budget{}, stages) {
		if stages[i].Name == name {
			return k
		}
	}
	panic("no stage " + name)
}

func TestExecuteSnapshotsCompletedStages(t *testing.T) {
	ck := newMapCheckpoint()
	run := NewRun(nil, Budget{})
	run.SetCheckpoint(ck, testInput)
	var out, ran []string
	rep, err := Execute(run, "p", checkpointedStages(&out, &ran)...)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v, want both stages", ran)
	}
	for _, st := range []string{"alpha", "beta"} {
		if d, ok := ck.Load(keyOf(checkpointedStages(&out, &ran), st)); !ok || string(d) != st+"-artifact" {
			t.Errorf("checkpoint for %s = %q, %v", st, d, ok)
		}
	}
	for _, ss := range rep.Stages {
		if ss.Resumed {
			t.Errorf("stage %s marked resumed on a cold run", ss.Name)
		}
	}
}

func TestExecuteRestoresFromCheckpoint(t *testing.T) {
	ck := newMapCheckpoint()
	var out, ran []string
	stages := checkpointedStages(&out, &ran)
	ck.m[keyOf(stages, "alpha")] = []byte("alpha-artifact")

	run := NewRun(nil, Budget{})
	run.SetCheckpoint(ck, testInput)
	rep, err := Execute(run, "p", stages...)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !reflect.DeepEqual(ran, []string{"beta"}) {
		t.Fatalf("ran %v, want only beta", ran)
	}
	if !reflect.DeepEqual(out, []string{"alpha-artifact", "beta-artifact"}) {
		t.Fatalf("outputs %v", out)
	}
	if !rep.Stage("alpha").Resumed {
		t.Error("alpha not marked resumed")
	}
	if rep.Stage("beta").Resumed {
		t.Error("beta wrongly marked resumed")
	}
}

func TestExecuteCorruptCheckpointFallsBackToRunning(t *testing.T) {
	ck := newMapCheckpoint()
	var out, ran []string
	stages := checkpointedStages(&out, &ran)
	ck.m[keyOf(stages, "alpha")] = []byte("garbage")

	run := NewRun(nil, Budget{})
	run.SetCheckpoint(ck, testInput)
	rep, err := Execute(run, "p", stages...)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !reflect.DeepEqual(ran, []string{"alpha", "beta"}) {
		t.Fatalf("ran %v, want both (corrupt restore must re-run)", ran)
	}
	if rep.Stage("alpha").Resumed {
		t.Error("alpha marked resumed after corrupt restore")
	}
	// The re-run overwrote the corrupt artifact.
	if d, _ := ck.Load(keyOf(stages, "alpha")); string(d) != "alpha-artifact" {
		t.Errorf("corrupt artifact not overwritten: %q", d)
	}
}

func TestExecutePanickingRestoreFallsBack(t *testing.T) {
	ck := newMapCheckpoint()
	ran := false
	boom := Stage{
		Name:     "boom",
		Run:      func(*StageStats) error { ran = true; return nil },
		Restore:  func([]byte, *StageStats) error { panic("bad bytes") },
		Snapshot: func() ([]byte, error) { return []byte("x"), nil },
	}
	ck.m[keyOf([]Stage{boom}, "boom")] = []byte("x")
	run := NewRun(nil, Budget{})
	run.SetCheckpoint(ck, testInput)
	_, err := Execute(run, "p", boom)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !ran {
		t.Error("stage did not run after panicking restore")
	}
}

func TestExecuteSaveErrorDoesNotFailStage(t *testing.T) {
	ck := newMapCheckpoint()
	var out, ran []string
	stages := checkpointedStages(&out, &ran)
	ck.errs = map[string]error{keyOf(stages, "alpha"): errors.New("disk full")}
	run := NewRun(nil, Budget{})
	run.SetCheckpoint(ck, testInput)
	_, err := Execute(run, "p", stages...)
	if err != nil {
		t.Fatalf("Execute: %v (save errors must be best-effort)", err)
	}
	if _, ok := ck.Load(keyOf(stages, "alpha")); ok {
		t.Error("failed save left an artifact")
	}
	if _, ok := ck.Load(keyOf(stages, "beta")); !ok {
		t.Error("beta save should still succeed")
	}
}

func TestExecuteFailedStageNotSnapshotted(t *testing.T) {
	ck := newMapCheckpoint()
	run := NewRun(nil, Budget{})
	run.SetCheckpoint(ck, testInput)
	_, err := Execute(run, "p", Stage{
		Name:     "fail",
		Run:      func(*StageStats) error { return errors.New("nope") },
		Snapshot: func() ([]byte, error) { return []byte("x"), nil },
		Restore:  func([]byte, *StageStats) error { return nil },
	})
	if err == nil {
		t.Fatal("want stage error")
	}
	if len(ck.m) != 0 {
		t.Errorf("failed stage was snapshotted: %d artifacts", len(ck.m))
	}
}

// TestAddressesChain: a stage's address changes exactly when the run's
// input, budget or pipeline name, its own Reads, or an earlier stage's
// Reads change; a later stage's Reads leave it alone. Distinct pipeline
// names (the rungs of a degradation ladder) never share an address.
func TestAddressesChain(t *testing.T) {
	stages := func(reads ...string) []Stage {
		out := make([]Stage, len(reads))
		for i, r := range reads {
			out[i] = Stage{Name: string(rune('a' + i)), Reads: r}
		}
		return out
	}
	base := Addresses("p", "in", Budget{}, stages("x", "y", "z"))
	for i, k := range base {
		if want := string(rune('a'+i)) + "/"; len(k) != len(want)+64 || k[:len(want)] != want {
			t.Errorf("address %d = %q, want %s<64 hex digits>", i, k, want)
		}
	}
	for _, tc := range []struct {
		name  string
		keys  []string
		first int // first stage whose address must change
	}{
		{"pipeline", Addresses("q", "in", Budget{}, stages("x", "y", "z")), 0},
		{"input", Addresses("p", "in2", Budget{}, stages("x", "y", "z")), 0},
		{"budget", Addresses("p", "in", Budget{MaxStates: 1}, stages("x", "y", "z")), 0},
		{"reads0", Addresses("p", "in", Budget{}, stages("x2", "y", "z")), 0},
		{"reads1", Addresses("p", "in", Budget{}, stages("x", "y2", "z")), 1},
		{"reads2", Addresses("p", "in", Budget{}, stages("x", "y", "z2")), 2},
	} {
		for i := range base {
			if changed := tc.keys[i] != base[i]; changed != (i >= tc.first) {
				t.Errorf("%s: stage %d changed=%v, want %v", tc.name, i, changed, i >= tc.first)
			}
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		rep  Report
	}{
		{"empty", Report{Pipeline: "p"}},
		{"full", Report{
			Pipeline: "functional",
			Total:    123 * time.Millisecond,
			Err:      "stage tff: pipeline: budget exceeded",
			Stages: []StageStats{
				{
					Name: "schedule", Start: 0, Duration: 5 * time.Millisecond,
					AndsIn: 100, AndsOut: 100, BDDNodes: -1, StatesIn: -1, StatesOut: -1,
				},
				{
					Name: "tff", Start: 5 * time.Millisecond, Duration: 90 * time.Millisecond,
					AndsIn: 100, AndsOut: -1, BDDNodes: 4096, StatesIn: 1, StatesOut: 32,
					SATConflicts: 17, Spans: 12, Resumed: true,
					Err: "pipeline: budget exceeded",
				},
			},
		}},
		{"zero_counters", Report{
			Pipeline: "structural",
			Stages: []StageStats{
				{Name: "synth", AndsIn: 0, AndsOut: 0, BDDNodes: 0, StatesIn: 0, StatesOut: 0},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(&tc.rep)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Report
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(got, tc.rep) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v\nwire %s", got, tc.rep, data)
			}
			// Marshal again: the wire form must be stable.
			data2, err := json.Marshal(&got)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if string(data) != string(data2) {
				t.Errorf("wire form unstable:\n%s\n%s", data, data2)
			}
		})
	}
}

func TestRungReportJSONRoundTrip(t *testing.T) {
	rr := RungReport{
		Rung:      "functional",
		Duration:  42 * time.Millisecond,
		Err:       "pipeline: budget exceeded",
		SelfCheck: "fail",
		Report: &Report{
			Pipeline: "functional",
			Stages:   []StageStats{{Name: "schedule", AndsIn: 7, AndsOut: 7, BDDNodes: -1, StatesIn: -1, StatesOut: -1}},
			Total:    40 * time.Millisecond,
		},
	}
	data, err := json.Marshal(&rr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got RungReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, rr) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rr)
	}
}
