package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"circuitfold/internal/bdd"
	"circuitfold/internal/core"
	"circuitfold/internal/eqcheck"
	"circuitfold/internal/fsm"
	"circuitfold/internal/gen"
	"circuitfold/internal/pipeline"
)

// memCheckpoint is a minimal pipeline.Checkpoint for tests; onSave (if
// set) observes every successful save by stage name ("tff" for the key
// "tff/<digest>"), which the resume tests use to kill a fold right
// after a chosen stage checkpoints.
type memCheckpoint struct {
	mu     sync.Mutex
	m      map[string][]byte
	onSave func(stage string)
}

func newMemCheckpoint() *memCheckpoint { return &memCheckpoint{m: map[string][]byte{}} }

func (c *memCheckpoint) Load(stage string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[stage]
	return d, ok
}

func (c *memCheckpoint) Save(stage string, data []byte) error {
	c.mu.Lock()
	c.m[stage] = append([]byte(nil), data...)
	cb := c.onSave
	c.mu.Unlock()
	if cb != nil {
		name, _, _ := strings.Cut(stage, "/")
		cb(name)
	}
	return nil
}

// stage returns the key and blob saved for the named stage: the one key
// of the form "<name>/<digest>".
func (c *memCheckpoint) stage(name string) (key string, data []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, d := range c.m {
		if strings.HasPrefix(k, name+"/") {
			return k, d, true
		}
	}
	return "", nil, false
}

func (c *memCheckpoint) stages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k := range c.m {
		out = append(out, k)
	}
	return out
}

// stripReport clones a result without its report, for bit-identity
// comparison across runs whose timings naturally differ.
func stripReport(r *core.Result) core.Result {
	c := *r
	c.Report = nil
	return c
}

func TestResultCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		T    int
	}{{"adder3", 3}, {"64-adder", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.MustBuild(tc.name)
			opt := core.DefaultFunctionalOptions()
			r, err := core.FunctionalFold(g, tc.T, opt)
			if err != nil {
				t.Fatalf("fold: %v", err)
			}
			data, err := core.EncodeResult(r)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := core.DecodeResult(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, r) {
				t.Fatal("decoded result differs from original")
			}
			// The decoded fold still verifies against the source circuit.
			if err := eqcheck.VerifyFoldWords(g, got, 2, 99); err != nil {
				t.Fatalf("decoded fold failed verification: %v", err)
			}
			// Encoding is deterministic: same result, same bytes.
			data2, err := core.EncodeResult(got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if string(data) != string(data2) {
				t.Fatal("encoding is not deterministic")
			}
		})
	}
}

func TestResultCodecRejects(t *testing.T) {
	if _, err := core.DecodeResult([]byte(`{"v":99,"t":2}`)); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := core.DecodeResult([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := core.DecodeResult([]byte(`{"v":1,"t":2,"seq":{"inputs":1,"nodes":3,"pis":[1],"pi_names":["a"],"ands":[[2,4]]}}`)); err == nil {
		t.Error("forward fanin accepted")
	}
	if _, err := core.EncodeResult(nil); err == nil {
		t.Error("nil result encoded")
	}
}

func TestScheduleCodecRoundTrip(t *testing.T) {
	g := gen.MustBuild("adder3")
	s, err := core.PinSchedule(g, 3, core.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := core.EncodeSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("schedule round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestMachineCodecRoundTrip(t *testing.T) {
	g := gen.MustBuild("adder3")
	sched, err := core.PinSchedule(g, 3, core.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, states, err := core.TimeFrameFold(g, sched, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := core.EncodeMachine(m, states)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStates, err := core.DecodeMachine(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotStates != states {
		t.Errorf("states = %d, want %d", gotStates, states)
	}
	// The node table is canonical: re-encoding the decoded machine
	// reproduces the blob byte for byte.
	again, err := core.EncodeMachine(got, gotStates)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(again) != string(data) {
		t.Fatal("encode -> decode -> encode is not byte-identical")
	}
	if got.NumStates() != m.NumStates() || got.NumInputs != m.NumInputs ||
		got.NumOutputs != m.NumOutputs || got.Initial != m.Initial {
		t.Fatalf("machine shape mismatch: %d states %d in %d out init %d, want %d/%d/%d/%d",
			got.NumStates(), got.NumInputs, got.NumOutputs, got.Initial,
			m.NumStates(), m.NumInputs, m.NumOutputs, m.Initial)
	}
	// Transition structure is preserved 1:1 and the conditions denote
	// the same Boolean functions: identical behavior on random streams.
	for s := 0; s < m.NumStates(); s++ {
		if len(got.Trans[s]) != len(m.Trans[s]) {
			t.Fatalf("state %d has %d transitions, want %d", s, len(got.Trans[s]), len(m.Trans[s]))
		}
		for i := range m.Trans[s] {
			if got.Trans[s][i].Dst != m.Trans[s][i].Dst {
				t.Fatalf("state %d transition %d dst mismatch", s, i)
			}
			if !reflect.DeepEqual(got.Trans[s][i].Out, m.Trans[s][i].Out) {
				t.Fatalf("state %d transition %d out mismatch", s, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		stream := make([][]bool, 3)
		for f := range stream {
			row := make([]bool, m.NumInputs)
			for j := range row {
				row[j] = rng.Intn(2) == 1
			}
			stream[f] = row
		}
		want := m.Simulate(stream)
		have := got.Simulate(stream)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("behavior diverges on stream %v: %v vs %v", stream, want, have)
		}
	}
}

// TestFunctionalResumeBitIdentical is the kill-and-resume contract at
// the engine level: a functional fold killed right after a stage
// checkpoints, re-run over the same store, restores the completed
// stages (visibly Resumed in the report) and produces a Result
// bit-identical to an uninterrupted fold.
func TestFunctionalResumeBitIdentical(t *testing.T) {
	g := gen.MustBuild("64-adder")
	const T = 16
	base := core.DefaultFunctionalOptions()
	base.Workers = 2

	clean, err := core.FunctionalFold(g, T, base)
	if err != nil {
		t.Fatalf("uninterrupted fold: %v", err)
	}

	for _, kill := range []string{pipeline.StageSchedule, pipeline.StageTFF, pipeline.StageMinimize} {
		t.Run("kill_after_"+kill, func(t *testing.T) {
			ck := newMemCheckpoint()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ck.onSave = func(stage string) {
				if stage == kill {
					cancel() // the "kill": abort the fold as soon as this stage checkpointed
				}
			}
			opt := base
			opt.Ctx = ctx
			opt.Checkpoint = ck
			if _, err := core.FunctionalFold(g, T, opt); !errors.Is(err, pipeline.ErrCanceled) {
				t.Fatalf("killed fold returned %v, want ErrCanceled", err)
			}
			if _, _, ok := ck.stage(kill); !ok {
				t.Fatalf("no %s checkpoint saved before the kill (have %v)", kill, ck.stages())
			}

			ck.onSave = nil
			opt = base
			opt.Checkpoint = ck
			resumed, err := core.FunctionalFold(g, T, opt)
			if err != nil {
				t.Fatalf("resumed fold: %v", err)
			}
			if !reflect.DeepEqual(stripReport(resumed), stripReport(clean)) {
				t.Fatal("resumed result is not bit-identical to the uninterrupted run")
			}
			// The skipped stages are visible in the resumed report.
			rep := resumed.Report
			if rep == nil {
				t.Fatal("resumed fold has no report")
			}
			seen := false
			for _, ss := range rep.Stages {
				if ss.Name == kill && !ss.Resumed {
					t.Errorf("stage %s not marked resumed", ss.Name)
				}
				if ss.Resumed {
					seen = true
				}
				if ss.Name == pipeline.StageEncode && ss.Resumed {
					t.Errorf("stage encode resumed: it has no checkpoint")
				}
			}
			if !seen {
				t.Error("no stage marked resumed")
			}
			if err := eqcheck.VerifyFoldWords(g, resumed, 2, 5); err != nil {
				t.Fatalf("resumed fold failed verification: %v", err)
			}
		})
	}
}

// TestMachineCheckpointLinearInBDDSize pins the tff checkpoint to the
// size of the conditions' shared BDD on the folds whose cube-cover
// encoding blew up (65 MB for i3 at T=4, more than 2.5 GB for b17_C at
// T=8), and checks that resuming from every stage's checkpoint gives
// the uninterrupted fold's Result. b17_C folds without minimization,
// whose atom partition it exceeds.
func TestMachineCheckpointLinearInBDDSize(t *testing.T) {
	if testing.Short() {
		t.Skip("folds three large Table III configurations")
	}
	for _, tc := range []struct {
		name     string
		T        int
		minimize bool
	}{{"i3", 4, true}, {"64-adder", 8, true}, {"b17_C", 8, false}} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.MustBuild(tc.name)
			opt := core.FunctionalOptions{Minimize: tc.minimize, StateEnc: core.Binary, MinOpts: fsm.DefaultMinimizeOptions()}
			clean, err := core.FunctionalFold(g, tc.T, opt)
			if err != nil {
				t.Fatalf("uninterrupted fold: %v", err)
			}
			rec := newMemCheckpoint()
			opt.Checkpoint = rec
			if _, err := core.FunctionalFold(g, tc.T, opt); err != nil {
				t.Fatalf("recorded fold: %v", err)
			}

			_, blob, ok := rec.stage(pipeline.StageTFF)
			if !ok {
				t.Fatal("no tff checkpoint")
			}
			m, _, err := core.DecodeMachine(blob)
			if err != nil {
				t.Fatalf("decode tff checkpoint: %v", err)
			}
			var conds []bdd.Node
			for _, ts := range m.Trans {
				for _, tr := range ts {
					conds = append(conds, tr.Cond)
				}
			}
			nodes := m.Mgr.NodeCount(conds...)
			if limit := 32*(nodes+len(conds)) + 4<<10; len(blob) > limit {
				t.Errorf("tff blob is %d bytes for %d shared nodes and %d transitions, want at most %d",
					len(blob), nodes, len(conds), limit)
			}
			t.Logf("tff blob %d bytes, %d shared nodes, %d transitions", len(blob), nodes, len(conds))

			// The encoded result has no checkpoint: the last resumable
			// stage is tff, or minimize when the fold minimizes.
			stages := []string{pipeline.StageSchedule, pipeline.StageTFF}
			if tc.minimize {
				stages = append(stages, pipeline.StageMinimize)
			}
			if _, _, ok := rec.stage(pipeline.StageEncode); ok {
				t.Error("encode stage saved a checkpoint")
			}
			for k, stage := range stages {
				ck := newMemCheckpoint()
				for _, s := range stages[:k+1] {
					key, data, ok := rec.stage(s)
					if !ok {
						t.Fatalf("no %s checkpoint", s)
					}
					ck.Save(key, data)
				}
				opt.Checkpoint = ck
				got, err := core.FunctionalFold(g, tc.T, opt)
				if err != nil {
					t.Fatalf("resume from %s: %v", stage, err)
				}
				if !reflect.DeepEqual(stripReport(got), stripReport(clean)) {
					t.Errorf("resume from %s differs from the uninterrupted fold", stage)
				}
				for _, ss := range got.Report.Stages {
					if ss.Name == stage && !ss.Resumed {
						t.Errorf("resume from %s: stage not marked resumed", stage)
					}
				}
			}
		})
	}
}
