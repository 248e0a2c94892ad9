package job

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"circuitfold/internal/core"
	"circuitfold/internal/fsm"
	"circuitfold/internal/gen"
	"circuitfold/internal/pipeline"
)

// stores enumerates the Store implementations under test; file-backed
// stores get a fresh temp dir per case.
func stores(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore() },
		"file": func() Store {
			fs, err := NewFileStore(filepath.Join(t.TempDir(), "ck"))
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			ck := s.Checkpoint("job1")
			if _, ok := ck.Load("schedule"); ok {
				t.Fatal("empty namespace reports a snapshot")
			}
			for _, tc := range []struct {
				stage string
				data  string
			}{
				{"schedule", `{"v":1}`},
				{"tff", "binary\x00data"},
				{"functional/schedule", "prefixed stage name"},
				{"schedule", "overwritten"}, // second save wins
				{"empty", ""},
			} {
				if err := ck.Save(tc.stage, []byte(tc.data)); err != nil {
					t.Fatalf("save %q: %v", tc.stage, err)
				}
				got, ok := ck.Load(tc.stage)
				if !ok || string(got) != tc.data {
					t.Fatalf("load %q = %q, %v; want %q", tc.stage, got, ok, tc.data)
				}
			}
			// Namespaces are independent.
			ck2 := s.Checkpoint("job2")
			if _, ok := ck2.Load("schedule"); ok {
				t.Error("namespace job2 sees job1's snapshot")
			}
			// The same key resolves to the same data (a fresh handle, as
			// a restarted daemon would get).
			again := s.Checkpoint("job1")
			if got, ok := again.Load("tff"); !ok || string(got) != "binary\x00data" {
				t.Errorf("reopened namespace lost data: %q, %v", got, ok)
			}
			if err := s.Delete("job1"); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if _, ok := s.Checkpoint("job1").Load("schedule"); ok {
				t.Error("deleted namespace still has snapshots")
			}
		})
	}
}

func TestStoreAsPipelineCheckpoint(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var ck pipeline.Checkpoint = mk().Checkpoint(stageNamespace)
			key := pipeline.Addresses("functional", "in", pipeline.Budget{},
				[]pipeline.Stage{{Name: pipeline.StageTFF}})[0]
			if err := ck.Save(key, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if got, ok := ck.Load(key); !ok || string(got) != "x" {
				t.Fatalf("stage address load = %q, %v", got, ok)
			}
		})
	}
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint("k").Save("minimize", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A new store over the same directory — the restart path.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Checkpoint("k").Load("minimize"); !ok || string(got) != "persisted" {
		t.Fatalf("reopened store = %q, %v", got, ok)
	}
}

func TestFileStoreIgnoresStrayTempFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck := s.Checkpoint("k")
	if err := ck.Save("schedule", []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-save: a leftover temp file must not shadow
	// or corrupt any stage.
	stray := filepath.Join(dir, encodeName("k"), ".tmp-crash")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := ck.Load("schedule"); !ok || string(got) != "good" {
		t.Fatalf("stage corrupted by stray temp file: %q, %v", got, ok)
	}
	if _, ok := ck.Load(".tmp-crash"); ok {
		t.Log("note: temp file readable as a stage name; harmless (engine stage names never start with .tmp)")
	}
}

func TestFileStoreConcurrentSaves(t *testing.T) {
	s, err := NewFileStore(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	ck := s.Checkpoint("k")
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			done <- ck.Save(fmt.Sprintf("stage%d", i%4), []byte(fmt.Sprintf("writer %d", i)))
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok := ck.Load(fmt.Sprintf("stage%d", i)); !ok {
			t.Errorf("stage%d missing after concurrent saves", i)
		}
	}
}

// TestStoreStaleMachineBlobReruns plants a version-1 tff checkpoint —
// the cube-cover machine encoding an older build left in its store —
// under the fold's tff address, and checks that the fold refuses it,
// re-runs the stage, and returns the cold fold's result.
func TestStoreStaleMachineBlobReruns(t *testing.T) {
	g := gen.MustBuild("adder3")
	const T = 3
	opt := core.FunctionalOptions{Minimize: true, MinOpts: fsm.DefaultMinimizeOptions()}
	cold, err := core.FunctionalFold(g, T, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The tff address, as a fold over a store records it.
	rec := NewMemStore()
	opt.Checkpoint = rec.Checkpoint(stageNamespace)
	if _, err := core.FunctionalFold(g, T, opt); err != nil {
		t.Fatal(err)
	}
	tffKey := ""
	for key := range rec.m[stageNamespace].m {
		if strings.HasPrefix(key, pipeline.StageTFF+"/") {
			tffKey = key
		}
	}
	if tffKey == "" {
		t.Fatal("fold saved no tff blob")
	}

	sched, err := core.PinSchedule(g, T, core.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, states, err := core.TimeFrameFold(g, sched, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	type v1Trans struct {
		Cubes []string `json:"cubes"`
		Out   string   `json:"out"`
		Dst   int      `json:"dst"`
	}
	trans := make([][]v1Trans, m.NumStates())
	for s, ts := range m.Trans {
		for _, tr := range ts {
			out := ""
			for _, v := range tr.Out {
				out += v.String()
			}
			trans[s] = append(trans[s], v1Trans{fsm.Cubes(m.Mgr, tr.Cond, m.NumInputs), out, tr.Dst})
		}
	}
	v1, err := json.Marshal(map[string]any{"v": 1, "inputs": m.NumInputs, "outputs": m.NumOutputs,
		"initial": m.Initial, "states": states, "trans": trans})
	if err != nil {
		t.Fatal(err)
	}

	ck := NewMemStore().Checkpoint(stageNamespace)
	if err := ck.Save(tffKey, v1); err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = ck
	got, err := core.FunctionalFold(g, T, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range got.Report.Stages {
		if ss.Name == pipeline.StageTFF && ss.Resumed {
			t.Error("tff stage resumed from a version-1 blob")
		}
	}
	if !reflect.DeepEqual(stripReport(got), stripReport(cold)) {
		t.Error("fold over a stale tff blob differs from the cold fold")
	}
	if data, ok := ck.Load(tffKey); !ok || bytes.Equal(data, v1) {
		t.Error("re-run tff stage did not replace the stale blob")
	}
}
