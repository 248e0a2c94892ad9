package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestInputsArePureFunctionOfSeed generates every workload twice per
// seed and byte-compares the submissions.
func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 7, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBodies(a.Jobs, b.Jobs) || !sameBodies(a.Prepare, b.Prepare) {
			t.Errorf("%s: two builds from seed 7 differ", name)
		}
		c, err := buildWorkload(name, 8, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sameBodies(a.Jobs, c.Jobs) {
			t.Errorf("%s: seeds 7 and 8 give the same job list", name)
		}
	}
}

func sameBodies(a, b []input) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) || a[i].FoldKey != b[i].FoldKey {
			return false
		}
	}
	return true
}

// TestColdWorkloadHasDistinctKeys: on table3-functional no fold key
// repeats, within the timed list or between it and the warm-up folds,
// and none is made distinct by a budget field.
func TestColdWorkloadHasDistinctKeys(t *testing.T) {
	for _, name := range []string{"table3-functional"} {
		w, err := buildWorkload(name, 3, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, in := range append(append([]input(nil), w.Jobs...), w.Prepare...) {
			if seen[in.FoldKey] {
				t.Errorf("%s: fold key of %s T=%d repeats", name, in.source(), in.Spec.T)
			}
			seen[in.FoldKey] = true
			s := in.Spec
			if s.WallMS != 0 || s.MaxBDDNodes != 0 || s.MaxSATConflicts != 0 || s.MaxStates != 0 {
				t.Errorf("%s: job %s sets a budget", name, in.source())
			}
		}
	}
}

// TestHotKeysArePrimed: every resubmit-hot job's key is folded during
// set-up, and every key is submitted in both forms.
func TestHotKeysArePrimed(t *testing.T) {
	w, err := buildWorkload("resubmit-hot", 3, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	primed := map[string]bool{}
	for _, in := range w.Prepare {
		primed[in.FoldKey] = true
	}
	if len(primed) != len(hotSet) {
		t.Fatalf("%d primed keys, want %d", len(primed), len(hotSet))
	}
	forms := map[string]map[bool]int{}
	for _, in := range w.Jobs {
		if !primed[in.FoldKey] {
			t.Fatalf("job %s T=%d is not primed", in.source(), in.Spec.T)
		}
		if forms[in.FoldKey] == nil {
			forms[in.FoldKey] = map[bool]int{}
		}
		forms[in.FoldKey][in.Spec.Netlist != nil]++
	}
	for key, f := range forms {
		if f[true] == 0 || f[false] == 0 || f[true]-f[false] > 1 || f[false]-f[true] > 1 {
			t.Errorf("key %.12s: %d generator and %d netlist submissions", key, f[false], f[true])
		}
	}
}

// TestSmoke runs every workload at a small size, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and that every job passed the output check. A second seed runs
// too, and the quality sums repeat exactly for one seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	spec := loadSpec(t)
	out := t.TempDir()
	for _, name := range workloadNames {
		first := smokeRun(t, name, 1, false, out)
		for _, m := range spec.EndToEnd {
			got, ok := first.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", name, m.Name, got, m.Unit)
			}
		}
		if sr := first.Metrics["success_rate"].Value; sr != 1 {
			t.Errorf("%s: success_rate %v", name, sr)
		}
		again := smokeRun(t, name, 1, false, out)
		for _, q := range []string{"result_gates_sum", "result_ffs_sum", "result_states_sum"} {
			if first.Metrics[q].Value != again.Metrics[q].Value {
				t.Errorf("%s: %s %v then %v on one seed", name, q, first.Metrics[q].Value, again.Metrics[q].Value)
			}
		}
		smokeRun(t, name, 2, false, out)
		traced := smokeRun(t, name, 1, true, out)
		for _, m := range spec.PerLayer {
			got, ok := traced.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s traced: metric %s = %+v, want unit %s", name, m.Name, got, m.Unit)
			}
		}
		// Replayed layers count only the calls a job's path makes: a
		// hit decodes and never saves, a cold fold saves and never
		// decodes.
		save, decode := traced.Metrics["store.save_ms"].Value, traced.Metrics["core.decode_ms"].Value
		if hot := name == "resubmit-hot"; hot != (save == 0) || hot != (decode > 0) {
			t.Errorf("%s traced: store.save_ms %v, core.decode_ms %v", name, save, decode)
		}
	}
}

func smokeRun(t *testing.T, name string, seed int64, trace bool, outDir string) *output {
	t.Helper()
	o, err := run(config{workload: name, seed: seed, seconds: 0.05, trace: trace, small: true, outDir: outDir})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", name, seed, o.Correct, o.Attempted, o.Failed)
	}
	return o
}

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 80, 82, 601} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		if beyond := n - int(tail(xs)); beyond != 10 {
			t.Errorf("n=%d: tail leaves %d samples beyond, want 10", n, beyond)
		}
	}
}
