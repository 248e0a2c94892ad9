package job

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"circuitfold"
	"circuitfold/internal/pipeline"
)

// smokeSpec is the fold the service tests run: the paper's 64-adder
// folded 16x functionally, cheap knobs (no reorder, no minimize).
func smokeSpec() Spec {
	return Spec{Generator: "64-adder", T: 16, Method: MethodFunctional}
}

// waitRunning polls until the job leaves the queue (a worker picked
// it up; on fast folds it may already be done).
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for j.Status().State == StateQueued {
		select {
		case <-deadline:
			t.Fatalf("job never started: %+v", j.Status())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// wait blocks until the job finishes or the test times out.
func wait(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", j.ID())
	}
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"generator", Spec{Generator: "adder3", T: 3}, true},
		{"netlist", Spec{Netlist: &Netlist{Format: "bench", Text: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}, T: 1}, true},
		{"no source", Spec{T: 2}, false},
		{"both sources", Spec{Generator: "adder3", Netlist: &Netlist{Format: "aag"}, T: 2}, false},
		{"bad generator", Spec{Generator: "nope", T: 2}, false},
		{"bad T", Spec{Generator: "adder3", T: 0}, false},
		{"bad method", Spec{Generator: "adder3", T: 2, Method: "quantum"}, false},
		{"bad format", Spec{Netlist: &Netlist{Format: "vhdl", Text: "x"}, T: 2}, false},
		{"bad encoding", Spec{Generator: "adder3", T: 2, StateEnc: "gray"}, false},
		{"resilient", Spec{Generator: "adder3", T: 3, Method: MethodResilient}, true},
	} {
		err := tc.spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSpecHash(t *testing.T) {
	a := smokeSpec()
	b := smokeSpec()
	if a.Hash() != b.Hash() {
		t.Error("identical specs hash differently")
	}
	b.T = 8
	if a.Hash() == b.Hash() {
		t.Error("different specs collide")
	}
	// The method default is applied before hashing: "" and
	// "functional" are the same job.
	c := smokeSpec()
	c.Method = ""
	if a.Hash() != c.Hash() {
		t.Error("default method changes the hash")
	}
}

func TestRunnerRunsJob(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 2})
	defer r.Shutdown(context.Background())
	j, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Method != MethodFunctional || st.InputPins != 8 {
		t.Errorf("status = %+v", st)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	g, err := circuitfold.Benchmark("64-adder")
	if err != nil {
		t.Fatal(err)
	}
	if err := circuitfold.VerifyFast(g, res, 2); err != nil {
		t.Errorf("folded result fails verification: %v", err)
	}
}

func TestRunnerFinalSnapshotResume(t *testing.T) {
	// The resubmission goes to a fresh runner over the same store, as
	// after a daemon restart, so it exercises the checkpoint-store
	// resume path (the first runner's cache would serve it at submit;
	// TestRunnerCacheHit covers that).
	store := NewMemStore()
	r := NewRunnerWith(RunnerOptions{Workers: 1, Store: store})
	j1, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j1)
	if st := j1.Status(); st.State != StateDone || st.ResumedResult {
		t.Fatalf("first run status = %+v", st)
	}
	r.Shutdown(context.Background())
	// The identical spec is served from its final snapshot.
	r = NewRunnerWith(RunnerOptions{Workers: 1, Store: store})
	defer r.Shutdown(context.Background())
	j2, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j2)
	st := j2.Status()
	if st.State != StateDone || !st.ResumedResult {
		t.Fatalf("resubmission status = %+v (%s)", st, st.Error)
	}
	r1, _ := j1.Result()
	r2, _ := j2.Result()
	if !reflect.DeepEqual(stripReport(r1), stripReport(r2)) {
		t.Error("snapshot-restored result differs from the original")
	}
}

// killStore wraps a Store so tests can observe saves — the
// deterministic stand-in for "the daemon died right after stage X
// checkpointed". onSave gets the stage name of a stage address
// ("tff" for "tff/<digest>") and any other key as it is.
type killStore struct {
	Store
	mu     sync.Mutex
	onSave func(stage string)
}

func (s *killStore) Checkpoint(key string) pipeline.Checkpoint {
	return &killCheckpoint{Checkpoint: s.Store.Checkpoint(key), s: s}
}

type killCheckpoint struct {
	pipeline.Checkpoint
	s *killStore
}

func (c *killCheckpoint) Save(stage string, data []byte) error {
	err := c.Checkpoint.Save(stage, data)
	c.s.mu.Lock()
	cb := c.s.onSave
	c.s.mu.Unlock()
	if cb != nil && err == nil {
		name, _, _ := strings.Cut(stage, "/")
		cb(name)
	}
	return err
}

// TestJobKillAndResume is the acceptance test at the service level: a
// job killed mid-pipeline (right after the tff stage checkpointed to
// a file-backed store), resubmitted to a fresh runner over the same
// store — a daemon restart — resumes at the last completed stage,
// visibly in the status, and produces a Result bit-identical to an
// uninterrupted fold.
func TestJobKillAndResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ks := &killStore{Store: fs}
	r1 := NewRunnerWith(RunnerOptions{Workers: 1, Store: ks})

	var once sync.Once
	ks.onSave = func(stage string) {
		if stage == pipeline.StageTFF {
			// The "kill": cancel the (only) job the moment its tff
			// stage checkpointed. Looked up via the runner — Submit
			// registered it before any worker could run it.
			once.Do(func() {
				for _, j := range r1.Jobs() {
					r1.Cancel(j.ID())
				}
			})
		}
	}
	killed, err := r1.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, killed)
	if st := killed.Status(); st.State != StateCanceled {
		t.Fatalf("killed job state = %s (%s)", st.State, st.Error)
	}
	r1.Shutdown(context.Background())

	// An uninterrupted fold for the bit-identity reference.
	g, err := circuitfold.Benchmark("64-adder")
	if err != nil {
		t.Fatal(err)
	}
	spec := smokeSpec()
	opt := spec.Options()
	clean, err := circuitfold.Functional(g, 16, opt)
	if err != nil {
		t.Fatal(err)
	}

	// "Restart the daemon": a fresh runner over the same directory.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs2})
	defer r2.Shutdown(context.Background())
	j, err := r2.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("resumed job state = %s (%s)", st.State, st.Error)
	}
	found := false
	for _, name := range st.Resumed {
		if name == pipeline.StageTFF {
			found = true
		}
	}
	if !found {
		t.Errorf("resumed stages %v do not include %s", st.Resumed, pipeline.StageTFF)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripReport(res), stripReport(clean)) {
		t.Fatal("resumed result is not bit-identical to the uninterrupted fold")
	}
	if err := circuitfold.VerifyFast(g, res, 2); err != nil {
		t.Errorf("resumed result fails verification: %v", err)
	}
}

// stripReport clones a result without its report (timings differ
// across runs; everything else must be identical).
func stripReport(r *circuitfold.Result) circuitfold.Result {
	c := *r
	c.Report = nil
	return c
}

func TestRunnerCancelQueued(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 1})
	defer r.Shutdown(context.Background())
	// One worker: the second job stays queued while the first runs.
	j1, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec2 := smokeSpec()
	spec2.T = 32
	j2, err := r.Submit(spec2, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cancel(j2.ID()) {
		t.Fatal("cancel returned false")
	}
	wait(t, j2)
	if st := j2.Status(); st.State != StateCanceled {
		t.Errorf("queued job state = %s after cancel", st.State)
	}
	wait(t, j1)
	if st := j1.Status(); st.State != StateDone {
		t.Errorf("running job state = %s (%s)", st.State, st.Error)
	}
	if r.Cancel("j9999") {
		t.Error("cancel of unknown id returned true")
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 1})
	j, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Only in-flight jobs are drained (queued ones are canceled, they
	// have no progress to lose) — so wait for the job to start.
	waitRunning(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if st := j.Status(); st.State != StateDone {
		t.Errorf("drained job state = %s (%s)", st.State, st.Error)
	}
	if _, err := r.Submit(smokeSpec(), SubmitOptions{}); err == nil {
		t.Error("submit accepted after shutdown")
	}
}

func TestShutdownDeadlineCancelsAndCheckpoints(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs})
	// A heavy fold that cannot finish in the drain window but polls
	// cancellation and checkpoints completed stages.
	spec := Spec{Generator: "b14_C", T: 8, Method: MethodFunctional, Reorder: true, Minimize: true}
	j, err := r.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A second, queued job: shutdown cancels it before it starts.
	q, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = r.Shutdown(ctx)
	if err == nil {
		t.Skip("b14_C fold finished inside the drain window on this machine")
	}
	if !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("shutdown error = %v", err)
	}
	if st := j.Status(); st.State != StateCanceled {
		t.Errorf("in-flight job state = %s after forced drain (%s)", st.State, st.Error)
	}
	if st := q.Status(); st.State != StateCanceled {
		t.Errorf("queued job state = %s after drain", st.State)
	}
}

func TestRunnerNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		r := NewRunnerWith(RunnerOptions{Workers: 4})
		j, err := r.Submit(Spec{Generator: "adder3", T: 3}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ch, cancelSub := j.Events(16)
		wait(t, j)
		for range ch { // drain until the job closes the stream
		}
		cancelSub()
		if err := r.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Goroutine counts settle asynchronously; poll briefly.
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("goroutines: %d before, %d after shutdowns", before, runtime.NumGoroutine())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestJobsReleaseCircuit: only a queued job carries its circuit, and the
// worker takes it, so neither a finished cold job nor a submit-time
// cache hit keeps one alive for the life of the runner.
func TestJobsReleaseCircuit(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 1})
	defer r.Shutdown(context.Background())
	cold := submitWait(t, r, smokeSpec())
	hit := submitWait(t, r, smokeSpec())
	if cold.CacheStatus() != "miss" || hit.CacheStatus() != "hit" {
		t.Fatalf("cache = %q, %q; want miss, hit", cold.CacheStatus(), hit.CacheStatus())
	}
	for _, j := range []*Job{cold, hit} {
		if j.g != nil {
			t.Errorf("%s job %s still holds its circuit", j.CacheStatus(), j.ID())
		}
	}
}
