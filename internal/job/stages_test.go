package job

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"circuitfold"
	"circuitfold/internal/pipeline"
)

// twinSpecs are the nat and 1hot twins of one minimized fold: they
// agree on every stage but encode.
func twinSpecs() (nat, hot Spec) {
	nat = Spec{Generator: "i6", T: 16, Minimize: true, StateEnc: "nat"}
	hot = nat
	hot.StateEnc = "1hot"
	return nat, hot
}

// coldFold folds spec in process with no checkpoint store.
func coldFold(t *testing.T, spec Spec) *circuitfold.Result {
	t.Helper()
	g, err := spec.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := circuitfold.Functional(g, spec.T, spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dirEntries lists the blob names under a FileStore namespace.
func dirEntries(t *testing.T, fs *FileStore, namespace string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(fs.Dir(), encodeName(namespace)))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestRunnerTwinResumesStages: the 1hot twin of a finished nat fold —
// submitted as a netlist upload of the same AIG, so it shares neither
// spec hash nor fold key with it — restores schedule, tff and minimize
// from the store-wide stage namespace, lists them under resumed, and
// returns its cold fold's result. The job namespaces hold only the
// final snapshots; the stage namespace holds no encoded result.
func TestRunnerTwinResumesStages(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs})
	defer r.Shutdown(context.Background())
	nat, hot := twinSpecs()
	hot = aagSpec(t, hot)

	first := submitWait(t, r, nat)
	if st := first.Status(); st.State != StateDone || len(st.Resumed) != 0 {
		t.Fatalf("first twin = %+v (%s), want a cold fold", st, st.Error)
	}
	twin := submitWait(t, r, hot)
	st := twin.Status()
	want := []string{pipeline.StageSchedule, pipeline.StageTFF, pipeline.StageMinimize}
	if st.State != StateDone || st.Cache != "miss" || !reflect.DeepEqual(st.Resumed, want) {
		t.Fatalf("twin = %+v (%s), want done, miss, resumed %v", st, st.Error, want)
	}
	got, err := twin.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripReport(got), stripReport(coldFold(t, hot))) {
		t.Error("twin result differs from its cold fold")
	}

	for _, j := range []*Job{first, twin} {
		if ents := dirEntries(t, fs, j.Key()); !reflect.DeepEqual(ents, []string{finalStage}) {
			t.Errorf("job %s namespace holds %v, want only %s", j.ID(), ents, finalStage)
		}
	}
	stages := map[string]int{}
	for _, key := range dirEntries(t, fs, stageNamespace) {
		name, _, _ := strings.Cut(key, "/")
		stages[name]++
	}
	if wantStages := map[string]int{"schedule": 1, "tff": 1, "minimize": 1}; !reflect.DeepEqual(stages, wantStages) {
		t.Errorf("stage namespace holds %v, want %v", stages, wantStages)
	}
}

// TestRunnerTwinsConcurrent: two workers fold the nat and 1hot twins at
// the same time over one FileStore, each saving and restoring the
// stages they share while the other may be writing them. Both results
// must equal their cold folds.
func TestRunnerTwinsConcurrent(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWith(RunnerOptions{Workers: 2, Store: fs})
	defer r.Shutdown(context.Background())
	nat, hot := twinSpecs()
	specs := []Spec{nat, hot}
	jobs := make([]*Job, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			j, err := r.Submit(spec, SubmitOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i, spec)
	}
	wg.Wait()
	for i, j := range jobs {
		if j == nil {
			t.FailNow()
		}
		wait(t, j)
		got, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripReport(got), stripReport(coldFold(t, specs[i]))) {
			t.Errorf("%s twin differs from its cold fold", specs[i].StateEnc)
		}
	}
}

// holdStore blocks Checkpoint for one job key until release closes,
// holding that job in the running state.
type holdStore struct {
	Store
	key     string
	release chan struct{}
}

func (s *holdStore) Checkpoint(key string) pipeline.Checkpoint {
	if key == s.key {
		<-s.release
	}
	return s.Store.Checkpoint(key)
}

// TestRunnerEvictsFinishedJobs: 10,000 cache hits leave the job table at
// or under maxJobs, the oldest hits evicted first; an evicted ID is a
// 404 over HTTP, while the newest hit and a job still running from
// before the stream stay known.
func TestRunnerEvictsFinishedJobs(t *testing.T) {
	held := benchUpload()
	held.T = 1
	hs := &holdStore{Store: NewMemStore(), key: held.Hash(), release: make(chan struct{})}
	r := NewRunnerWith(RunnerOptions{Workers: 2, Store: hs})
	defer r.Shutdown(context.Background())
	primed := submitWait(t, r, benchUpload())
	running, err := r.Submit(held, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, running)

	var last *Job
	for i := 0; i < 10000; i++ {
		if last, err = r.Submit(benchUpload(), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
		if last.CacheStatus() != "hit" {
			t.Fatalf("submit %d: cache %q, want hit", i, last.CacheStatus())
		}
	}
	r.mu.Lock()
	n, order := len(r.jobs), len(r.order)
	r.mu.Unlock()
	if n > maxJobs || order != n {
		t.Errorf("job table holds %d jobs in %d order slots, want at most %d and equal", n, order, maxJobs)
	}

	srv := NewServer(r)
	status := func(id string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		return rec.Code
	}
	if code := status(primed.ID()); code != http.StatusNotFound {
		t.Errorf("evicted job %s: GET = %d, want 404", primed.ID(), code)
	}
	for _, j := range []*Job{last, running} {
		if code := status(j.ID()); code != http.StatusOK {
			t.Errorf("job %s: GET = %d, want 200", j.ID(), code)
		}
	}
	close(hs.release)
	wait(t, running)
	if st := running.Status(); st.State != StateDone {
		t.Errorf("held job = %+v (%s)", st, st.Error)
	}
}
