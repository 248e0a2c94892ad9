package job

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"circuitfold"
	"circuitfold/internal/core"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

// gateStore blocks every Checkpoint call until the gate closes, giving
// tests a deterministic window in which a job is running but has made
// no progress — the stand-in for "an identical fold is in flight".
type gateStore struct {
	Store
	gate chan struct{}
}

func (s *gateStore) Checkpoint(key string) pipeline.Checkpoint {
	<-s.gate
	return s.Store.Checkpoint(key)
}

// encodeJob serializes a finished job's result for byte-level
// comparison.
func encodeJob(t *testing.T, j *Job) []byte {
	t.Helper()
	res, err := j.Result()
	if err != nil {
		t.Fatalf("%s: %v", j.ID(), err)
	}
	res2 := stripReport(res)
	data, _, err := encodeFinal(j.Status().Method, &res2)
	if err != nil {
		t.Fatalf("%s: encode: %v", j.ID(), err)
	}
	return data
}

func TestFoldKeyNetlistGeneratorCollision(t *testing.T) {
	g, err := circuitfold.Benchmark("adder3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := circuitfold.WriteAAG(&buf, &circuitfold.Sequential{G: g, NumInputs: g.NumPIs()}); err != nil {
		t.Fatal(err)
	}
	gen := Spec{Generator: "adder3", T: 3, Reorder: true}
	net := Spec{Netlist: &Netlist{Format: "aag", Text: buf.String()}, T: 3, Reorder: true}
	gg, err := gen.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	ng, err := net.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if gen.Hash() == net.Hash() {
		t.Error("wire-form hashes should differ (different sources)")
	}
	if gen.FoldKey(gg) != net.FoldKey(ng) {
		t.Error("generator and netlist of the same AIG should share a fold key")
	}

	// Sensitivity: anything that can change the fold's outcome splits
	// the key; Workers (bit-identical by construction) does not.
	vary := gen
	vary.T = 2
	if vary.FoldKey(gg) == gen.FoldKey(gg) {
		t.Error("different T should split the fold key")
	}
	vary = gen
	vary.WallMS = 5000
	if vary.FoldKey(gg) == gen.FoldKey(gg) {
		t.Error("different budget should split the fold key")
	}
	vary = gen
	vary.Workers = 7
	if vary.FoldKey(gg) != gen.FoldKey(gg) {
		t.Error("Workers must not change the fold key")
	}
	vary = gen
	vary.Counter = "nat" // resolved encoding: "" and "nat" are the same
	if vary.FoldKey(gg) != gen.FoldKey(gg) {
		t.Error("encoding spelling must not change the fold key")
	}
}

func TestRunnerCacheHit(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 2})
	defer r.Shutdown(context.Background())
	j1, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j1)
	if st := j1.Status(); st.State != StateDone || st.Cache != "miss" {
		t.Fatalf("cold job status = %+v", st)
	}
	j2, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j2)
	st := j2.Status()
	if st.State != StateDone || st.Cache != "hit" {
		t.Fatalf("resubmission status = %+v", st)
	}
	if st.StartedAt != "" {
		t.Error("cache hit should never reach a worker")
	}
	if !bytes.Equal(encodeJob(t, j1), encodeJob(t, j2)) {
		t.Error("cached result is not byte-identical to the cold fold")
	}
	// The hit decodes a private Result: mutating one job's circuit must
	// not alias the other's.
	r1, _ := j1.Result()
	r2, _ := j2.Result()
	if r1.Seq == r2.Seq {
		t.Error("cache hit aliases the cold job's circuit")
	}
	m := r.Metrics()
	if hits := m.Counter(obs.MJobCacheHits).Value(); hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
	if misses := m.Counter(obs.MJobCacheMisses).Value(); misses != 1 {
		t.Errorf("cache_misses = %d, want 1", misses)
	}
}

// TestRunnerConcurrentIdentical is the shared-work race gate:
// identical specs submitted concurrently, on several workers over one
// FileStore, all finish with the same fold. (Concurrent folds of one
// key agree byte for byte except for their reports' stage timings;
// encodeJob strips the report.) The first half queues
// behind a gate, so several workers fold the same key at once and save
// the same final snapshot and cache entry; the second half races those
// folds' settling, so each is a submit-time hit or a queued miss.
func TestRunnerConcurrentIdentical(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	r := NewRunnerWith(RunnerOptions{Workers: 4, Store: &gateStore{Store: fs, gate: gate}})
	defer r.Shutdown(context.Background())

	const n = 8
	jobs := make([]*Job, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		jobs[i], errs[i] = r.Submit(smokeSpec(), SubmitOptions{})
	}
	for i := 0; i < n/2; i++ {
		wg.Add(1)
		go submit(i)
	}
	wg.Wait()
	for i := n / 2; i < n; i++ {
		wg.Add(1)
		go submit(i)
	}
	close(gate)
	wg.Wait()

	var want []byte
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		wait(t, j)
		st := j.Status()
		if st.State != StateDone || (st.Cache != "hit" && st.Cache != "miss") {
			t.Fatalf("%s: status = %+v, want done with cache hit or miss", j.ID(), st)
		}
		if i < n/2 && st.Cache != "miss" {
			t.Errorf("%s: submitted before any fold settled, but cache = %q", j.ID(), st.Cache)
		}
		if data := encodeJob(t, j); want == nil {
			want = data
		} else if !bytes.Equal(want, data) {
			t.Errorf("%s: result differs from %s's", j.ID(), jobs[0].ID())
		}
	}
	m := r.Metrics()
	if hits, misses := m.Counter(obs.MJobCacheHits).Value(), m.Counter(obs.MJobCacheMisses).Value(); hits+misses != n {
		t.Errorf("cache_hits + cache_misses = %d + %d, want %d", hits, misses, n)
	}
}

// TestRunnerMatchesDirectFold proves the runner adds nothing to a fold:
// consecutive, differently-shaped jobs on one worker each return the
// result a direct circuitfold.Functional call computes.
func TestRunnerMatchesDirectFold(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 1})
	defer r.Shutdown(context.Background())

	for i, spec := range []Spec{
		{Generator: "64-adder", T: 16, Reorder: true},
		{Generator: "64-adder", T: 8, Reorder: true}, // same worker, new shape
		{Generator: "adder3", T: 3, Reorder: true, Minimize: true},
	} {
		j, err := r.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		res, err := j.Result()
		if err != nil {
			t.Fatalf("job %d: %v (%+v)", i, err, j.Status())
		}
		g, err := spec.Circuit()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := circuitfold.Functional(g, spec.T, spec.Options())
		if err != nil {
			t.Fatalf("cold fold %d: %v", i, err)
		}
		if !reflect.DeepEqual(stripReport(res), stripReport(cold)) {
			t.Errorf("job %d (%s T=%d): runner result differs from direct fold",
				i, spec.Generator, spec.T)
		}
	}
}

// TestRunnerStatusJSONCache pins the wire shape of the cache verdict.
func TestRunnerStatusJSONCache(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 1})
	defer r.Shutdown(context.Background())
	j, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	blob := fmt.Sprintf("%+v", j.Status())
	if !bytes.Contains([]byte(blob), []byte("miss")) {
		t.Errorf("status carries no cache verdict: %s", blob)
	}
}

// TestRunnerCancelRaceNoLeak races client cancellation of queued
// identical jobs against cancellation of the running one (every other
// iteration leaves it running): every job must end terminal, the
// survivors must end done with identical bytes, and no goroutine may be
// left behind.
func TestRunnerCancelRaceNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 6; i++ {
		gate := make(chan struct{})
		r := NewRunnerWith(RunnerOptions{
			Workers: 1,
			Store:   &gateStore{Store: NewMemStore(), gate: gate},
		})
		running, err := r.Submit(smokeSpec(), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitRunning(t, running)
		queued := make([]*Job, 3)
		for k := range queued {
			if queued[k], err = r.Submit(smokeSpec(), SubmitOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		cancelRunning := i%2 == 0
		var cg sync.WaitGroup
		cg.Add(2)
		go func() { defer cg.Done(); r.Cancel(queued[0].ID()) }()
		go func() {
			defer cg.Done()
			if cancelRunning {
				r.Cancel(running.ID())
			}
		}()
		cg.Wait()
		close(gate)
		survivors := queued[1:]
		if !cancelRunning {
			survivors = append(survivors, running)
		}
		for _, j := range append([]*Job{running}, queued...) {
			wait(t, j)
		}
		if st := queued[0].Status(); st.State != StateCanceled {
			t.Errorf("iteration %d: canceled queued job = %+v", i, st)
		}
		if st := running.Status(); cancelRunning && st.State != StateCanceled {
			t.Errorf("iteration %d: canceled running job = %+v", i, st)
		}
		var want []byte
		for _, j := range survivors {
			st := j.Status()
			if st.State != StateDone {
				t.Fatalf("iteration %d: survivor %s = %+v (%s)", i, j.ID(), st, st.Error)
			}
			if data := encodeJob(t, j); want == nil {
				want = data
			} else if !bytes.Equal(want, data) {
				t.Errorf("iteration %d: survivor %s's result differs", i, j.ID())
			}
		}
		if err := r.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("goroutines: %d before, %d after cancel races", before, runtime.NumGoroutine())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// aagSpec is spec with its generator replaced by an AAG upload of the
// same AIG: a different spec hash over the same fold key.
func aagSpec(t *testing.T, spec Spec) Spec {
	t.Helper()
	g, err := circuitfold.Benchmark(spec.Generator)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := circuitfold.WriteAAG(&buf, &circuitfold.Sequential{G: g, NumInputs: g.NumPIs()}); err != nil {
		t.Fatal(err)
	}
	spec.Generator, spec.Netlist = "", &Netlist{Format: "aag", Text: buf.String()}
	return spec
}

// submitWait submits spec and waits for the job to finish.
func submitWait(t *testing.T, r *Runner, spec Spec) *Job {
	t.Helper()
	j, err := r.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	return j
}

// getResult fetches j's GET /result body (json) from its runner's API.
func getResult(t *testing.T, j *Job) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	NewServer(j.r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID()+"/result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: GET /result = %d: %s", j.ID(), rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestServePathIdentity is the result path's identity gate. Each spec
// is served along every path a finished fold takes: cold, memory hit
// at submit, a store hit on a fresh runner over the same FileStore,
// and a job queued behind an identical fold. Every path must report its
// provenance, return the bytes of the cold fold of the same fold key,
// serve GET /result as core.EncodeResult of its decoded Result (what a
// runner that re-encoded per request served), report the Result's
// shape in its Status, and decode a Result of its own on every call.
func TestServePathIdentity(t *testing.T) {
	type path struct {
		name          string
		cache         string
		resumedResult bool
	}
	want := map[string][]byte{}                   // fold key -> cold fold's bytes
	owner := map[*circuitfold.Sequential]string{} // Result.Seq -> serving path
	check := func(t *testing.T, p path, j *Job) {
		t.Helper()
		st := j.Status()
		if st.State != StateDone || st.Cache != p.cache || st.ResumedResult != p.resumedResult {
			t.Fatalf("%s: status = %+v, want done, cache %q, resumed_result %v",
				p.name, st, p.cache, p.resumedResult)
		}
		data := encodeJob(t, j)
		if w, ok := want[j.FoldKey()]; !ok {
			want[j.FoldKey()] = data
		} else if !bytes.Equal(w, data) {
			t.Errorf("%s: result differs from the cold fold", p.name)
		}
		res, _ := j.Result()
		again, _ := j.Result()
		reencoded, err := core.EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.name, err)
		}
		if !bytes.Equal(getResult(t, j), reencoded) {
			t.Errorf("%s: GET /result body is not core.EncodeResult(Result())", p.name)
		}
		shape := [6]int{st.InputPins, st.OutputPins, st.FlipFlops, st.Gates, st.States, st.StatesMin}
		if w := [6]int{res.InputPins(), res.OutputPins(), res.FlipFlops(), res.Gates(), res.States, res.StatesMin}; shape != w {
			t.Errorf("%s: status shape %v, decoded Result has %v", p.name, shape, w)
		}
		for _, seq := range []*circuitfold.Sequential{res.Seq, again.Seq} {
			if prev, ok := owner[seq]; ok {
				t.Errorf("%s: Result.Seq shared with %s", p.name, prev)
			}
			owner[seq] = p.name
		}
	}

	for _, spec := range []Spec{
		smokeSpec(),
		aagSpec(t, smokeSpec()),
		{Generator: "64-adder", T: 8, Method: MethodResilient},
		{Generator: "64-adder", T: 8, Method: MethodHybrid},
	} {
		name := spec.Generator + "/" + spec.EffectiveMethod()
		if spec.Netlist != nil {
			name = "aag/" + spec.EffectiveMethod()
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs})
			// The generator and the upload share a fold key: whichever
			// runs second on a fresh runner is still a cold fold here.
			check(t, path{"cold", "miss", false}, submitWait(t, r, spec))
			hit := submitWait(t, r, spec)
			check(t, path{"memory hit", "hit", false}, hit)
			if hit.Status().StartedAt != "" {
				t.Error("memory hit reached a worker")
			}
			r.Shutdown(context.Background())

			// A restarted daemon: the worker reads the final snapshot
			// through into the empty cache.
			fs2, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			r2 := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs2})
			check(t, path{"store hit, fresh runner", "miss", true}, submitWait(t, r2, spec))
			r2.Shutdown(context.Background())

			// Queued behind an identical fold: on one worker the second
			// job waits while the first folds, then its worker serves
			// the first fold's bytes from the memory tier.
			gate := make(chan struct{})
			gr := NewRunnerWith(RunnerOptions{Workers: 1, Store: &gateStore{Store: NewMemStore(), gate: gate}})
			defer gr.Shutdown(context.Background())
			first, err := gr.Submit(spec, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			waitRunning(t, first)
			queued, err := gr.Submit(spec, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			close(gate)
			wait(t, first)
			wait(t, queued)
			check(t, path{"cold, gated", "miss", false}, first)
			check(t, path{"queued behind an identical fold", "miss", true}, queued)
			if hits := gr.cache.Stats().Hits; hits != 1 {
				t.Errorf("memory-tier hits = %d, want 1 (the queued job's read-through)", hits)
			}
		})
	}
}

// TestStoreSnapshotValidation: a store snapshot is served only if it
// decodes in full and agrees with its header. A snapshot that passes
// the store's checksum but not that check, and one in the older v1
// envelope, are misses: neither enters the cache, and the job folds
// again to the same result.
func TestStoreSnapshotValidation(t *testing.T) {
	spec := smokeSpec()
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs})
	cold := submitWait(t, r, spec)
	want := encodeJob(t, cold)
	r.Shutdown(context.Background())

	data, ok := fs.Checkpoint(cold.Key()).Load(finalStage)
	if !ok {
		t.Fatal("no final snapshot saved")
	}
	fin, err := parseFinal(data)
	if err != nil {
		t.Fatal(err)
	}
	head := data[:len(data)-len(fin.body)]
	lying := fin.finalHeader
	lying.Gates++
	lyingHead, err := json.Marshal(lying)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := json.Marshal(struct {
		V      int             `json:"v"`
		Method string          `json:"method"`
		Result json.RawMessage `json:"result"`
	}{1, fin.Method, fin.body})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		snap []byte
	}{
		{"truncated body", append(append([]byte(nil), head...), fin.body[:len(fin.body)/2]...)},
		{"header disagrees", append(append(lyingHead, '\n'), fin.body...)},
		{"v1 envelope", v1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			ck := fs.Checkpoint(cold.Key())
			if err := ck.Save(finalStage, tc.snap); err != nil {
				t.Fatal(err)
			}
			r := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs})
			defer r.Shutdown(context.Background())
			if _, ok := r.lookupFinal(cold.FoldKey(), ck); ok {
				t.Fatal("invalid snapshot served")
			}
			if n := r.cache.Len(); n != 0 {
				t.Fatalf("invalid snapshot entered the cache (%d entries)", n)
			}
			j := submitWait(t, r, spec)
			if st := j.Status(); st.State != StateDone || st.Cache != "miss" || st.ResumedResult {
				t.Fatalf("status = %+v, want a cold fold", st)
			}
			if !bytes.Equal(want, encodeJob(t, j)) {
				t.Error("re-fold differs from the original fold")
			}
		})
	}
}

// TestRunnerUnencodableResult: a fold whose result cannot be encoded
// fails its job with a clear error and is neither saved nor cached, so
// an identical submission after the failure folds for itself.
func TestRunnerUnencodableResult(t *testing.T) {
	gate := make(chan struct{})
	store := NewMemStore()
	r := NewRunnerWith(RunnerOptions{Workers: 1, Store: &gateStore{Store: store, gate: gate}})
	defer r.Shutdown(context.Background())
	failed, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, failed) // its worker now waits at the gate

	// Settle the job as its worker would, with a result that has no
	// circuit to encode, then cancel the real fold its worker is about
	// to start, so nothing but the next job can produce a result.
	ck := store.Checkpoint(failed.Key())
	r.settle(failed, &jobRun{ck: ck}, MethodFunctional, &circuitfold.Result{T: smokeSpec().T}, nil)
	r.Cancel(failed.ID())
	st := failed.Status()
	if st.State != StateFailed || !strings.HasPrefix(st.Error, "result not encodable") {
		t.Fatalf("job = %+v, want failed: result not encodable", st)
	}
	if _, ok := ck.Load(finalStage); ok {
		t.Error("unencodable result saved a final snapshot")
	}
	if n := r.cache.Len(); n != 0 {
		t.Errorf("unencodable result cached (%d entries)", n)
	}

	again, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	wait(t, again)
	if st := again.Status(); st.State != StateDone || st.Cache != "miss" || st.ResumedResult {
		t.Fatalf("identical submission after the failure = %+v (%s), want a fold of its own", st, st.Error)
	}
	if st := failed.Status(); st.State != StateFailed {
		t.Errorf("failed job left its state: %+v", st)
	}
}

// FuzzParseFinal: the final snapshot's header parse never panics on
// arbitrary bytes, and a parse that succeeds returns everything after
// the first newline as the body.
func FuzzParseFinal(f *testing.F) {
	g, err := circuitfold.Benchmark("adder3")
	if err != nil {
		f.Fatal(err)
	}
	res, err := circuitfold.Simple(g, 3)
	if err != nil {
		f.Fatal(err)
	}
	snap, fin, err := encodeFinal(MethodSimple, res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(fin.body)
	f.Add([]byte(`{"v":1,"method":"simple","result":{}}`))
	f.Add([]byte("\n"))
	f.Add([]byte(`{"v":2}` + "\n"))
	f.Add([]byte(`{"v":2,"gates":-1,"method":null}` + "\n\n{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fin, err := parseFinal(data)
		if err != nil {
			return
		}
		if fin.V != finalVersion {
			t.Fatalf("parsed version %d", fin.V)
		}
		if i := bytes.IndexByte(data, '\n'); !bytes.Equal(fin.body, data[i+1:]) {
			t.Fatal("body is not the bytes after the header line")
		}
	})
}
