package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"circuitfold/internal/fault"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

// TestRunnerJournalRecovery is the durability acceptance test: a
// runner with two acknowledged jobs — one killed mid-fold right after
// its tff stage checkpointed, one still queued — crashes (Kill: no
// orderly terminal records reach the journal). A fresh runner over the
// same directory replays the journal, re-enqueues both jobs, and both
// finish with results bit-identical to uninterrupted folds.
func TestRunnerJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	jr, recs := openTestJournal(t, filepath.Join(dir, "journal.wal"))
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	fs, err := NewFileStore(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	ks := &killStore{Store: fs}
	r1 := NewRunnerWith(RunnerOptions{Workers: 1, Store: ks, Journal: jr})
	if n, err := r1.Recover(nil); n != 0 || err != nil {
		t.Fatalf("empty recover = %d, %v", n, err)
	}

	// The crash point: the moment the running job's tff stage hits the
	// store, detach the journal (Kill's first step) before letting the
	// fold proceed — exactly the state a real crash leaves behind.
	var once sync.Once
	killStarted := make(chan struct{})
	ks.onSave = func(stage string) {
		if stage == pipeline.StageTFF {
			once.Do(func() {
				go r1.Kill()
				for r1.journal.Load() != nil {
					time.Sleep(time.Millisecond)
				}
				close(killStarted)
			})
		}
	}

	specA := smokeSpec()
	specB := smokeSpec()
	specB.T = 8
	if _, err := r1.Submit(specA, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Submit(specB, SubmitOptions{}); err != nil { // queued behind the single worker
		t.Fatal(err)
	}
	<-killStarted
	r1.Kill() // joins the in-flight Kill; idempotent

	// The journal survived the crash with both submissions and no
	// terminal records.
	jr2, recs := openTestJournal(t, filepath.Join(dir, "journal.wal"))
	pending := PendingJobs(recs)
	if len(pending) != 2 {
		t.Fatalf("pending after crash = %d jobs (%d records), want 2", len(pending), len(recs))
	}

	// Daemon restart: fresh runner, same store, journal replay.
	fs2, err := NewFileStore(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWith(RunnerOptions{Workers: 2, Store: fs2, Journal: jr2})
	defer r2.Shutdown(context.Background())
	if ready, reason := r2.Ready(); ready || !strings.Contains(reason, "recovering") {
		t.Fatalf("pre-recovery readiness = %v %q, want recovering", ready, reason)
	}
	n, err := r2.Recover(recs)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2", n)
	}
	if ready, reason := r2.Ready(); !ready {
		t.Fatalf("post-recovery readiness = false %q", reason)
	}
	if got := r2.Metrics().Counter(obs.MJobRecovered).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", obs.MJobRecovered, got)
	}

	recovered := map[int][]byte{} // spec.T -> encoded result
	for _, j := range r2.Jobs() {
		wait(t, j)
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("recovered job %s = %+v", j.ID(), st)
		}
		if !st.Recovered {
			t.Errorf("job %s not marked recovered", j.ID())
		}
		recovered[j.Spec().T] = encodeJob(t, j)
	}

	// Bit-identity against uninterrupted folds of the same specs.
	clean := NewRunnerWith(RunnerOptions{Workers: 1})
	defer clean.Shutdown(context.Background())
	for _, spec := range []Spec{specA, specB} {
		j, err := clean.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		if !bytes.Equal(recovered[spec.T], encodeJob(t, j)) {
			t.Errorf("T=%d: recovered result differs from uninterrupted fold", spec.T)
		}
	}
}

// TestServeReadyzRecovering proves /readyz answers 503 with a JSON
// reason while the startup journal replay is in progress, and flips to
// 200 once Recover returns.
func TestServeReadyzRecovering(t *testing.T) {
	jr, _ := openTestJournal(t, filepath.Join(t.TempDir(), "journal.wal"))
	r := NewRunnerWith(RunnerOptions{Workers: 1, Journal: jr})
	defer r.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	var body map[string]string
	if code := getJSON(t, srv.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("recovering /readyz = %d, want 503", code)
	}
	if body["status"] != "unready" || !strings.Contains(body["reason"], "recovering") {
		t.Fatalf("recovering /readyz body = %v", body)
	}
	if _, err := r.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv.URL+"/readyz", &body); code != http.StatusOK {
		t.Fatalf("post-recovery /readyz = %d, want 200", code)
	}
}

// TestFileStoreChecksumQuarantine proves a blob corrupted on disk is
// detected by its content checksum, quarantined aside (never returned,
// never silently deleted), counted, and healed by the next Save.
func TestFileStoreChecksumQuarantine(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fs.Observe(reg.Counter(obs.MStoreCorrupt))
	ck := fs.Checkpoint("k")
	payload := []byte("folded circuit bytes")
	if err := ck.Save("tff", payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := ck.Load("tff"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("clean load = %q, %v", got, ok)
	}

	// Flip one payload byte on disk, after the 8-byte frame header.
	path := filepath.Join(dir, "k", "tff")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+len(payload)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := ck.Load("tff"); ok {
		t.Fatalf("corrupt blob returned: %q", got)
	}
	if got := reg.Counter(obs.MStoreCorrupt).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MStoreCorrupt, got)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt blob still at original path (err=%v)", err)
	}

	// Heal: re-save and the key serves again.
	if err := ck.Save("tff", payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := ck.Load("tff"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("healed load = %q, %v", got, ok)
	}
}

// TestFileStoreFaultPoints drives the three disk-fault injection
// points: a short write and a failed fsync surface as typed store
// errors without publishing a partial blob; a read-side bit flip is
// caught by the checksum and quarantined.
func TestFileStoreFaultPoints(t *testing.T) {
	newStore := func(t *testing.T) (*FileStore, pipeline.Checkpoint, *obs.Counter, string) {
		t.Helper()
		dir := t.TempDir()
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		corrupt := reg.Counter(obs.MStoreCorrupt)
		fs.Observe(corrupt)
		return fs, fs.Checkpoint("k"), corrupt, dir
	}

	t.Run("short write", func(t *testing.T) {
		_, ck, _, dir := newStore(t)
		fault.Activate(fault.NewPlan(map[string]fault.Rule{
			fault.PointStoreWrite: {},
		}))
		t.Cleanup(fault.Deactivate)
		err := ck.Save("tff", []byte("payload"))
		if !errors.Is(err, ErrStore) {
			t.Fatalf("short-write Save error = %v, want ErrStore", err)
		}
		fault.Deactivate()
		// The torn temp file was never renamed into place.
		if _, ok := ck.Load("tff"); ok {
			t.Fatal("partial blob published after short write")
		}
		ents, _ := os.ReadDir(filepath.Join(dir, "k"))
		for _, e := range ents {
			if strings.Contains(e.Name(), ".tmp") {
				t.Errorf("temp file left behind: %s", e.Name())
			}
		}
	})

	t.Run("fsync error", func(t *testing.T) {
		_, ck, _, _ := newStore(t)
		fault.Activate(fault.NewPlan(map[string]fault.Rule{
			fault.PointStoreFsync: {},
		}))
		t.Cleanup(fault.Deactivate)
		err := ck.Save("tff", []byte("payload"))
		if !errors.Is(err, ErrStore) {
			t.Fatalf("fsync Save error = %v, want ErrStore", err)
		}
		fault.Deactivate()
		if _, ok := ck.Load("tff"); ok {
			t.Fatal("unsynced blob published after fsync failure")
		}
	})

	t.Run("read bit flip", func(t *testing.T) {
		_, ck, corrupt, dir := newStore(t)
		payload := []byte("folded circuit bytes")
		if err := ck.Save("tff", payload); err != nil {
			t.Fatal(err)
		}
		fault.Activate(fault.NewPlan(map[string]fault.Rule{
			fault.PointStoreRead: {},
		}))
		t.Cleanup(fault.Deactivate)
		if got, ok := ck.Load("tff"); ok {
			t.Fatalf("bit-flipped blob returned: %q", got)
		}
		fault.Deactivate()
		if got := corrupt.Value(); got != 1 {
			t.Errorf("%s = %d, want 1", obs.MStoreCorrupt, got)
		}
		if _, err := os.Stat(filepath.Join(dir, "k", "tff"+corruptSuffix)); err != nil {
			t.Errorf("quarantine file missing: %v", err)
		}
	})
}

// TestRunnerStoreCorruptionHeals is the corruption acceptance test at
// the runner level: a finished job's snapshot is corrupted on disk; a
// fresh runner over the same store detects it on resubmission (instead
// of serving garbage), quarantines it, re-folds, and produces the
// bit-identical result.
func TestRunnerStoreCorruptionHeals(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs})
	spec := smokeSpec()
	j1, err := r1.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j1)
	want := encodeJob(t, j1)
	r1.Shutdown(context.Background())

	// Corrupt the final snapshot on disk.
	path := filepath.Join(dir, j1.Key(), finalStage)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs2})
	defer r2.Shutdown(context.Background())
	j2, err := r2.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j2)
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("re-fold over corrupt snapshot = %+v", st)
	}
	if !bytes.Equal(want, encodeJob(t, j2)) {
		t.Error("healed result differs from the original fold")
	}
	if got := r2.Metrics().Counter(obs.MStoreCorrupt).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", obs.MStoreCorrupt, got)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
}

// TestServeOverload429 is the admission-control acceptance test: with
// the single worker wedged and the bounded queue full, the next
// submission fails fast with 429, a Retry-After estimate, and a
// rejection metric — and /readyz reports overloaded so balancers back
// off. Once the wedge clears, every accepted job still completes.
func TestServeOverload429(t *testing.T) {
	gate := make(chan struct{})
	r := NewRunnerWith(RunnerOptions{
		Workers:    1,
		QueueDepth: 2,
		Store:      &gateStore{Store: NewMemStore(), gate: gate},
	})
	defer r.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	// Distinct wall budgets make distinct fold keys: no dedup attach.
	submit := func(i int) map[string]any {
		return map[string]any{
			"generator": "64-adder", "t": 16, "method": MethodFunctional,
			"wall_ms": 600_000 + i,
		}
	}
	var accepted []string
	for i := 0; i < 3; i++ {
		var st Status
		if code := postJSON(t, srv.URL+"/v1/jobs", submit(i), &st); code != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, code)
		}
		accepted = append(accepted, st.ID)
		if i == 0 {
			j, _ := r.Get(st.ID)
			waitRunning(t, j) // wedged in the gate; the queue is now free for 1 and 2
		}
	}

	// Queue full: fast-fail with backpressure hints.
	body, err := json.Marshal(submit(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rej struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %d (%s), want 429", resp.StatusCode, rej.Error)
	}
	if resp.Header.Get("Retry-After") == "" || rej.RetryAfter < 1 {
		t.Errorf("429 missing backpressure hints: header=%q json=%d",
			resp.Header.Get("Retry-After"), rej.RetryAfter)
	}
	if !strings.Contains(rej.Error, "queue full") {
		t.Errorf("429 error = %q", rej.Error)
	}
	if got := r.Metrics().Counter(obs.MJobRejected).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MJobRejected, got)
	}
	var ready map[string]string
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded /readyz = %d, want 503", code)
	}
	if !strings.Contains(ready["reason"], "overloaded") {
		t.Errorf("overloaded /readyz reason = %q", ready["reason"])
	}

	// Clear the wedge: every acknowledged job completes.
	close(gate)
	for _, id := range accepted {
		j, ok := r.Get(id)
		if !ok {
			t.Fatalf("accepted job %s vanished", id)
		}
		wait(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Errorf("accepted job %s = %+v", id, st)
		}
	}
}

// TestJobDeadline covers both deadline paths: a job whose deadline
// expires while queued fails without burning a fold, and a job whose
// deadline expires mid-fold is cut loose at the next cancellation poll
// with its completed stages checkpointed.
func TestJobDeadline(t *testing.T) {
	t.Run("expired in queue", func(t *testing.T) {
		gate := make(chan struct{})
		r := NewRunnerWith(RunnerOptions{
			Workers: 1,
			Store:   &gateStore{Store: NewMemStore(), gate: gate},
		})
		defer r.Shutdown(context.Background())
		leader, err := r.Submit(smokeSpec(), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitRunning(t, leader)
		spec := smokeSpec()
		spec.T = 8
		j, err := r.Submit(spec, SubmitOptions{Deadline: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.DeadlineAt == "" {
			t.Error("status missing deadline_at")
		}
		close(gate)
		wait(t, j)
		st := j.Status()
		if st.State != StateFailed || !strings.Contains(st.Error, "deadline exceeded before start") {
			t.Fatalf("queued-expiry status = %+v", st)
		}
		if got := r.Metrics().Counter(obs.MJobDeadline).Value(); got != 1 {
			t.Errorf("%s = %d, want 1", obs.MJobDeadline, got)
		}
		wait(t, leader)
	})

	t.Run("expired mid-fold", func(t *testing.T) {
		r := NewRunnerWith(RunnerOptions{Workers: 1})
		defer r.Shutdown(context.Background())
		// Big enough that 30ms cannot finish it; the engine polls its
		// context between BDD operations.
		spec := Spec{Generator: "b14_C", T: 8, Method: MethodFunctional, Reorder: true, Minimize: true}
		j, err := r.Submit(spec, SubmitOptions{Deadline: 30 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		st := j.Status()
		if st.State == StateDone {
			t.Skip("b14_C fold finished inside the deadline window on this machine")
		}
		if st.State != StateFailed || !strings.Contains(st.Error, "deadline exceeded") {
			t.Fatalf("mid-fold expiry status = %+v", st)
		}
		if got := r.Metrics().Counter(obs.MJobDeadline).Value(); got != 1 {
			t.Errorf("%s = %d, want 1", obs.MJobDeadline, got)
		}
	})
}

// TestJobDeadlineSparesIdenticalJob: a job's deadline is its own. Of
// two identical submissions queued behind a busy worker, the one whose
// deadline expires in the queue fails, and the one without a deadline
// still folds to the bytes of a cold fold.
func TestJobDeadlineSparesIdenticalJob(t *testing.T) {
	gate := make(chan struct{})
	r := NewRunnerWith(RunnerOptions{
		Workers: 1,
		Store:   &gateStore{Store: NewMemStore(), gate: gate},
	})
	defer r.Shutdown(context.Background())
	busy := smokeSpec()
	busy.T = 8
	blocker, err := r.Submit(busy, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	expiring, err := r.Submit(smokeSpec(), SubmitOptions{Deadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	patient, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	close(gate)
	wait(t, expiring)
	wait(t, patient)
	if st := expiring.Status(); st.State != StateFailed || !strings.Contains(st.Error, "deadline exceeded before start") {
		t.Fatalf("expiring job = %+v, want failed in the queue", st)
	}
	if st := patient.Status(); st.State != StateDone {
		t.Fatalf("job without a deadline = %+v (%s), want done", st, st.Error)
	}

	cold := NewRunnerWith(RunnerOptions{Workers: 1})
	defer cold.Shutdown(context.Background())
	if want, got := encodeJob(t, submitWait(t, cold, smokeSpec())), encodeJob(t, patient); !bytes.Equal(want, got) {
		t.Error("job without a deadline differs from a cold fold")
	}
	wait(t, blocker)
}

// TestServeDeadlineParam checks the HTTP surface of per-job deadlines:
// a malformed or non-positive ?deadline= is a 400 before any work is
// admitted.
func TestServeDeadlineParam(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 1})
	defer r.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	spec := map[string]any{"generator": "64-adder", "t": 16, "method": MethodFunctional}
	for _, q := range []string{"banana", "-5s", "0s"} {
		var body map[string]any
		code := postJSON(t, srv.URL+"/v1/jobs?deadline="+q, spec, &body)
		if code != http.StatusBadRequest {
			t.Errorf("deadline=%q -> %d (%v), want 400", q, code, body)
		}
	}
	var st Status
	if code := postJSON(t, srv.URL+"/v1/jobs?deadline=5m", spec, &st); code != http.StatusAccepted {
		t.Fatalf("deadline=5m -> %d, want 202", code)
	}
	if st.DeadlineAt == "" {
		t.Error("accepted job missing deadline_at")
	}
	j, _ := r.Get(st.ID)
	wait(t, j)
	if s := j.Status(); s.State != StateDone {
		t.Fatalf("deadlined job = %+v", s)
	}
}

// openJournaledRunner starts a one-worker runner over store and the
// journal at jpath, past its (empty) startup recovery.
func openJournaledRunner(t *testing.T, jpath string, store Store) *Runner {
	t.Helper()
	jr, recs := openTestJournal(t, jpath)
	r := NewRunnerWith(RunnerOptions{Workers: 1, Store: store, Journal: jr})
	if n, err := r.Recover(recs); n != 0 || err != nil {
		t.Fatalf("startup recover = %d, %v", n, err)
	}
	return r
}

// fileStore opens a FileStore under dir.
func fileStore(t *testing.T, dir string) *FileStore {
	t.Helper()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// journalSize is the journal file's size in bytes.
func journalSize(t *testing.T, jpath string) int64 {
	t.Helper()
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// benchUpload is a 4-line bench netlist upload, the shape of
// resubmit-hot's upload traffic.
func benchUpload() Spec {
	return Spec{
		Netlist: &Netlist{Format: "bench", Text: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"},
		T:       2,
		Method:  MethodStructural,
	}
}

// TestHitsWriteNoJournal is the journal contract for cache hits: once a
// generator spec and a netlist upload are primed, 1,000 hits through
// Runner.Submit and 1,000 through POST /v1/jobs leave the journal file
// byte-for-byte the same size and journal.records where it was, and
// every hit serves the bytes of its cold fold's GET /result.
func TestHitsWriteNoJournal(t *testing.T) {
	const n = 1000
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	r := openJournaledRunner(t, jpath, fileStore(t, filepath.Join(dir, "ck")))
	defer r.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	specs := []Spec{smokeSpec(), benchUpload()}
	var want [][]byte
	for _, spec := range specs {
		j := submitWait(t, r, spec)
		if st := j.Status(); st.State != StateDone || st.Cache != "miss" {
			t.Fatalf("priming fold = %+v", st)
		}
		want = append(want, getResult(t, j))
	}
	// Each priming fold journals two records; the terminal one lands
	// just after the transition submitWait returns on.
	records := r.Metrics().Counter(obs.MJournalRecords)
	waitFor(t, func() bool { return records.Value() == 2*int64(len(specs)) })
	size := journalSize(t, jpath)
	before := records.Value()

	for i := 0; i < n; i++ {
		j, err := r.Submit(specs[i%2], SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.State != StateDone || st.Cache != "hit" {
			t.Fatalf("Submit hit %d = %+v", i, st)
		}
		if !bytes.Equal(getResult(t, j), want[i%2]) {
			t.Fatalf("Submit hit %d: result differs from the cold fold", i)
		}
	}
	for i := 0; i < n; i++ {
		var st Status
		if code := postJSON(t, srv.URL+"/v1/jobs", specs[i%2], &st); code != http.StatusAccepted {
			t.Fatalf("POST hit %d = %d", i, code)
		}
		if st.State != StateDone || st.Cache != "hit" {
			t.Fatalf("POST hit %d = %+v", i, st)
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET hit %d result = %d, %v", i, resp.StatusCode, err)
		}
		if !bytes.Equal(body, want[i%2]) {
			t.Fatalf("POST hit %d: result differs from the cold fold", i)
		}
	}
	if got := journalSize(t, jpath); got != size {
		t.Errorf("%d hits grew the journal from %d to %d bytes", 2*n, size, got)
	}
	if got := records.Value(); got != before {
		t.Errorf("%s moved from %d to %d over %d hits", obs.MJournalRecords, before, got, 2*n)
	}
}

// TestKillMidHitStreamRecoversNothing: a crash partway through a stream
// of hits leaves no pending work, so recovery re-enqueues nothing.
func TestKillMidHitStreamRecoversNothing(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	ckDir := filepath.Join(dir, "ck")
	r := openJournaledRunner(t, jpath, fileStore(t, ckDir))
	submitWait(t, r, smokeSpec())

	var hits atomic.Int64
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			if _, err := r.Submit(smokeSpec(), SubmitOptions{}); err != nil {
				if !errors.Is(err, ErrShutdown) {
					t.Error(err)
				}
				return
			}
			hits.Add(1)
		}
	}()
	waitFor(t, func() bool { return hits.Load() >= 100 })
	r.Kill()
	<-stopped
	t.Logf("killed after %d hits", hits.Load())

	jr, recs := openTestJournal(t, jpath)
	if pending := PendingJobs(recs); len(pending) != 0 {
		t.Fatalf("%d jobs pending after a hit stream, want 0", len(pending))
	}
	r2 := NewRunnerWith(RunnerOptions{Workers: 1, Store: fileStore(t, ckDir), Journal: jr})
	defer r2.Shutdown(context.Background())
	if n, err := r2.Recover(recs); n != 0 || err != nil {
		t.Fatalf("Recover = %d, %v; want 0 jobs re-enqueued", n, err)
	}
}

// TestColdJobJournal: a cold job journals exactly its submission (with
// the spec) and its terminal record, in that order.
func TestColdJobJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.wal")
	r := openJournaledRunner(t, jpath, NewMemStore())
	j := submitWait(t, r, smokeSpec())
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.journal.Load().Close()

	_, recs := openTestJournal(t, jpath)
	if len(recs) != 2 {
		t.Fatalf("cold job journaled %d records (%+v), want submitted + done", len(recs), recs)
	}
	if recs[0].Op != OpSubmitted || recs[0].ID != j.ID() || recs[0].Spec == nil {
		t.Errorf("record 0 = %+v, want %s submitted with its spec", recs[0], j.ID())
	}
	if recs[1].Op != OpDone || recs[1].ID != j.ID() {
		t.Errorf("record 1 = %+v, want %s done", recs[1], j.ID())
	}
}

// TestCompactionKeepsConcurrentColdSubmits races cold submits against
// back-to-back journal compactions, then crashes the runner right after
// the last compaction: every acknowledged job — none has a terminal
// record, the single worker is wedged — must be pending in the journal
// that survives, whichever file its submit record first went to.
func TestCompactionKeepsConcurrentColdSubmits(t *testing.T) {
	const submitters, compactions = 4, 50
	jpath := filepath.Join(t.TempDir(), "journal.wal")
	gate := make(chan struct{})
	jr, _ := openTestJournal(t, jpath)
	r := NewRunnerWith(RunnerOptions{
		Workers: 1, QueueDepth: 100_000,
		Store:   &gateStore{Store: NewMemStore(), gate: gate},
		Journal: jr,
	})
	if _, err := r.Recover(nil); err != nil {
		t.Fatal(err)
	}

	// The submitters stop when the compactions do, so no compaction
	// runs after the last submit to rewrite what an earlier one lost.
	var done atomic.Bool
	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				j, err := r.Submit(smokeSpec(), SubmitOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, j.ID())
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < compactions; i++ {
		r.compactJournal()
	}
	done.Store(true)
	wg.Wait()
	t.Logf("%d submits during %d compactions", len(acked), compactions)

	// Crash: detach the journal, then let the wedged worker drain.
	killed := make(chan struct{})
	go func() {
		r.Kill()
		close(killed)
	}()
	for r.journal.Load() != nil {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-killed

	jr2, recs := openTestJournal(t, jpath)
	defer jr2.Close()
	pending := map[string]bool{}
	for _, rec := range PendingJobs(recs) {
		pending[rec.ID] = true
	}
	for _, id := range acked {
		if !pending[id] {
			t.Errorf("acknowledged job %s is not pending in the journal", id)
		}
	}
}

// expireJob submits a job whose deadline has passed by the time a
// worker dequeues it: a cold submission that journals two records and
// ends without folding.
func expireJob(t *testing.T, r *Runner) *Job {
	t.Helper()
	spec := smokeSpec()
	spec.T = 8
	j, err := r.Submit(spec, SubmitOptions{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJournalCompactsAtRunTime streams cold jobs through a runner and
// checks that the journal stays bounded: a worker compacts it once
// compactEvery terminal records have piled up, long before a restart.
func TestJournalCompactsAtRunTime(t *testing.T) {
	const jobs = 2*compactEvery + 200
	jpath := filepath.Join(t.TempDir(), "journal.wal")
	r := openJournaledRunner(t, jpath, NewMemStore())
	defer r.Shutdown(context.Background())

	var perJob, peak int64
	for i := 0; i < jobs; i++ {
		j := expireJob(t, r)
		wait(t, j)
		if st := j.Status(); st.State != StateFailed {
			t.Fatalf("job %s = %+v, want failed in the queue", j.ID(), st)
		}
		if i == 0 {
			// The first job's records, with slack for longer IDs and
			// timestamps later on. Its terminal record is appended just
			// after the transition wait returns on.
			waitFor(t, func() bool { return r.Metrics().Counter(obs.MJournalRecords).Value() == 2 })
			perJob = journalSize(t, jpath) - int64(len(journalMagic)) + 16
		}
		peak = max(peak, journalSize(t, jpath))
	}
	// A few jobs may finish between a compaction coming due and the
	// worker running it.
	if bound := int64(len(journalMagic)) + (compactEvery+64)*perJob; peak > bound {
		t.Errorf("journal peaked at %d bytes over %d cold jobs, want <= %d", peak, jobs, bound)
	}
}

// TestRecoverAfterRunTimeCompaction crashes a runner right after a
// worker compacted the journal mid-run: the jobs still queued or
// running at the compaction survive it and are all recovered.
func TestRecoverAfterRunTimeCompaction(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	gate := make(chan struct{})
	r := openJournaledRunner(t, jpath, &gateStore{Store: NewMemStore(), gate: gate})
	for i := 0; i < compactEvery; i++ {
		wait(t, expireJob(t, r))
	}
	before, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// The next terminal record makes compaction due; a and b are queued
	// behind it, and a then wedges the worker in the store gate.
	expireJob(t, r)
	specB := smokeSpec()
	specB.T = 32
	var live []*Job
	for _, spec := range []Spec{smokeSpec(), specB} {
		j, err := r.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, j)
	}
	waitFor(t, func() bool {
		now, err := os.Stat(jpath)
		return err == nil && !os.SameFile(before, now)
	})
	waitRunning(t, live[0])

	killed := make(chan struct{})
	go func() {
		r.Kill()
		close(killed)
	}()
	for r.journal.Load() != nil {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-killed

	jr, recs := openTestJournal(t, jpath)
	pending := PendingJobs(recs)
	if len(pending) != 2 || len(recs) != 2 {
		t.Fatalf("after run-time compaction: %d records, %d pending; want the 2 live jobs", len(recs), len(pending))
	}
	r2 := NewRunnerWith(RunnerOptions{Workers: 1, Journal: jr})
	defer r2.Shutdown(context.Background())
	if n, err := r2.Recover(recs); n != 2 || err != nil {
		t.Fatalf("Recover = %d, %v; want 2", n, err)
	}
	for _, j := range r2.Jobs() {
		wait(t, j)
		if st := j.Status(); st.State != StateDone || !st.Recovered {
			t.Errorf("recovered job %s = %+v", j.ID(), st)
		}
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
