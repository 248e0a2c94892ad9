package job

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"circuitfold/internal/fault"
	"circuitfold/internal/obs"
)

// syncBuffer is a goroutine-safe log destination for tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeFlightRecorder is the telemetry acceptance path, end to end
// through the HTTP API: a fault-injected fold fails, and the daemon
// serves a self-contained flight-recorder artifact holding the spans,
// the final metric snapshot, and the correlated log records leading up
// to the failure.
func TestServeFlightRecorder(t *testing.T) {
	fault.Activate(fault.NewPlan(map[string]fault.Rule{
		fault.PointBDDMk: {Mode: fault.Error, After: 100},
	}))
	t.Cleanup(fault.Deactivate)

	logBuf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(logBuf, nil))
	runner := NewRunnerWith(RunnerOptions{Workers: 1, Logger: logger})
	defer runner.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(runner))
	defer srv.Close()

	var st Status
	if code := postJSON(t, srv.URL+"/v1/jobs", smokeSpec(), &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	j, ok := runner.Get(st.ID)
	if !ok {
		t.Fatal("job not in runner")
	}
	wait(t, j)
	if got := j.Status(); got.State != StateFailed {
		t.Fatalf("fault-injected job finished %s, want failed", got.State)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrec = %d: %s", resp.StatusCode, data)
	}
	var rec obs.FlightRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("flight record is not valid JSON: %v", err)
	}
	if rec.Meta["job_id"] != st.ID || rec.Meta["reason"] != "failed" {
		t.Errorf("meta = %v", rec.Meta)
	}
	if rec.Meta["error"] == nil {
		t.Error("meta carries no error")
	}
	if len(rec.Spans) == 0 {
		t.Error("flight record has no spans")
	}
	if len(rec.Metrics) == 0 {
		t.Error("flight record has no metrics snapshot")
	}
	found := false
	for _, lr := range rec.Logs {
		if lr.Attrs["job_id"] == st.ID {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no log record correlated with %s: %+v", st.ID, rec.Logs)
	}
	// The same correlated lines reached the process log stream.
	if out := logBuf.String(); !strings.Contains(out, `"job_id":"`+st.ID+`"`) ||
		!strings.Contains(out, `"msg":"job failed"`) {
		t.Errorf("process log missing correlated failure line:\n%s", out)
	}

	// The process exposition counted the failure and the dump.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"foldd_job_failed_total 1", "foldd_flight_dumps_total 1"} {
		if !strings.Contains(string(om), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestServeOpenMetrics checks the exposition contract on a healthy
// job: content type, per-stage latency histograms, HTTP accounting,
// and the OpenMetrics terminator.
func TestServeOpenMetrics(t *testing.T) {
	runner := NewRunnerWith(RunnerOptions{Workers: 1})
	defer runner.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(runner))
	defer srv.Close()

	var st Status
	if code := postJSON(t, srv.URL+"/v1/jobs", smokeSpec(), &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	j, _ := runner.Get(st.ID)
	wait(t, j)
	if got := j.Status(); got.State != StateDone {
		t.Fatalf("job finished %s: %s", got.State, got.Error)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE foldd_job_submitted counter",
		"foldd_job_submitted_total 1",
		"foldd_job_done_total 1",
		"# TYPE foldd_job_run_seconds histogram",
		"foldd_job_run_seconds_bucket{le=\"+Inf\"} 1",
		"foldd_job_queue_wait_count 1",
		"# TYPE foldd_http_requests counter",
		"# TYPE foldd_stage_schedule_seconds histogram",
		"# EOF\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Error("exposition does not end with # EOF")
	}
}

// TestServeReadiness splits the probes: liveness always answers,
// readiness turns 503 with a reason once the runner stops accepting.
func TestServeReadiness(t *testing.T) {
	runner := NewRunnerWith(RunnerOptions{Workers: 1})
	srv := httptest.NewServer(Handler(runner))
	defer srv.Close()

	var probe map[string]string
	if code := getJSON(t, srv.URL+"/readyz", &probe); code != http.StatusOK || probe["status"] != "ready" {
		t.Errorf("readyz = %d %v", code, probe)
	}
	runner.Shutdown(context.Background())
	if code := getJSON(t, srv.URL+"/readyz", &probe); code != http.StatusServiceUnavailable || probe["reason"] == "" {
		t.Errorf("readyz after shutdown = %d %v, want 503 with reason", code, probe)
	}
	// Liveness is about the process, not the runner.
	if code := getJSON(t, srv.URL+"/healthz", &probe); code != http.StatusOK {
		t.Errorf("healthz after shutdown = %d", code)
	}
}

// TestServeProfileCapture submits with ?profile=heap and downloads the
// captured pprof artifact once the job is terminal.
func TestServeProfileCapture(t *testing.T) {
	runner := NewRunnerWith(RunnerOptions{Workers: 1})
	defer runner.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(runner))
	defer srv.Close()

	var e map[string]string
	if code := postJSON(t, srv.URL+"/v1/jobs?profile=goroutines", smokeSpec(), &e); code != http.StatusBadRequest {
		t.Errorf("bad profile kind = %d", code)
	}

	var st Status
	if code := postJSON(t, srv.URL+"/v1/jobs?profile=heap", smokeSpec(), &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	j, _ := runner.Get(st.ID)
	wait(t, j)
	if got := j.Status(); got.State != StateDone {
		t.Fatalf("job finished %s: %s", got.State, got.Error)
	}
	// The profile is captured before the terminal transition: a client
	// woken by it finds the profile at once.
	if _, _, ok := j.Profile(); !ok {
		t.Fatal("profile not captured by the time the job is done")
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(data) == 0 {
		t.Fatalf("profile = %d, %d bytes", resp.StatusCode, len(data))
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "heap.pprof") {
		t.Errorf("content disposition = %q", cd)
	}

	// A job without a requested profile 404s.
	var st2 Status
	if code := postJSON(t, srv.URL+"/v1/jobs", smokeSpec(), &st2); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	j2, _ := runner.Get(st2.ID)
	wait(t, j2)
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st2.ID+"/profile", &e); code != http.StatusNotFound {
		t.Errorf("profile without capture = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st2.ID+"/flightrec", &e); code != http.StatusNotFound {
		t.Errorf("flightrec on healthy job = %d", code)
	}
}

// TestJobIDFromPath pins the access-log correlation parser.
func TestJobIDFromPath(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/jobs/j0007":           "j0007",
		"/v1/jobs/j0007/flightrec": "j0007",
		"/v1/jobs":                 "",
		"/healthz":                 "",
		"/metrics":                 "",
	} {
		if got := jobIDFromPath(path); got != want {
			t.Errorf("jobIDFromPath(%q) = %q, want %q", path, got, want)
		}
	}
}
