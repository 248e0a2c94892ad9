package job

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"circuitfold"
	"circuitfold/internal/core"
)

// postJSON posts a value and decodes the JSON response into out.
func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServeSmoke is the end-to-end service check (the make serve-smoke
// target): a real HTTP server over a runner, a 64-adder T=16 fold
// submitted as JSON, polled to completion, and the result fetched and
// diffed against the same fold run in-process.
func TestServeSmoke(t *testing.T) {
	runner := NewRunnerWith(RunnerOptions{Workers: 2})
	defer runner.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(runner))
	defer srv.Close()

	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	var st Status
	if code := postJSON(t, srv.URL+"/v1/jobs", smokeSpec(), &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d (%+v)", code, st)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit status = %+v", st)
	}

	// Poll to completion.
	deadline := time.After(2 * time.Minute)
	for st.State == StateQueued || st.State == StateRunning {
		select {
		case <-deadline:
			t.Fatalf("job stuck in %s", st.State)
		case <-time.After(10 * time.Millisecond):
		}
		if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID, &st); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
	}
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	// The served result is bit-identical to an in-process fold.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d, %v", resp.StatusCode, err)
	}
	served, err := core.DecodeResult(data)
	if err != nil {
		t.Fatalf("decode served result: %v", err)
	}
	g, err := circuitfold.Benchmark("64-adder")
	if err != nil {
		t.Fatal(err)
	}
	spec := smokeSpec()
	local, err := circuitfold.Functional(g, spec.T, spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripReport(served), stripReport(local)) {
		t.Fatal("served result differs from the in-process fold")
	}
	if err := circuitfold.VerifyFast(g, served, 2); err != nil {
		t.Fatalf("served result fails verification: %v", err)
	}

	// Alternate result formats.
	for _, format := range []string{"aag", "blif"} {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(text) == 0 {
			t.Errorf("result format %s: %d, %d bytes", format, resp.StatusCode, len(text))
		}
	}

	// The report carries the stage trace.
	var rep struct {
		Stages []struct {
			Name string `json:"name"`
		} `json:"stages"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/report", &rep); code != http.StatusOK {
		t.Fatalf("report = %d", code)
	}
	if len(rep.Stages) == 0 {
		t.Error("report has no stages")
	}

	// The event stream replays the fold's spans (the job is done, so
	// the stream ends quickly).
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		lines++
	}
	resp.Body.Close()
	if lines == 0 {
		t.Error("event stream replayed nothing")
	}

	// Job list and daemon metrics (OpenMetrics text).
	var list []Status
	if code := getJSON(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("list = %d, %d jobs", code, len(list))
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(om), "foldd_job_done_total 1") {
		t.Errorf("metrics = %d: %s", resp.StatusCode, om)
	}
}

func TestServeNetlistUpload(t *testing.T) {
	runner := NewRunnerWith(RunnerOptions{Workers: 1})
	defer runner.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(runner))
	defer srv.Close()

	// A 4-bit AND-reduce as a BENCH upload, folded 2x structurally.
	spec := Spec{
		Netlist: &Netlist{Format: "bench", Text: strings.Join([]string{
			"INPUT(a)", "INPUT(b)", "INPUT(c)", "INPUT(d)",
			"OUTPUT(y)",
			"ab = AND(a, b)", "cd = AND(c, d)", "y = AND(ab, cd)", "",
		}, "\n")},
		T:      2,
		Method: MethodStructural,
	}
	var st Status
	if code := postJSON(t, srv.URL+"/v1/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	j, ok := runner.Get(st.ID)
	if !ok {
		t.Fatal("job not found in runner")
	}
	wait(t, j)
	if got := j.Status(); got.State != StateDone {
		t.Fatalf("state = %s (%s)", got.State, got.Error)
	}
	if got := j.Status(); got.InputPins != 2 {
		t.Errorf("folded pins = %d, want 2", got.InputPins)
	}
}

func TestServeErrors(t *testing.T) {
	runner := NewRunnerWith(RunnerOptions{Workers: 1})
	srv := httptest.NewServer(Handler(runner))
	defer srv.Close()

	var e map[string]string
	if code := postJSON(t, srv.URL+"/v1/jobs", Spec{T: 2}, &e); code != http.StatusBadRequest || e["error"] == "" {
		t.Errorf("invalid spec: %d %v", code, e)
	}
	if code := postJSON(t, srv.URL+"/v1/jobs", map[string]any{"bogus_field": 1}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/j9999", &e); code != http.StatusNotFound {
		t.Errorf("missing job: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/j9999/result", &e); code != http.StatusNotFound {
		t.Errorf("missing result: %d", code)
	}

	// A queued-then-canceled job has no result.
	j, err := runner.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	var canceled Status
	if code := postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/cancel", srv.URL, j.ID()), nil, &canceled); code != http.StatusOK {
		t.Errorf("cancel done job: %d", code)
	}

	// After shutdown, submissions are refused with 503.
	runner.Shutdown(context.Background())
	if code := postJSON(t, srv.URL+"/v1/jobs", smokeSpec(), &e); code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d %v", code, e)
	}
}
