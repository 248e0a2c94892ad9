package job

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"circuitfold/internal/cio"
	"circuitfold/internal/core"
	"circuitfold/internal/obs"
)

// maxSpecBytes bounds an uploaded job spec (netlist text included).
const maxSpecBytes = 32 << 20

// Server exposes a Runner over HTTP/JSON:
//
//	POST /v1/jobs                submit a Spec (?profile=cpu|heap, ?deadline=30s), returns its Status;
//	                             429 + Retry-After when the admission queue is full
//	GET  /v1/jobs                list job statuses
//	GET  /v1/jobs/{id}           one job's Status
//	POST /v1/jobs/{id}/cancel    cancel a job
//	GET  /v1/jobs/{id}/result    the folded circuit (?format=json|aag|blif)
//	GET  /v1/jobs/{id}/report    the per-stage pipeline report
//	GET  /v1/jobs/{id}/events    live span stream (SSE; ?format=jsonl)
//	GET  /v1/jobs/{id}/metrics   the job's metrics snapshot
//	GET  /v1/jobs/{id}/flightrec the job's flight-recorder artifact
//	GET  /v1/jobs/{id}/profile   the job's captured pprof profile
//	GET  /healthz                liveness (the process is up)
//	GET  /readyz                 readiness (the runner accepts jobs)
//
// It implements http.Handler; wire it into any http.Server.
type Server struct {
	runner *Runner
	mux    *http.ServeMux
}

// NewServer wraps runner in the HTTP API.
func NewServer(runner *Runner) *Server {
	s := &Server{runner: runner, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.cancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.report)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.jobMetrics)
	s.mux.HandleFunc("GET /v1/jobs/{id}/flightrec", s.flightrec)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profile", s.profile)
	// Liveness is unconditional: the handler answering is the signal.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Readiness gates traffic: a recovering (startup journal replay),
	// overloaded (queue near capacity), draining or shut-down runner
	// answers 503 with the reason so load balancers stop routing
	// submissions until the runner can take them.
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if ready, reason := s.runner.Ready(); !ready {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"status": "unready", "reason": reason})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// httpError is the uniform error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// jobOf resolves the {id} path value, writing the 404 itself.
func (s *Server) jobOf(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.runner.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", id)
	}
	return j, ok
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decode spec: %v", err)
		return
	}
	so := SubmitOptions{Profile: r.URL.Query().Get("profile")}
	if dl := r.URL.Query().Get("deadline"); dl != "" {
		d, err := time.ParseDuration(dl)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest,
				"bad deadline %q (want a positive Go duration, e.g. 30s)", dl)
			return
		}
		so.Deadline = d
	}
	j, err := s.runner.Submit(spec, so)
	if err != nil {
		var qf *QueueFullError
		switch {
		case errors.As(err, &qf):
			// Admission rejection: tell the client when to come back.
			// The estimate rounds up so "Retry-After: 0" never happens.
			secs := int((qf.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":               err.Error(),
				"retry_after_seconds": secs,
			})
		case errors.Is(err, ErrShutdown):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	jobs := s.runner.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobOf(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOf(w, r)
	if !ok {
		return
	}
	s.runner.Cancel(j.ID())
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOf(w, r)
	if !ok {
		return
	}
	// The json body is the job's encoded result as it is; the netlist
	// formats decode a private copy.
	data, err := j.resultBytes()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case "aag", "blif":
		res, err := core.DecodeResult(data)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "decode: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if format == "aag" {
			err = cio.WriteAAG(w, res.Seq)
		} else {
			err = cio.WriteBLIF(w, res.Seq, "fold_"+j.ID())
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, "write %s: %v", format, err)
		}
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want json, aag or blif)", format)
	}
}

func (s *Server) report(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOf(w, r)
	if !ok {
		return
	}
	res, err := j.Result()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res.Report)
}

func (s *Server) jobMetrics(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobOf(w, r); ok {
		writeJSON(w, http.StatusOK, j.Metrics().Snapshot())
	}
}

// flightrec serves the job's flight-recorder artifact: the JSON black
// box dumped when the job failed, recovered a panic, or degraded.
func (s *Server) flightrec(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOf(w, r)
	if !ok {
		return
	}
	data, ok := j.FlightRecord()
	if !ok {
		httpError(w, http.StatusNotFound, "job %s has no flight record", j.ID())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// profile serves the pprof profile captured for the job (requested
// with ?profile=cpu|heap at submit), in the binary pprof format that
// `go tool pprof` reads.
func (s *Server) profile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOf(w, r)
	if !ok {
		return
	}
	kind, data, ok := j.Profile()
	if !ok {
		httpError(w, http.StatusNotFound, "job %s has no profile", j.ID())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-%s.pprof", j.ID(), kind))
	w.Write(data)
}

// events streams the job's spans. The default is Server-Sent Events
// ("data: {span}\n\n" frames); ?format=jsonl streams plain JSON
// lines. Either way the stream replays recent history, follows the
// live fold, and ends when the job finishes or the client leaves.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOf(w, r)
	if !ok {
		return
	}
	jsonl := r.URL.Query().Get("format") == "jsonl"
	if jsonl {
		w.Header().Set("Content-Type", "application/jsonl")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ch, cancel := j.Events(512)
	defer cancel()
	for {
		select {
		case e, open := <-ch:
			if !open {
				return // job finished
			}
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			if jsonl {
				fmt.Fprintf(w, "%s\n", data)
			} else {
				fmt.Fprintf(w, "data: %s\n\n", data)
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// Handler is the daemon's full HTTP surface: the job API plus the
// process-level OpenMetrics exposition at /metrics, all behind the
// access-log middleware recording request counts, latency and a
// correlated structured log line per request. Exposed as a helper so
// cmd/foldd and tests build identical servers.
func Handler(runner *Runner) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", NewServer(runner))
	// Prometheus/OpenMetrics text exposition of the process registry:
	// lifecycle counters, queue/run latency histograms, per-stage
	// timings aggregated across jobs. Per-job snapshots stay under
	// /v1/jobs/{id}/metrics.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg := runner.Metrics()
		reg.Gauge(obs.MJobQueueDepth).Set(int64(len(runner.queue)))
		w.Header().Set("Content-Type", obs.OpenMetricsContentType)
		_ = reg.WriteOpenMetrics(w, "foldd_")
	})
	return accessLog(mux, runner)
}

// statusWriter captures the response code (and preserves streaming:
// Flush passes through for the SSE event route).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// jobIDFromPath extracts the {id} segment of /v1/jobs/{id}[/...] so
// access-log lines correlate with the job's own log stream. The probe
// and list routes return "".
func jobIDFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/jobs/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// accessLog wraps next with request accounting: the http.requests
// counter and http.request_seconds histogram in the runner's process
// registry, plus one structured log line per request carrying the
// job_id when the path names a job.
func accessLog(next http.Handler, runner *Runner) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		runner.metrics.Counter(obs.MHTTPRequests).Add(1)
		runner.metrics.Timing(obs.MHTTPSeconds).Observe(dur)
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Float64("seconds", dur.Seconds()),
		}
		if id := jobIDFromPath(r.URL.Path); id != "" {
			attrs = append(attrs, slog.String("job_id", id))
		}
		runner.log.Info("http request", attrs...)
	})
}
