// Command foldd is the fold daemon: circuit folding as a service over
// HTTP/JSON. Clients submit fold jobs — a built-in benchmark generator
// or an uploaded AIGER/BLIF/BENCH netlist, plus the folding number,
// method and engine knobs — and the daemon runs them on a bounded
// worker pool with per-stage checkpointing, live span streaming, and
// graceful drain on SIGTERM.
//
// Usage:
//
//	foldd [-addr :8080] [-workers 4] [-checkpoint-dir DIR]
//	      [-queue-depth 1024] [-drain-timeout 30s]
//	      [-log-level info] [-log-format text] [-pprof]
//
// With -checkpoint-dir, the functional schedule, tff and minimize
// stages snapshot into a file-backed, checksummed store, each under the
// content address of what it read, and each job's result under its
// spec's content hash: a job killed mid-fold (crash, deadline, SIGTERM
// past the drain window) resumes at the last completed stage when the
// same spec — or any fold agreeing with it up to that stage — is
// submitted to this process or a restarted one, and produces a
// bit-identical Result. The same directory holds the job journal
// (journal.wal): every accepted submission is fsynced to it before the
// daemon acknowledges, and on startup the daemon replays the journal,
// re-enqueueing every job that was queued or running at crash time
// (/readyz answers 503 "recovering" until the replay finishes).
// Without -checkpoint-dir, checkpoints live in memory, there is no
// journal, and state dies with the process.
//
// Overload protection: the admission queue is bounded (-queue-depth);
// at capacity, submissions fail fast with 429 and a Retry-After
// estimate instead of queueing unboundedly, and /readyz reports
// "overloaded" from 90% occupancy so load balancers back off first.
// Clients can bound a job's total latency with ?deadline=30s on
// submit.
//
// Telemetry: every log line is structured (text or JSON via
// -log-format) and lines about a job carry its job_id and content key;
// /metrics serves the process registry as OpenMetrics text; each job
// keeps a flight recorder whose artifact is served after a failure;
// -pprof exposes net/http/pprof under /debug/pprof/ and ?profile=cpu
// or heap on submit captures a per-job profile.
//
// API (see internal/job for the spec schema):
//
//	POST /v1/jobs                submit a job (?profile=cpu|heap)
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}           job status
//	POST /v1/jobs/{id}/cancel    cancel
//	GET  /v1/jobs/{id}/result    folded circuit (?format=json|aag|blif)
//	GET  /v1/jobs/{id}/report    per-stage pipeline report
//	GET  /v1/jobs/{id}/events    live span stream (SSE; ?format=jsonl)
//	GET  /v1/jobs/{id}/metrics   job metrics snapshot
//	GET  /v1/jobs/{id}/flightrec flight-recorder artifact
//	GET  /v1/jobs/{id}/profile   captured pprof profile
//	GET  /healthz, /readyz       liveness and readiness
//	GET  /metrics                OpenMetrics exposition
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"circuitfold/internal/job"
	"circuitfold/internal/obs"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		workers    = flag.Int("workers", 4, "concurrent fold jobs")
		ckDir      = flag.String("checkpoint-dir", "", "file-backed checkpoint store + journal directory (empty: in-memory, no journal)")
		queueDepth = flag.Int("queue-depth", 0, "admission queue capacity; submissions past it fail fast with 429 (0: default 1024)")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before checkpoint-and-cancel")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log format: text or json")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		slog.Error("foldd: bad logging flags", "err", err.Error())
		os.Exit(1)
	}
	slog.SetDefault(logger)

	var store job.Store
	var journal *job.Journal
	var journalRecs []job.JournalRecord
	if *ckDir != "" {
		fs, err := job.NewFileStore(*ckDir)
		if err != nil {
			logger.Error("foldd: checkpoint store", "err", err.Error())
			os.Exit(1)
		}
		store = fs
		logger.Info("checkpoints enabled", "dir", fs.Dir())
		journal, journalRecs, err = job.OpenJournal(filepath.Join(*ckDir, "journal.wal"))
		if err != nil {
			logger.Error("foldd: job journal", "err", err.Error())
			os.Exit(1)
		}
		if tb := journal.TruncatedBytes(); tb > 0 {
			logger.Warn("journal torn tail truncated", "bytes", tb)
		}
		logger.Info("journal opened", "path", journal.Path(), "records", len(journalRecs))
	}
	runner := job.NewRunnerWith(job.RunnerOptions{
		Workers:    *workers,
		Store:      store,
		Logger:     logger,
		QueueDepth: *queueDepth,
		Journal:    journal,
	})

	handler := job.Handler(runner)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *workers,
		"log_level", *logLevel, "log_format", *logFormat)

	// Startup recovery runs after the listener is up so /healthz and
	// /readyz answer during the replay — readiness stays 503
	// ("recovering") until Recover returns, keeping load balancers away
	// while the crash backlog re-enqueues.
	if journal != nil {
		n, err := runner.Recover(journalRecs)
		if err != nil {
			logger.Warn("journal replay incomplete", "err", err.Error())
		}
		logger.Info("journal replayed", "records", len(journalRecs), "recovered_jobs", n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Error("server failed", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: finish in-flight jobs within the window; past it
	// they are cancelled with their completed stages checkpointed, so
	// a restart resumes them. The runner drains first (finished jobs
	// close their event streams, /readyz turns 503), then the HTTP
	// server.
	logger.Info("draining", "timeout", drain.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := runner.Shutdown(dctx); err != nil {
		logger.Warn("drain deadline hit; in-flight jobs checkpointed", "err", err.Error())
	}
	if err := srv.Shutdown(dctx); err != nil {
		srv.Close()
	}
	if journal != nil {
		journal.Close()
	}
	logger.Info("stopped")
}
