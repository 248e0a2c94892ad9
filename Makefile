# Tier-1 verification plus the extended race/vet gate, and the sweeping
# engine's benchmark artifact.

GO ?= go

.PHONY: build test foldbench-test verify race vet faults table3 bench bench-go bench-bdd-smoke bench-fold-smoke bench-throughput-smoke bench-compare serve-smoke fuzz-smoke chaos trace clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# foldbench is a nested module that the root go test ./... never
# builds; testing it here catches an API change that breaks it before
# CI does (CI runs the same command).
foldbench-test:
	cd foldbench && $(GO) test ./...

# The engine's concurrent packages run under the race detector: the
# parallel simulation kernel and solver shards spawn goroutines even on a
# single-CPU host, so this catches data races regardless of GOMAXPROCS.
# The observability layer and the pipeline's span plumbing are included
# because spans and metrics are updated from worker goroutines; core runs
# in -short mode (its full Table III verification takes minutes under the
# race detector).
race:
	$(GO) test -race ./internal/aig/... ./internal/sat/... ./internal/pipeline/... ./internal/obs/... ./internal/job/...
	$(GO) test -race -short ./internal/core/...

# faults runs the resilience suite under the race detector: the fault
# matrix (injected panics at every registered point), the degradation
# ladder, the error taxonomy, the fault-driven abort scenarios, and the
# fault/pipeline unit tests. Fault plans are process-global, so these
# tests are serial by design; -race proves the recover boundaries and
# hard caps stay clean when sweeps and solver shards are in flight.
faults:
	$(GO) test -race -run 'Fault|Resilient|Taxonomy' -v .
	$(GO) test -race ./internal/fault/... ./internal/pipeline/...

# verify = tier-1 (build + test) plus the benchmark module's tests,
# vet, the race gate, the resilience suite, the fold-service smoke, and
# the shared-work throughput smoke.
verify: build test foldbench-test vet race faults serve-smoke bench-throughput-smoke

# serve-smoke is the fold-service PR gate, under the race detector: it
# builds cmd/foldd, then drives a real HTTP server end to end — a
# 64-adder T=16 fold submitted as a job, polled to completion, its
# result diffed bit-for-bit against the same fold run in-process — plus
# the daemon-restart kill-and-resume path, the SIGTERM drain
# semantics, the goroutine-leak check around server start/stop, the
# telemetry surface (OpenMetrics exposition, readiness, the
# fault-injected flight-recorder dump, per-job profile capture), and
# the durability layer (journal recovery incl. the /readyz recovering
# state, checksummed-store quarantine/heal and fault points, overload
# 429 admission control, and per-job deadlines).
serve-smoke:
	$(GO) build ./cmd/foldd
	$(GO) test -race -run 'ServeSmoke|KillAndResume|Shutdown|GoroutineLeak|ServeFlightRecorder|ServeOpenMetrics|ServeReadiness|ServeProfile|Journal|Recover|Quarantine|FaultPoints|CorruptionHeals|Overload|Deadline|NoLeak' -v ./internal/job/

# fuzz-smoke runs each fuzzer past its seed corpus for 10 s: the BDD
# kernel against truth tables, the degradation ladder under injected
# faults, the machine checkpoint decoder against arbitrary blobs, the
# uploaded-netlist readers (aag, blif, bench) against arbitrary text,
# state encoding against its per-transition reference, and the fold
# service's final-snapshot header parse against arbitrary bytes.
# go test -fuzz takes one target per package, hence one line each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBDDOps$$' -fuzztime 10s ./internal/bdd
	$(GO) test -run '^$$' -fuzz '^FuzzFoldResilient$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMachine$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadNetlist$$' -fuzztime 10s ./internal/cio
	$(GO) test -run '^$$' -fuzz '^FuzzEncode$$' -fuzztime 10s ./internal/fsm
	$(GO) test -run '^$$' -fuzz '^FuzzParseFinal$$' -fuzztime 10s ./internal/job

# chaos is the crash-safety gate, under the race detector: 20 rounds of
# recover -> submit -> kill over one persistent journal + checkpoint
# store, with periodic on-disk bit-flips, then a final recovery that
# must drain every acknowledged job to a result bit-identical to an
# uninterrupted fold, and must detect + quarantine a corrupted snapshot
# (store.corrupt metric). CHAOS_SEED reproduces a failing schedule;
# CHAOS_DIR keeps the journal and store on disk for CI artifacts.
chaos:
	CHAOS_ROUNDS=20 $(GO) test -race -run 'Chaos' -v -timeout 600s ./internal/job/

# table3 regenerates the paper's Table III and Figure 7 over every
# circuit and folding number: each row folds its 9 configurations as
# job specs on an in-process fold runner. It runs for many minutes (the
# minimize configurations of apex2 and i3 spend their whole MeMin
# conflict budget), so verify leaves it out.
table3:
	$(GO) run ./cmd/experiments -table 3 -fig 7

# bench emits BENCH_sweep.json (ns/op, SAT calls, merges, conflicts for
# the sweeping configurations), BENCH_pipeline.json (per-stage fold
# timings for every benchmark circuit), BENCH_bdd.json (BDD kernel
# micro ops/sec plus build-and-sift times on Table III circuits),
# BENCH_serve.json (fold-service jobs/sec and p50/p99 latency at client
# concurrency 1, 8 and 64), and BENCH_throughput.json (shared-work
# runner throughput, cold vs warm-cache); see cmd/bench.
bench:
	$(GO) run ./cmd/bench -out BENCH_sweep.json -pipeout BENCH_pipeline.json -bddout BENCH_bdd.json -serveout BENCH_serve.json -tputout BENCH_throughput.json

# bench-go runs the Go benchmark suite for the sweeping engine, the
# functional engine's tff, MeMin and encode stages on table3-functional
# machines, the BDD kernel, and the fold service's encoding twin (a
# job that restores schedule, tff and minimize from another fold's
# stage blobs).
bench-go:
	$(GO) test . -run XXX -bench 'BenchmarkSweep|BenchmarkSimWordsW|BenchmarkTFFTable3|BenchmarkMinimizeTable3|BenchmarkEncodeTable3' -benchmem
	$(GO) test ./internal/bdd -run XXX -bench 'BenchmarkBDD' -benchmem
	$(GO) test ./internal/job -run XXX -bench 'BenchmarkFoldTwin' -benchmem

# bench-bdd-smoke runs every BDD kernel benchmark once under the race
# detector — a cheap PR gate that the storage layer's benchmarks still
# run and stay race-clean.
bench-bdd-smoke:
	$(GO) test ./internal/bdd -run XXX -bench 'BenchmarkBDD' -benchtime 1x -race

# bench-fold-smoke folds the 64-adder functionally at T=16 with four
# frame workers once under the race detector — the PR gate that the
# parallel time-frame fold stays race-clean and still reaches the known
# 32-state machine.
bench-fold-smoke:
	$(GO) test . -run XXX -bench 'BenchmarkFoldParallel' -benchtime 1x -race

# bench-throughput-smoke is the shared-work engine's PR gate, under the
# race detector: the throughput lane (cold folds vs warm-cache
# resubmissions through the in-process runner at client concurrency
# 1/8/64) with a small job count, written to a temporary file. It
# proves the result cache stays race-clean under concurrent submission
# — and the lane's own warm speedup number makes a broken cache
# obvious. The committed BENCH_throughput.json baseline
# is refreshed intentionally (no -race, full job count) with: make bench
bench-throughput-smoke:
	tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run -race ./cmd/bench -reps 1 -size 400 -out - -pipeout "" -bddout "" \
		-serveout "" -tputout "$$tmp" -tputjobs 8 > /dev/null && \
	grep -o '"warm_speedup": [0-9.]*' "$$tmp"

# bench-compare guards the fold service's SLOs: it measures a fresh
# serve lane (BENCH_serve.fresh.json) and diffs it against the
# committed BENCH_serve.json baseline with cmd/benchcmp, failing on a
# p99 rise or a jobs/sec drop beyond 25% at any client concurrency.
# Refresh the baseline intentionally with:
#   go run ./cmd/bench -reps 1 -size 800 -out - -pipeout "" -bddout "" \
#     -serveout BENCH_serve.json > /dev/null
bench-compare:
	$(GO) run ./cmd/bench -reps 1 -size 800 -out - -pipeout "" -bddout "" \
		-serveout BENCH_serve.fresh.json -tputout "" > /dev/null
	$(GO) run ./cmd/benchcmp -base BENCH_serve.json -fresh BENCH_serve.fresh.json

# trace folds the paper's 64-adder (Table III, T=16) functionally and
# structurally under the span tracer and writes trace.json — load it at
# https://ui.perfetto.dev or chrome://tracing for the flame chart.
trace:
	$(GO) run ./cmd/bench -traceonly -tracefile trace.json -circuit 64-adder -frames 16

clean:
	rm -f BENCH_sweep.json BENCH_pipeline.json BENCH_bdd.json BENCH_serve.fresh.json trace.json foldd
