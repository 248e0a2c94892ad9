package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"circuitfold"
	"circuitfold/internal/cache"
	"circuitfold/internal/core"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

// State is a job's lifecycle position.
type State string

// Job states. Queued and Running are live; the other three are
// terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// finalStage is the checkpoint key holding a finished job's encoded
// result: the job-level snapshot that makes resubmission of an
// identical spec instant, and the resume path for methods without
// per-stage checkpoints (hybrid, simple).
const finalStage = "result"

// ErrShutdown is returned by Submit once the runner has shut down.
var ErrShutdown = errors.New("job: runner is shut down")

// ErrQueueFull is the root of admission-control rejections. The
// concrete error is a *QueueFullError carrying a Retry-After estimate;
// test with errors.Is(err, ErrQueueFull) or errors.As.
var ErrQueueFull = errors.New("job: queue full")

// QueueFullError is a fast-fail admission rejection: the worker queue
// is at capacity, and the caller should retry after RetryAfter (an
// EWMA-based estimate of the time to drain one queue's worth of work).
// It unwraps to ErrQueueFull.
type QueueFullError struct {
	Depth      int           // jobs pending at rejection time
	RetryAfter time.Duration // suggested client backoff
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("job: queue full (%d pending); retry after %s", e.Depth, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrQueueFull) true.
func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// eventReplay is the per-job span replay ring: a client attaching
// mid-run sees up to this many recent events before the live stream.
const eventReplay = 256

// Job is one submitted fold. All accessors are safe for concurrent
// use; the zero value is not usable — jobs come from Runner.Submit.
type Job struct {
	id      string
	spec    Spec
	key     string
	foldKey string // shared-work content address (Spec.FoldKey)
	// g is the circuit to fold: set on a queued job only, and taken by
	// the worker that dequeues it, so no job keeps its circuit after that.
	g *circuitfold.Circuit
	// journaled marks a job whose submit record is in the journal: only
	// such a job journals its terminal record. Immutable after Submit.
	journaled bool

	events    *obs.Broadcast
	metrics   *circuitfold.Metrics
	flight    *obs.FlightRecorder
	log       *slog.Logger // correlated: every line carries job_id + key
	profile   string       // requested profile kind: "", "cpu" or "heap"
	done      chan struct{}
	r         *Runner   // back-pointer for terminal-transition accounting
	deadline  time.Time // zero = no client deadline
	recovered bool      // re-enqueued by journal replay after a crash

	mu        sync.Mutex
	state     State
	err       string
	method    string
	cacheStat string   // result-cache verdict at submit: "hit" or "miss"
	resumed   []string // stage names restored from checkpoints
	fromSnap  bool     // whole result served by the worker's read-through lookup
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	fin       *final // the finished fold, set when done; shared, read-only
	flightRec []byte // flight-recorder artifact, set on dump
	profData  []byte // captured pprof profile, set before the terminal transition
}

// ID returns the job's runner-unique identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's spec.
func (j *Job) Spec() Spec { return j.spec }

// Key returns the job's content address (Spec.Hash).
func (j *Job) Key() string { return j.key }

// FoldKey returns the job's shared-work content address (Spec.FoldKey):
// the key of the runner's result cache.
func (j *Job) FoldKey() string { return j.foldKey }

// CacheStatus reports how the result cache classified the job at
// submit: "hit" (served from the cache) or "miss" (queued for a worker,
// which folds unless an identical fold has settled by then).
func (j *Job) CacheStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheStat
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Events subscribes to the job's live span stream with a buffer of
// buf events (plus a bounded replay of recent history); the returned
// cancel must be called when the subscriber detaches. The channel
// closes when the job finishes.
func (j *Job) Events(buf int) (<-chan obs.Event, func()) { return j.events.Subscribe(buf) }

// Metrics returns the job's metrics registry.
func (j *Job) Metrics() *circuitfold.Metrics { return j.metrics }

// FlightRecord returns the job's flight-recorder artifact — one
// self-contained JSON document with the spans, log records and final
// metrics leading up to a failure — or false when the job has not
// (yet) dumped one. Dumps happen when a job fails, when a fold
// recovered a panic, or when the degradation ladder descended.
func (j *Job) FlightRecord() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.flightRec == nil {
		return nil, false
	}
	return j.flightRec, true
}

// Profile returns the captured pprof profile (the kind requested at
// submit) once the job is terminal, or false when none was requested
// or it is not ready yet.
func (j *Job) Profile() (kind string, data []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.profData == nil {
		return "", nil, false
	}
	return j.profile, j.profData, true
}

// Result decodes the fold result, or returns an error while the job is
// not Done. Each call decodes a private copy from the encoded result
// the job shares with the cache and with other jobs of its fold key, so
// callers may mutate what they get.
func (j *Job) Result() (*circuitfold.Result, error) {
	data, err := j.resultBytes()
	if err != nil {
		return nil, err
	}
	return core.DecodeResult(data)
}

// resultBytes returns the done job's encoded result (core.EncodeResult),
// the body GET /result serves. The bytes are shared and read-only.
func (j *Job) resultBytes() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, fmt.Errorf("job: %s is %s, not done", j.id, j.state)
	}
	return j.fin.body, nil
}

// Status is the job's JSON view.
type Status struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Key    string `json:"key"`
	Source string `json:"source"`
	T      int    `json:"t"`
	Method string `json:"method,omitempty"`
	Error  string `json:"error,omitempty"`
	// Resumed lists the pipeline stages restored from checkpoints;
	// ResumedResult reports that the worker served the whole result
	// from the cache or the final snapshot (an identical fold finished
	// after this job's submit).
	Resumed       []string `json:"resumed,omitempty"`
	ResumedResult bool     `json:"resumed_result,omitempty"`
	// Cache is the result-cache verdict at submit: "hit" (served from
	// the cache) or "miss" (queued for a worker).
	Cache string `json:"cache,omitempty"`
	// Recovered marks a job re-enqueued by journal replay after a
	// daemon crash; DeadlineAt is the client-supplied completion
	// deadline, when one was set.
	Recovered  bool   `json:"recovered,omitempty"`
	DeadlineAt string `json:"deadline_at,omitempty"`
	CreatedAt  string `json:"created_at"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
	// Fold shape, present when done.
	InputPins  int `json:"input_pins,omitempty"`
	OutputPins int `json:"output_pins,omitempty"`
	FlipFlops  int `json:"flip_flops,omitempty"`
	Gates      int `json:"gates,omitempty"`
	States     int `json:"states,omitempty"`
	StatesMin  int `json:"states_min,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	source := j.spec.Generator
	if source == "" && j.spec.Netlist != nil {
		source = "netlist:" + j.spec.Netlist.Format
	}
	st := Status{
		ID:            j.id,
		State:         j.state,
		Key:           j.key,
		Source:        source,
		T:             j.spec.T,
		Method:        j.method,
		Error:         j.err,
		Resumed:       append([]string(nil), j.resumed...),
		ResumedResult: j.fromSnap,
		Cache:         j.cacheStat,
		Recovered:     j.recovered,
		CreatedAt:     j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.deadline.IsZero() {
		st.DeadlineAt = j.deadline.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.state == StateDone {
		h := j.fin.finalHeader
		st.InputPins, st.OutputPins, st.FlipFlops = h.InputPins, h.OutputPins, h.FlipFlops
		st.Gates, st.States, st.StatesMin = h.Gates, h.States, h.StatesMin
	}
	return st
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, errText string) bool { return j.finishWith(state, errText, nil) }

// terminalCounters maps a terminal state to its lifecycle counter.
var terminalCounters = map[State]string{
	StateDone:     obs.MJobDone,
	StateFailed:   obs.MJobFailed,
	StateCanceled: obs.MJobCanceled,
}

// finishWith moves the job to a terminal state exactly once, running
// mutate under the job lock just before the transition when this call
// wins it. It reports whether it did: a lost race (the job was already
// terminal) leaves the job untouched, so concurrent finishers — the
// fold worker and a user cancel — cannot interleave their result
// fields. The winner counts the state before the transition, so a
// client woken by it sees the count. A queued job's winner journals the
// terminal record after it; a submit-time cache hit journals nothing.
func (j *Job) finishWith(state State, errText string, mutate func()) bool {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		j.mu.Unlock()
		return false
	}
	if mutate != nil {
		mutate()
	}
	j.state = state
	j.err = errText
	j.finished = time.Now()
	j.mu.Unlock()
	j.r.metrics.Counter(terminalCounters[state]).Add(1)
	j.events.Close()
	close(j.done)
	// Best effort: a lost terminal record only means recovery replays a
	// job whose result is already snapshotted, which resumes instantly.
	// The terminal journal ops are spelled like the states.
	if j.journaled {
		j.r.appendJournal(j, JournalOp(state), nil, errText)
	}
	return true
}

// Runner executes jobs on a bounded worker pool over a checkpoint
// store. Close it with Shutdown.
type Runner struct {
	store   Store
	queue   chan *Job
	workers int
	log     *slog.Logger
	metrics *obs.Registry // process-level: lifecycle, latency, HTTP
	cache   *cache.Cache  // shared-work result cache, keyed by fold key

	// journal is the durable log of pending work, or nil. It is an
	// atomic pointer — not guarded by r.mu — because terminal
	// transitions journal from finishWith, which runs both with and
	// without r.mu held; Kill swaps it to nil to simulate a crash (no
	// terminal records reach disk).
	journal atomic.Pointer[Journal]
	// journalDead counts terminal records appended since the last
	// compaction: each one makes a job's records dead weight.
	journalDead atomic.Int64

	// avgRun is an EWMA of fold wall time in nanoseconds, feeding the
	// Retry-After estimate on queue-full rejections.
	avgRun atomic.Int64

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string
	nextID     int
	closed     bool
	draining   bool
	recovering bool // journal replay in progress: not ready for traffic

	wg sync.WaitGroup
}

// RunnerOptions configures NewRunnerWith. The zero value is one worker
// over a fresh MemStore with default telemetry. The result cache and
// each job's flight recorder always take their package defaults
// (cache.DefaultMaxEntries/DefaultMaxBytes, obs.DefaultFlightSpans/
// DefaultFlightLogs).
type RunnerOptions struct {
	// Workers is the fold worker-pool size (minimum 1).
	Workers int
	// Store is the checkpoint store (nil means a fresh MemStore).
	Store Store
	// Logger receives the runner's structured lifecycle log; each
	// job's lines carry its job_id and content key. Nil discards.
	Logger *slog.Logger
	// Metrics is the process-level registry for lifecycle counters,
	// queue/run latency histograms and per-stage timings aggregated
	// across jobs. Nil allocates a private one.
	Metrics *obs.Registry
	// QueueDepth bounds the admission queue (jobs accepted but not yet
	// folding); zero selects the default of 1024. At capacity, Submit
	// fast-fails with *QueueFullError instead of queueing unboundedly.
	QueueDepth int
	// Journal, when set, durably records the work a crash could lose —
	// each queued job's submission, then its terminal transition — and
	// is consulted on startup recovery. A submit-time cache hit, which
	// finishes before Submit returns, writes nothing. The runner starts
	// in the recovering state (readiness probes fail) until Recover is
	// called — with the journal's replayed records, or nil to skip
	// replay.
	Journal *Journal
}

// NewRunnerWith starts a runner from opts.
func NewRunnerWith(opts RunnerOptions) *Runner {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	if opts.Logger == nil {
		opts.Logger = obs.DiscardLogger()
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	r := &Runner{
		store:   opts.Store,
		queue:   make(chan *Job, opts.QueueDepth),
		workers: opts.Workers,
		log:     opts.Logger,
		metrics: opts.Metrics,
		cache:   cache.New(0, 0),
		jobs:    make(map[string]*Job),
	}
	corrupt := opts.Metrics.Counter(obs.MStoreCorrupt)
	if fs, ok := opts.Store.(*FileStore); ok {
		fs.Observe(corrupt)
	}
	r.cache.Observe(
		opts.Metrics.Gauge(obs.MCacheEntries),
		opts.Metrics.Gauge(obs.MCacheBytes),
		opts.Metrics.Counter(obs.MCacheEvictions),
		corrupt)
	if opts.Journal != nil {
		r.journal.Store(opts.Journal)
		// A journaled runner is born recovering: readiness stays false
		// until Recover replays (or explicitly skips) the backlog, so
		// load balancers do not route traffic mid-replay.
		r.recovering = true
	}
	for i := 0; i < opts.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Metrics returns the runner's process-level registry — lifecycle
// counters, queue depth, and latency histograms across all jobs.
func (r *Runner) Metrics() *obs.Registry { return r.metrics }

// Ready reports whether the runner should receive new traffic; when it
// should not, reason says why (readiness probes surface it to the
// operator). Beyond the lifecycle states (recovering at startup,
// draining or shut down at the end), a queue at >= 90% capacity reports
// overloaded so load balancers back off before submissions start
// failing with queue-full rejections.
func (r *Runner) Ready() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.closed:
		return false, "shut down"
	case r.draining:
		return false, "draining"
	case r.recovering:
		return false, "recovering: journal replay in progress"
	}
	if n := len(r.queue); n*10 >= cap(r.queue)*9 {
		return false, fmt.Sprintf("overloaded: queue %d/%d", n, cap(r.queue))
	}
	return true, ""
}

// SubmitOptions carries per-submission knobs that are deliberately
// not part of Spec: they must not change the job's content address.
type SubmitOptions struct {
	// Profile requests a pprof capture for this job: "cpu" profiles
	// the fold's execution window, "heap" snapshots the live heap
	// right after the fold. Empty means no profiling.
	Profile string
	// Deadline bounds the job's total latency (queue wait included):
	// past it, a queued job fails without folding and a running job's
	// pipeline context expires at its next cancellation poll. Zero
	// means no deadline.
	Deadline time.Duration

	// recovered marks a journal-replay resubmission; only the runner's
	// own recovery path sets it.
	recovered bool
}

// Submit validates the spec, builds its circuit (rejecting malformed
// uploads at the door), and admits the job with per-submission options.
func (r *Runner) Submit(spec Spec, so SubmitOptions) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if so.Profile != "" && so.Profile != "cpu" && so.Profile != "heap" {
		return nil, fmt.Errorf("job: unknown profile %q (want cpu or heap)", so.Profile)
	}
	g, err := spec.Circuit()
	if err != nil {
		return nil, err
	}
	// Both content addresses hash the whole input; compute them outside
	// the lock.
	key, foldKey := spec.Hash(), spec.FoldKey(g)
	// The submit path reads the memory tier only, and before r.mu is
	// taken, so the request does no disk I/O. An identical fold that
	// settles after this lookup is served by the worker's read-through
	// lookup instead.
	hitFin, hit := r.lookupFinal(foldKey, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrShutdown
	}
	r.nextID++
	j := &Job{
		id:        fmt.Sprintf("j%04d", r.nextID),
		spec:      spec,
		key:       key,
		foldKey:   foldKey,
		events:    obs.NewBroadcast(eventReplay),
		metrics:   circuitfold.NewMetrics(),
		flight:    obs.NewFlightRecorder(0, 0),
		profile:   so.Profile,
		done:      make(chan struct{}),
		r:         r,
		recovered: so.recovered,
		state:     StateQueued,
		created:   time.Now(),
	}
	if so.Deadline > 0 {
		j.deadline = j.created.Add(so.Deadline)
	}
	// Correlated logger: the process stream and the job's flight
	// recorder both see every line, each stamped with the job's
	// identity (the content key is the spec hash, shortened to the
	// display width used everywhere else).
	j.log = slog.New(obs.TeeHandler(r.log.Handler(), j.flight.LogHandler())).
		With("job_id", j.id, "key", shortKey(j.key))
	// A finished identical fold in the result cache serves the
	// submission without touching an engine; anything else enqueues.
	if hit {
		r.register(j)
		// No journal record and no circuit: the hit finishes before
		// Submit returns, so no acknowledged work is pending for a crash
		// to lose, and the hit does no disk I/O.
		r.metrics.Counter(obs.MJobCacheHits).Add(1)
		j.log.Info("job submitted",
			"method", j.spec.EffectiveMethod(), "t", j.spec.T, "cache", "hit")
		r.deliver(j, hitFin, func() { j.cacheStat = "hit" }, "cache", "hit")
		return j, nil
	}
	// Admission control: at queue capacity, fail fast with a
	// Retry-After estimate instead of blocking or queueing unboundedly.
	// The check-then-send below is race-free because every producer
	// holds r.mu and workers only consume.
	if len(r.queue) >= cap(r.queue) {
		r.metrics.Counter(obs.MJobRejected).Add(1)
		return nil, &QueueFullError{Depth: len(r.queue), RetryAfter: r.retryAfter()}
	}
	j.cacheStat = "miss"
	j.g = g
	// Journal before enqueueing, strictly: once Submit acknowledges a
	// queued job, a crash must be able to replay it. If the record cannot
	// be made durable the submission is refused.
	if err := r.appendJournal(j, OpSubmitted, &spec, ""); err != nil {
		return nil, fmt.Errorf("job: refusing submission, journal append failed: %w", err)
	}
	j.journaled = true
	r.queue <- j
	r.register(j)
	r.metrics.Counter(obs.MJobCacheMisses).Add(1)
	r.metrics.Gauge(obs.MJobQueueDepth).Set(int64(len(r.queue)))
	j.log.Info("job submitted", "method", j.spec.EffectiveMethod(),
		"t", j.spec.T, "profile", so.Profile, "cache", "miss")
	return j, nil
}

// retryAfter estimates how long a rejected client should back off: the
// time for the current worker pool to drain one queue's worth of
// average folds, clamped to [1s, 2m].
func (r *Runner) retryAfter() time.Duration {
	avg := time.Duration(r.avgRun.Load())
	if avg <= 0 {
		avg = time.Second
	}
	est := avg * time.Duration(cap(r.queue)/r.workers+1)
	if est < time.Second {
		est = time.Second
	}
	if est > 2*time.Minute {
		est = 2 * time.Minute
	}
	return est
}

// appendJournal appends one record for j; spec is set on submit
// records only. A failed append is logged and returned, and the caller
// decides whether it matters: only a queued job's submit record refuses
// the submission. No-op without a journal. Terminal records are
// appended from finishWith — with r.mu sometimes held — so this must
// not touch r.mu.
func (r *Runner) appendJournal(j *Job, op JournalOp, spec *Spec, errText string) error {
	jr := r.journal.Load()
	if jr == nil {
		return nil
	}
	if err := jr.Append(op, j.id, spec, errText); err != nil {
		j.log.Warn("journal append failed", "op", string(op), "err", err.Error())
		return err
	}
	r.metrics.Counter(obs.MJournalRecords).Add(1)
	if op.terminal() {
		r.journalDead.Add(1)
	}
	return nil
}

// maxJobs bounds the job table. Past it, register evicts the oldest
// finished jobs, so a long-lived daemon holds at most this many
// terminal jobs; a queued or running job is never evicted. An evicted
// job's ID is unknown from then on (404 over HTTP).
const maxJobs = 4096

// register indexes a new job, evicting the oldest finished jobs past
// maxJobs. Called with r.mu held.
func (r *Runner) register(j *Job) {
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.metrics.Counter(obs.MJobSubmitted).Add(1)
	// Walk from the oldest job, dropping finished ones until the table
	// fits; the live jobs passed on the way keep their order, moved up
	// to just before the first job not visited. Usually the oldest job
	// is finished and this drops one ID off the front.
	excess := len(r.order) - maxJobs
	live, i := 0, 0
	for ; i < len(r.order) && excess > 0; i++ {
		id := r.order[i]
		select {
		case <-r.jobs[id].done:
			delete(r.jobs, id)
			excess--
		default:
			r.order[live] = id
			live++
		}
	}
	copy(r.order[i-live:i], r.order[:live])
	r.order = r.order[i-live:]
}

// shortKey abbreviates a content hash for log correlation.
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// Get returns a job by ID.
func (r *Runner) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (r *Runner) Jobs() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Job, len(r.order))
	for i, id := range r.order {
		out[i] = r.jobs[id]
	}
	return out
}

// Cancel stops a job: queued jobs terminate immediately, running jobs
// get their context cancelled (and keep the checkpoints saved so
// far). Unknown IDs return false.
func (r *Runner) Cancel(id string) bool {
	j, ok := r.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	cancel := j.cancel
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		j.finish(StateCanceled, "canceled before start")
		return true
	}
	if cancel != nil {
		cancel()
	}
	return true
}

// Shutdown drains the runner: no new submissions, queued jobs are
// canceled (they have no progress to lose), and in-flight jobs get
// until ctx's deadline to finish. Past the deadline their contexts
// are cancelled — per-stage checkpoints already saved make them
// resumable — and the deadline error is returned after the workers
// exit. Shutdown is idempotent; later calls wait like the first.
func (r *Runner) Shutdown(ctx context.Context) error {
	r.closeQueue()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	r.cancelAll()
	<-done
	return fmt.Errorf("job: drain deadline: %w", ctx.Err())
}

// closeQueue refuses further submissions and closes the worker queue
// once; the workers cancel whatever is still queued and exit.
func (r *Runner) closeQueue() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		close(r.queue)
	}
	r.closed = true
	r.draining = true
}

// cancelAll cuts every running job loose at its next cancellation
// poll; its completed stages are checkpointed.
func (r *Runner) cancelAll() {
	for _, j := range r.Jobs() {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
}

// Recover replays a journal's records (as returned by OpenJournal):
// every job that was queued or running at crash time is resubmitted
// through the normal admission path — folding is deterministic, so the
// replay produces the bit-identical result, and jobs whose final
// snapshot survived in the store resume from it instantly. Afterwards
// the journal is compacted down to the still-live jobs and the runner
// leaves the recovering state (readiness goes true). Recover returns
// the number of jobs re-enqueued; it must be called once on a runner
// built with a Journal, even with nil records, to mark recovery done.
func (r *Runner) Recover(recs []JournalRecord) (int, error) {
	n := 0
	var firstErr error
	for _, rec := range PendingJobs(recs) {
		j, err := r.Submit(*rec.Spec, SubmitOptions{recovered: true})
		if err != nil {
			// Keep replaying: one bad record (or a full queue) must not
			// strand the rest of the backlog.
			if firstErr == nil {
				firstErr = fmt.Errorf("job: recover %s: %w", rec.ID, err)
			}
			r.log.Warn("journal replay: job not recovered", "old_id", rec.ID, "err", err.Error())
			continue
		}
		n++
		r.metrics.Counter(obs.MJobRecovered).Add(1)
		j.log.Info("job recovered from journal", "old_id", rec.ID)
	}
	// The resubmissions above appended fresh records to the old
	// journal (safe: duplicate replays are idempotent), so the live
	// set is durable before the history is compacted away.
	r.compactJournal()
	r.mu.Lock()
	r.recovering = false
	r.mu.Unlock()
	return n, firstErr
}

// compactEvery is the number of terminal records after which a worker
// compacts the journal between jobs, so a long-running daemon's journal
// stays bounded instead of growing until the next restart.
const compactEvery = 4096

// compactDue reports whether enough terminal records have piled up
// since the last compaction — more than compactEvery, and more than the
// live jobs a compaction rewrites (at most the queue plus one per
// worker) — and claims the compaction for the caller.
func (r *Runner) compactDue() bool {
	n := r.journalDead.Load()
	live := int64(len(r.queue) + r.workers)
	return n > compactEvery && n > live && r.journalDead.CompareAndSwap(n, 0)
}

// compactJournal rewrites the journal down to the currently-live jobs.
// r.mu is held from the gather through the rename: a cold submit
// appends its record under r.mu, so none can land in the old file after
// the gather and vanish with it. A terminal record that does is
// harmless: its job is still in the live set and replays idempotently.
// finishWith can run under r.mu, so it must never call this.
func (r *Runner) compactJournal() {
	jr := r.journal.Load()
	if jr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var live []JournalRecord
	for _, id := range r.order {
		j := r.jobs[id]
		j.mu.Lock()
		if j.state == StateQueued || j.state == StateRunning {
			spec := j.spec
			live = append(live, JournalRecord{Op: OpSubmitted, ID: j.id, Spec: &spec})
		}
		j.mu.Unlock()
	}
	if err := jr.Compact(live); err != nil {
		r.log.Warn("journal compaction failed", "err", err.Error())
	}
}

// Kill simulates a daemon crash for the chaos suite: the journal is
// detached first (so no orderly terminal records reach disk — exactly
// what a real crash leaves behind), then every context is cancelled
// and the workers drained. The runner is unusable afterwards; recovery
// happens by opening the journal again and building a fresh runner.
func (r *Runner) Kill() {
	if jr := r.journal.Swap(nil); jr != nil {
		jr.Close()
	}
	r.closeQueue()
	r.cancelAll()
	r.wg.Wait()
}

// worker drains the queue, compacting the journal between jobs once it
// is due.
func (r *Runner) worker() {
	defer r.wg.Done()
	for j := range r.queue {
		r.runJob(j)
		if r.compactDue() {
			r.compactJournal()
		}
	}
}

// runJob takes one dequeued job through start, fold and settle. A
// finished identical fold, in the cache or the store, is served
// instead of folding again: a duplicate queued behind an identical
// fold gets that fold's bytes once it settles.
func (r *Runner) runJob(j *Job) {
	// The fold below is the circuit's only reader: the job lets go of it
	// here, so a finished job holds no circuit.
	g := j.g
	j.g = nil
	run := r.start(j)
	if run == nil {
		return
	}
	defer r.stop(run)
	if fin, ok := r.lookupFinal(j.foldKey, run.ck); ok {
		r.terminate(j, run, func() {
			r.deliver(j, fin, func() { j.fromSnap = true }, "resumed_result", true)
		})
		return
	}
	method, res, err := fold(j, g, run)
	r.settle(j, run, method, res, err)
}

// jobRun is a started job's worker-side state, from start to stop.
type jobRun struct {
	ctx    context.Context // the fold's context: cancelable, deadline-bound, pprof-labeled
	cancel context.CancelFunc
	ck     pipeline.Checkpoint // the job's namespace: final snapshot, profile, flight record
	stages pipeline.Checkpoint // the store-wide stage namespace the fold checkpoints into
	cpu    *bytes.Buffer       // the CPU profile being recorded, nil when none
}

// cpuProfileBusy serializes CPU profiling: the runtime allows one CPU
// profile per process, so concurrent jobs requesting one take turns —
// losers run unprofiled with a warning rather than queueing.
var cpuProfileBusy atomic.Bool

// start moves a dequeued job to running and returns its run. A job
// that must not fold — canceled while queued, runner draining, deadline
// already past — ends here instead, and start returns nil.
func (r *Runner) start(j *Job) *jobRun {
	r.mu.Lock()
	draining := r.draining
	r.mu.Unlock()
	j.mu.Lock()
	deadline := j.deadline // immutable after Submit
	switch {
	case j.state != StateQueued: // canceled while queued
		j.mu.Unlock()
		return nil
	case draining:
		j.mu.Unlock()
		j.finish(StateCanceled, "canceled: daemon shutting down")
		return nil
	case !deadline.IsZero() && !time.Now().Before(deadline):
		// Expired while queued: fail without burning a fold.
		j.mu.Unlock()
		// Count before the transition: a client woken by it sees the count.
		r.metrics.Counter(obs.MJobDeadline).Add(1)
		j.finish(StateFailed, "deadline exceeded before start")
		j.log.Warn("job missed deadline in queue")
		return nil
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(context.Background())
	} else {
		ctx, cancel = context.WithDeadline(context.Background(), deadline)
	}
	// Profile attribution: label this goroutine and hand the labeled
	// context to the fold so frame/cluster workers inherit (and
	// extend) the job identity in CPU profiles.
	ctx = pprof.WithLabels(ctx, pprof.Labels("job", j.id, "key", shortKey(j.key)))
	pprof.SetGoroutineLabels(ctx)
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	queueWait := j.started.Sub(j.created)
	j.mu.Unlock()
	r.metrics.Timing(obs.MJobQueueWait).Observe(queueWait)
	r.metrics.Gauge(obs.MJobQueueDepth).Set(int64(len(r.queue)))
	r.metrics.Gauge(obs.MJobRunning).Add(1)
	j.log.Info("job started", "queue_wait", queueWait.Seconds())

	run := &jobRun{ctx: ctx, cancel: cancel,
		ck: r.store.Checkpoint(j.key), stages: r.store.Checkpoint(stageNamespace)}
	// Opt-in CPU profile of the whole fold window; a heap profile is
	// snapshotted after the fold, in captureProfile.
	if j.profile == "cpu" {
		buf := new(bytes.Buffer)
		if !cpuProfileBusy.CompareAndSwap(false, true) {
			j.log.Warn("cpu profile skipped: another job is profiling")
		} else if err := pprof.StartCPUProfile(buf); err != nil {
			cpuProfileBusy.Store(false)
			j.log.Warn("cpu profile failed to start", "err", err.Error())
		} else {
			run.cpu = buf
		}
	}
	return run
}

// stop releases what start acquired: the fold's context, the goroutine
// labels and the running gauge.
func (r *Runner) stop(run *jobRun) {
	run.cancel()
	pprof.SetGoroutineLabels(context.Background())
	r.metrics.Gauge(obs.MJobRunning).Add(-1)
}

// fold runs the spec's method on the job's circuit g under the run's
// context, checkpointing stages into the store-wide stage namespace.
// method is the one that produced res: the resilient ladder reports the
// rung that won.
func fold(j *Job, g *circuitfold.Circuit, run *jobRun) (method string, res *circuitfold.Result, err error) {
	opt := j.spec.Options()
	opt.Context = run.ctx
	// Spans fan out to the live SSE stream and the flight recorder.
	opt.Observer = &circuitfold.Observer{
		Tracer:  circuitfold.NewTracer(obs.MultiSink(j.events, j.flight)),
		Metrics: j.metrics,
	}
	opt.Checkpoint = run.stages
	method = j.spec.EffectiveMethod()
	switch method {
	case MethodFunctional:
		res, err = circuitfold.Functional(g, j.spec.T, opt)
	case MethodStructural:
		res, err = circuitfold.Structural(g, j.spec.T, opt)
	case MethodHybrid:
		res, err = circuitfold.Hybrid(g, j.spec.T, opt)
	case MethodSimple:
		res, err = circuitfold.Simple(g, j.spec.T)
	case MethodResilient:
		var rr *circuitfold.ResilientResult
		rr, err = circuitfold.RunResilient(g, j.spec.T, circuitfold.ResilientOptions{
			Options:         opt,
			SelfCheckRounds: j.spec.SelfCheckRounds,
		})
		if err == nil {
			res = rr.Result
			method = string(rr.Method)
		}
	default:
		err = fmt.Errorf("job: unknown method %q", method)
	}
	return method, res, err
}

// settle ends a folded job. It is the only code that persists or
// caches a fold's result: a failure is classified and dumped; a
// success is encoded once, and those bytes are saved as the final
// snapshot and put in the cache.
func (r *Runner) settle(j *Job, run *jobRun, method string, res *circuitfold.Result, err error) {
	runDur := time.Since(j.started) // written only by this worker
	r.metrics.Timing(obs.MJobRunSeconds).Observe(runDur)
	// EWMA of fold wall time (alpha 1/4) feeds the Retry-After estimate
	// on queue-full rejections.
	if old := r.avgRun.Load(); old == 0 {
		r.avgRun.Store(int64(runDur))
	} else {
		r.avgRun.Store(old - old/4 + int64(runDur)/4)
	}
	if err != nil {
		state, msg, reason := StateFailed, err.Error(), "failed"
		switch {
		case !j.deadline.IsZero() && !time.Now().Before(j.deadline):
			// The pipeline reports a deadline expiry as cancellation, or
			// as an elapsed wall budget when its own clock check beats
			// the context's timer; for the client the difference matters.
			msg, reason = "deadline exceeded: "+msg, "deadline_exceeded"
			r.metrics.Counter(obs.MJobDeadline).Add(1)
			j.log.Warn("job missed deadline", "err", err.Error(), "run_seconds", runDur.Seconds())
		case errors.Is(err, circuitfold.ErrCanceled):
			state, reason = StateCanceled, ""
			j.log.Info("job canceled", "err", msg, "run_seconds", runDur.Seconds())
		default:
			j.log.Error("job failed", "err", msg, "method", method, "run_seconds", runDur.Seconds())
		}
		if reason != "" {
			r.dumpFlight(j, run.ck, reason, state, "", msg)
		}
		r.terminate(j, run, func() { j.finish(state, msg) })
		return
	}

	var resumed []string
	if res.Report != nil {
		for _, ss := range res.Report.Stages {
			if ss.Resumed {
				resumed = append(resumed, ss.Name)
				continue
			}
			// Roll per-stage latency up into the process registry so
			// /metrics carries stage.<name>.seconds across all jobs
			// (the per-job registry has its own copy from pipeline).
			r.metrics.Timing(obs.StageSeconds(ss.Name)).Observe(ss.Duration)
		}
	}
	data, fin, err := encodeFinal(method, res)
	if err != nil {
		// The fold has no bytes to keep: the job fails, and nothing is
		// saved or cached.
		msg := "result not encodable: " + err.Error()
		j.log.Error("job failed", "err", msg, "method", method, "run_seconds", runDur.Seconds())
		r.dumpFlight(j, run.ck, "failed", StateFailed, "", msg)
		r.terminate(j, run, func() { j.finish(StateFailed, msg) })
		return
	}
	_ = run.ck.Save(finalStage, data) // best effort: resume is an optimization
	r.cache.Put(j.foldKey, data)
	// A fold that succeeded the hard way still dumps its black box:
	// recovered panics and degradation-ladder descents are incidents
	// an operator wants the context for, even with a green result.
	if j.metrics.Counter(obs.MFoldPanics).Value() > 0 {
		r.dumpFlight(j, run.ck, "panic_recovered", StateDone, method, "")
	} else if j.metrics.Counter(obs.MFoldFallbacks).Value() > 0 {
		r.dumpFlight(j, run.ck, "degraded", StateDone, method, "")
	}
	r.terminate(j, run, func() {
		r.deliver(j, fin, func() { j.resumed = resumed }, "run_seconds", runDur.Seconds(),
			"states", res.States, "gates", res.Gates())
	})
}

// terminate is the terminal transition of a started job. The requested
// profile is captured first, so a client woken by the transition can
// fetch it.
func (r *Runner) terminate(j *Job, run *jobRun, transition func()) {
	r.captureProfile(j, run)
	transition()
}

// captureProfile ends the job's requested profile and attaches it: the
// CPU profile of the fold window, or a heap snapshot taken now, right
// after the fold, where the arena high-water mark is still visible in
// allocation totals.
func (r *Runner) captureProfile(j *Job, run *jobRun) {
	var data []byte
	switch {
	case run.cpu != nil:
		pprof.StopCPUProfile()
		cpuProfileBusy.Store(false)
		data = run.cpu.Bytes()
	case j.profile == "heap":
		var buf bytes.Buffer
		if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
			j.log.Warn("heap profile failed", "err", err.Error())
			return
		}
		data = buf.Bytes()
	default:
		return
	}
	// Stored next to the job's checkpoints, under its content key.
	if err := run.ck.Save("profile."+j.profile, data); err != nil {
		j.log.Warn("profile not persisted", "err", err.Error())
	}
	j.mu.Lock()
	j.profData = data
	j.mu.Unlock()
	j.log.Info("profile captured", "kind", j.profile, "bytes", len(data))
}

// lookupFinal is the read-through result lookup: the memory cache under
// the fold key, then — when ck is set — the store's final snapshot
// under the spec hash, which a hit copies into the cache. A memory hit
// parses only the snapshot's header: the cache checksums every entry,
// and an entry only ever comes from encodeFinal or from a store read
// that passed the full check below. A store snapshot must decode in
// full and agree with its header; one that does not (an older framing,
// codec drift, a bug) is a miss and never enters the cache.
func (r *Runner) lookupFinal(foldKey string, ck pipeline.Checkpoint) (*final, bool) {
	if data, ok := r.cache.Get(foldKey); ok {
		if fin, err := parseFinal(data); err == nil {
			return fin, true
		}
	}
	if ck == nil {
		return nil, false
	}
	data, ok := ck.Load(finalStage)
	if !ok {
		return nil, false
	}
	fin, err := parseFinal(data)
	if err != nil {
		return nil, false
	}
	if res, err := core.DecodeResult(fin.body); err != nil || headerOf(fin.Method, res) != fin.finalHeader {
		return nil, false
	}
	r.cache.Put(foldKey, data)
	return fin, true
}

// deliver moves j to done with fin. It is the only way a job becomes
// done: the submit-time cache hit, the worker's read-through hit and
// the worker's own fold come through here.
// provenance, when set, runs under the job lock to record how the job
// came by its result; attrs extend the "job done" log line.
func (r *Runner) deliver(j *Job, fin *final, provenance func(), attrs ...any) {
	if j.finishWith(StateDone, "", func() {
		j.method = fin.Method
		j.fin = fin
		if provenance != nil {
			provenance()
		}
	}) {
		j.log.Info("job done", append([]any{"method", fin.Method}, attrs...)...)
	}
}

// dumpFlight assembles and stores the artifact of a job about to
// finish in state, with the method that produced its result (done
// jobs) or its error text (failed ones). It runs before the terminal
// transition, so a client woken by that transition can fetch the
// artifact. Best effort end to end: a failed persist still leaves the
// artifact on the job for the HTTP API.
func (r *Runner) dumpFlight(j *Job, ck pipeline.Checkpoint, reason string, state State, method, errText string) {
	meta := map[string]any{
		"job_id": j.id,
		"key":    j.key,
		"state":  string(state),
		"reason": reason,
	}
	if errText != "" {
		meta["error"] = errText
	}
	if method != "" {
		meta["method"] = method
	}
	if cache := j.CacheStatus(); cache != "" {
		meta["cache"] = cache
	}
	data, err := json.Marshal(j.flight.Record(meta, j.metrics))
	if err != nil {
		j.log.Warn("flight record not encodable", "err", err.Error())
		return
	}
	j.mu.Lock()
	j.flightRec = data
	j.mu.Unlock()
	if err := ck.Save("flightrec", data); err != nil {
		j.log.Warn("flight record not persisted", "err", err.Error())
	}
	r.metrics.Counter(obs.MFlightDumps).Add(1)
	j.log.Warn("flight record dumped", "reason", reason, "bytes", len(data))
}

// finalVersion is the final snapshot's framing version. Version 1 was
// a JSON envelope around the encoded result; a v1 snapshot fails to
// parse, so it reads as a miss and the job folds again.
const finalVersion = 2

// finalHeader is the final snapshot's first line: the method that won
// and the fold's shape, which is all Status needs.
type finalHeader struct {
	V          int    `json:"v"`
	Method     string `json:"method"`
	InputPins  int    `json:"input_pins"`
	OutputPins int    `json:"output_pins"`
	FlipFlops  int    `json:"flip_flops"`
	Gates      int    `json:"gates"`
	States     int    `json:"states"`
	StatesMin  int    `json:"states_min"`
}

// headerOf is the header of res folded by method.
func headerOf(method string, res *circuitfold.Result) finalHeader {
	return finalHeader{
		V:          finalVersion,
		Method:     method,
		InputPins:  res.InputPins(),
		OutputPins: res.OutputPins(),
		FlipFlops:  res.FlipFlops(),
		Gates:      res.Gates(),
		States:     res.States,
		StatesMin:  res.StatesMin,
	}
}

// final is a finished fold as a done job holds it: the parsed header
// and body, the exact core.EncodeResult bytes. body aliases the
// snapshot, which the cache and every job of the fold key share; it is
// never copied and never written.
type final struct {
	finalHeader
	body []byte
}

// encodeFinal serializes a finished fold as its final snapshot: the
// header line, a newline, then core.EncodeResult's bytes. It returns
// the snapshot and the parsed form over it.
func encodeFinal(method string, res *circuitfold.Result) ([]byte, *final, error) {
	body, err := core.EncodeResult(res)
	if err != nil {
		return nil, nil, err
	}
	h := headerOf(method, res)
	head, err := json.Marshal(h)
	if err != nil {
		return nil, nil, err
	}
	data := make([]byte, 0, len(head)+1+len(body))
	data = append(append(append(data, head...), '\n'), body...)
	return data, &final{finalHeader: h, body: data[len(head)+1:]}, nil
}

// parseFinal parses a final snapshot's header. The body is not
// decoded: it is returned as a subslice of data. JSON never holds a raw
// newline, so the header ends at the first one.
func parseFinal(data []byte) (*final, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, errors.New("job: final snapshot has no header line")
	}
	fin := &final{body: data[i+1:]}
	if err := json.Unmarshal(data[:i], &fin.finalHeader); err != nil {
		return nil, fmt.Errorf("job: final snapshot header: %w", err)
	}
	if fin.V != finalVersion {
		return nil, fmt.Errorf("job: final snapshot version %d, want %d", fin.V, finalVersion)
	}
	return fin, nil
}
