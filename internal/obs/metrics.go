package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names updated by the engine's layers. Keeping them
// here (rather than scattered string literals) makes the registry
// greppable and keeps DESIGN.md's table in sync with the code.
const (
	MBDDLiveNodes       = "bdd.live_nodes"          // gauge: allocated manager nodes (peak = high-water mark)
	MBDDArenaBytes      = "bdd.arena_bytes"         // gauge: approximate arena memory
	MBDDReorderSwaps    = "bdd.reorder_swaps"       // counter: adjacent-level swaps performed by sifting
	MBDDCacheHits       = "bdd.cache_hits"          // counter: computed-cache hits (apply + ITE)
	MBDDCacheMisses     = "bdd.cache_misses"        // counter: computed-cache misses (apply + ITE)
	MBDDUniqueLoad      = "bdd.unique_load_pct"     // gauge: unique-table load factor, percent
	MBDDFreeNodes       = "bdd.free_nodes"          // gauge: reclaimed arena slots awaiting reuse
	MBDDComplementHits  = "bdd.complement_hits"     // counter: cache hits reached only via polarity normalization
	MSATDecisions       = "sat.decisions"           // counter
	MSATPropagations    = "sat.propagations"        // counter
	MSATRestarts        = "sat.restarts"            // counter
	MSATConflicts       = "sat.conflicts"           // counter
	MSATLearnedSize     = "sat.learned_clause_size" // histogram: literals per learned clause
	MSweepClasses       = "sweep.classes"           // gauge: candidate equivalence classes
	MSweepCEXRounds     = "sweep.cex_rounds"        // counter: CEX-guided refinement rounds
	MSweepMerges        = "sweep.merges"            // counter: nodes merged into representatives
	MSweepSATCalls      = "sweep.sat_calls"         // counter: SAT queries issued by sweeping
	MFSMStates          = "fsm.states"              // gauge: states in the machine under minimization
	MFoldFallbacks      = "fold.fallbacks"          // counter: degradation-ladder rung descents
	MFoldPanics         = "fold.panics_recovered"   // counter: panics converted to ErrInternal at recover boundaries
	MFoldSelfCheck      = "fold.selfcheck_fail"     // counter: folds rejected by the post-fold self-check
	MFoldParallelFrames = "fold.parallel_frames"    // gauge: TFF frames folded with more than one worker
	MFoldFrameWorkers   = "fold.frame_workers"      // gauge: worker count of the most recent parallel fold

	// Service-layer names (the fold daemon's process registry).
	MJobQueueWait  = "job.queue_wait"  // timing: submit-to-start latency
	MJobRunSeconds = "job.run_seconds" // timing: start-to-finish fold latency
	MJobQueueDepth = "job.queue_depth" // gauge: jobs waiting for a worker
	MJobRunning    = "job.running"     // gauge: jobs currently folding
	MJobSubmitted  = "job.submitted"   // counter: jobs accepted by Submit
	MJobDone       = "job.done"        // counter: jobs finished successfully
	MJobFailed     = "job.failed"      // counter: jobs finished in error
	MJobCanceled   = "job.canceled"    // counter: jobs canceled (client or drain)

	// Shared-work engine (the result cache).
	MJobCacheHits   = "job.cache_hits"   // counter: submissions served from the result cache
	MJobCacheMisses = "job.cache_misses" // counter: submissions queued for a worker
	MCacheEntries   = "cache.entries"    // gauge: result-cache entries resident
	MCacheBytes     = "cache.bytes"      // gauge: result-cache bytes resident
	MCacheEvictions = "cache.evictions"  // counter: result-cache entries evicted (LRU or size cap)

	MHTTPRequests = "http.requests"        // counter: API requests served
	MHTTPSeconds  = "http.request_seconds" // timing: API request latency
	MFlightDumps  = "flight.dumps"         // counter: flight-recorder artifacts written

	// Durability + overload protection (journal, checksummed stores,
	// admission control).
	MStoreCorrupt   = "store.corrupt"         // counter: checksum-failed blobs quarantined (file store) or dropped (result cache)
	MJournalRecords = "journal.records"       // counter: records appended to the job journal
	MJobRecovered   = "job.recovered"         // counter: jobs re-enqueued by journal replay after a crash
	MJobRejected    = "job.rejected"          // counter: submissions fast-failed because the queue was full
	MJobDeadline    = "job.deadline_exceeded" // counter: jobs that missed their client-supplied deadline
)

// StageSeconds is the per-stage latency timing name for a pipeline
// stage: "stage.<name>.seconds". Observed by pipeline.Execute into the
// run's registry after every stage, aborted ones included.
func StageSeconds(stage string) string { return "stage." + stage + ".seconds" }

// Counter is a monotonically increasing metric. Methods are no-ops on a
// nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric that also tracks its high-water mark.
// Methods are no-ops on a nil receiver.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Set records the current value, updating the peak.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Add shifts the current value by d, updating the peak — the natural
// operation for occupancy gauges (jobs running, workers busy) written
// from many goroutines.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	v := g.v.Add(d)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Value returns the last value set (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Peak returns the largest value ever set (0 on nil).
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// Histogram counts observations in power-of-two buckets: bucket i holds
// values v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1). Methods are
// no-ops on a nil receiver.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [64]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 1 {
		i = bits.Len64(uint64(v - 1))
	}
	h.buckets[i].Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the non-empty buckets keyed by their upper bound
// (as a power of two).
func (h *Histogram) Buckets() map[int64]int64 {
	if h == nil {
		return nil
	}
	out := make(map[int64]int64)
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out[int64(1)<<i] = n
		}
	}
	return out
}

// DefaultTimingBuckets are the explicit latency bucket upper bounds
// (seconds) a Timing uses: 1ms to 60s, roughly logarithmic, chosen so
// the SLO quantiles of both a sub-millisecond snapshot restore and a
// minutes-long b14 fold land inside the covered range.
var DefaultTimingBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Timing is a latency histogram with explicit bucket upper bounds in
// seconds (DefaultTimingBuckets) plus a running sum and count, from
// which quantiles are estimated by linear interpolation. Unlike
// Histogram's power-of-two integer buckets it is meant for durations,
// and it renders as a native OpenMetrics histogram. Methods are no-ops
// on a nil receiver.
type Timing struct {
	count atomic.Int64
	sumNS atomic.Int64
	// buckets[i] counts observations <= DefaultTimingBuckets[i]; the
	// final slot is the +Inf overflow.
	buckets [len16]atomic.Int64
}

// len16 is len(DefaultTimingBuckets)+1; a const so the bucket array
// needs no allocation. Asserted against the slice in tests.
const len16 = 16

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records one latency given in seconds.
func (t *Timing) ObserveSeconds(s float64) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.sumNS.Add(int64(s * 1e9))
	i := 0
	for i < len(DefaultTimingBuckets) && s > DefaultTimingBuckets[i] {
		i++
	}
	t.buckets[i].Add(1)
}

// Count returns the number of observations (0 on nil).
func (t *Timing) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// SumSeconds returns the total observed latency in seconds.
func (t *Timing) SumSeconds() float64 {
	if t == nil {
		return 0
	}
	return float64(t.sumNS.Load()) / 1e9
}

// Counts returns the per-bucket observation counts, one per
// DefaultTimingBuckets bound plus a final +Inf overflow slot.
func (t *Timing) Counts() []int64 {
	if t == nil {
		return nil
	}
	out := make([]int64, len16)
	for i := range out {
		out[i] = t.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation inside the bucket holding the target rank. With no
// observations it returns 0; ranks landing in the +Inf bucket report
// the largest finite bound.
func (t *Timing) Quantile(q float64) float64 {
	if t == nil {
		return 0
	}
	total := t.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := 0; i < len(DefaultTimingBuckets); i++ {
		n := t.buckets[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = DefaultTimingBuckets[i-1]
			}
			hi := DefaultTimingBuckets[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return DefaultTimingBuckets[len(DefaultTimingBuckets)-1]
}

// Registry is a concurrency-safe namespace of metrics. Lookups create
// the metric on first use, so instrumented code resolves metrics once
// and updates them lock-free afterwards. All methods are nil-safe: a
// nil registry resolves every name to a nil metric, which in turn
// no-ops every update.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timings  map[string]*Timing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timings:  make(map[string]*Timing),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Timing returns the named latency histogram, creating it if needed.
func (r *Registry) Timing(name string) *Timing {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timings[name]
	if t == nil {
		t = &Timing{}
		r.timings[name] = t
	}
	return t
}

// Snapshot returns a JSON-friendly view of every metric: counters map
// to their value, gauges to {value, peak}, histograms to
// {count, sum, buckets}, timings to {count, sum_seconds, p50, p99}.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.timings))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = map[string]int64{"value": g.Value(), "peak": g.Peak()}
	}
	for name, h := range r.hists {
		out[name] = map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": h.Buckets()}
	}
	for name, t := range r.timings {
		out[name] = map[string]any{
			"count": t.Count(), "sum_seconds": t.SumSeconds(),
			"p50": t.Quantile(0.5), "p99": t.Quantile(0.99),
		}
	}
	return out
}
