// Package obs is the engine's observability layer: a registry of
// atomically updated named metrics (counters, gauges, histograms)
// exported in the OpenMetrics text format, and a hierarchical span
// tracer with pluggable sinks (a JSONL event log and a Chrome
// trace_event export that renders as a flame chart in Perfetto or
// chrome://tracing).
//
// Everything is nil-safe by design: every method on a nil *Span,
// *Counter, *Gauge, *Histogram, *Registry or *Observer is a no-op that
// performs zero allocations, so instrumented code carries observability
// hooks unconditionally and pays nothing when no Observer is installed.
// The package depends only on the standard library, so every layer of
// the engine (bdd, sat, aig, fsm, core, pipeline) can import it without
// cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Observer bundles the two observability channels a fold can be run
// under: span tracing (Tracer) and the metrics registry (Metrics).
// Either field may be nil independently; a nil *Observer disables both.
type Observer struct {
	// Tracer receives the hierarchical spans (pipeline, stage, and
	// sub-stage: BDD sift rounds, SAT solve calls, sweep rounds, TFF
	// frames, MeMin iterations).
	Tracer *Tracer
	// Metrics is the counter/gauge/histogram registry the engine's
	// layers update (see the M* name constants).
	Metrics *Registry
}

// Span opens a root span on the observer's tracer, or returns nil when
// tracing is off.
func (o *Observer) Span(name, cat string) *Span {
	if o == nil || o.Tracer == nil {
		return nil
	}
	return o.Tracer.Start(name, cat)
}

// Counter resolves a named counter, or nil when metrics are off.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge resolves a named gauge, or nil when metrics are off.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram resolves a named histogram, or nil when metrics are off.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// Event is one finished span in the Chrome trace_event "complete"
// format: timestamps and durations are microseconds from the trace
// start. Args marshal with sorted keys (encoding/json map order), so
// serialized traces are deterministic given deterministic spans.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Sink receives finished spans. Implementations must be safe for
// concurrent use: spans end from worker goroutines.
type Sink interface {
	Emit(Event)
}

// Tracer turns spans into events on a sink. The zero value is not
// usable; call NewTracer.
type Tracer struct {
	sink  Sink
	start time.Time
	clock func() time.Duration // test hook; nil means time.Since(start)
}

// NewTracer returns a tracer emitting to sink. The trace clock starts
// now.
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink, start: time.Now()}
}

// SetClock replaces the trace clock (an offset from the trace start)
// for deterministic tests. Pass nil to restore the wall clock.
func (t *Tracer) SetClock(f func() time.Duration) { t.clock = f }

func (t *Tracer) now() time.Duration {
	if t.clock != nil {
		return t.clock()
	}
	return time.Since(t.start)
}

// Start opens a root span.
func (t *Tracer) Start(name, cat string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, start: t.now()}
}

// Span is one timed region of work. Spans form a hierarchy via Child.
// A span's attribute setters must be called from one goroutine at a
// time, but distinct spans (e.g. one per worker) may run concurrently.
// All methods are no-ops on a nil receiver.
type Span struct {
	t      *Tracer
	parent *Span
	name   string
	cat    string
	start  time.Duration
	desc   atomic.Int64 // descendant span count
	ended  atomic.Bool
	args   map[string]any
}

// Child opens a sub-span. It is safe to call from a different goroutine
// than the parent's.
func (s *Span) Child(name, cat string) *Span {
	if s == nil {
		return nil
	}
	for a := s; a != nil; a = a.parent {
		a.desc.Add(1)
	}
	return &Span{t: s.t, parent: s, name: name, cat: cat, start: s.t.now()}
}

// Descendants returns the number of spans opened (transitively) under
// this one.
func (s *Span) Descendants() int {
	if s == nil {
		return 0
	}
	return int(s.desc.Load())
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = v
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = v
}

// End closes the span and emits it to the sink. Ending twice emits
// once.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	end := s.t.now()
	s.t.sink.Emit(Event{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		TS:   Micros(s.start),
		Dur:  Micros(end - s.start),
		PID:  1,
		TID:  1,
		Args: s.args,
	})
}

// Micros converts a duration to trace_event microseconds.
func Micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// JSONLSink writes one JSON event per line, flushed as each span ends,
// so an aborted run leaves a readable partial log.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes the event as one JSON line. Encoding errors are dropped:
// tracing must never fail the traced work.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}

// TraceBuffer collects events in memory for a post-run Chrome trace
// export.
type TraceBuffer struct {
	mu     sync.Mutex
	events []Event
}

// NewTraceBuffer returns an empty buffer.
func NewTraceBuffer() *TraceBuffer { return &TraceBuffer{} }

// Emit appends the event.
func (b *TraceBuffer) Emit(e Event) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Events returns a snapshot of the collected events.
func (b *TraceBuffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Len returns the number of collected events.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// WriteChromeTrace serializes the collected events as a Chrome
// trace-event JSON object loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
func (b *TraceBuffer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, b.Events())
}

// chromeTrace is the JSON object format of the trace_event spec.
type chromeTrace struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteChromeTrace writes events in the Chrome trace-event JSON object
// format.
func WriteChromeTrace(w io.Writer, events []Event) error {
	if events == nil {
		events = []Event{}
	}
	data, err := json.MarshalIndent(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
