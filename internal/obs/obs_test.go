package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestNilZeroAlloc is the zero-overhead contract: the full instrumented
// call surface — spans, attributes, every metric kind, registry lookups
// — must allocate nothing when no observer is installed.
func TestNilZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(200, func() {
		var o *Observer
		sp := o.Span("stage", "pipeline")
		child := sp.Child("sub", "x")
		child.SetInt("k", 1)
		child.SetStr("s", "v")
		_ = child.Descendants()
		child.End()
		sp.End()
		o.Counter(MSATDecisions).Add(1)
		o.Gauge(MBDDLiveNodes).Set(5)
		_ = o.Gauge(MBDDLiveNodes).Peak()
		o.Histogram(MSATLearnedSize).Observe(3)

		var r *Registry
		r.Counter("c").Add(1)
		r.Gauge("g").Set(2)
		r.Histogram("h").Observe(4)
		_ = r.Snapshot()

		var tr *Tracer
		tr.Start("root", "cat").End()
	})
	if allocs != 0 {
		t.Fatalf("nil observer allocated %.1f bytes/op, want 0", allocs)
	}
}

func TestSpanHierarchyConcurrent(t *testing.T) {
	const workers, perWorker = 8, 50
	buf := NewTraceBuffer()
	tr := NewTracer(buf)
	root := tr.Start("root", "pipeline")
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				sp := root.Child("work", "test")
				sp.SetInt("worker", int64(i))
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	if got, want := buf.Len(), workers*perWorker+1; got != want {
		t.Fatalf("got %d events, want %d", got, want)
	}
	if got, want := root.Descendants(), workers*perWorker; got != want {
		t.Fatalf("root.Descendants() = %d, want %d", got, want)
	}
}

func TestEndIdempotent(t *testing.T) {
	buf := NewTraceBuffer()
	sp := NewTracer(buf).Start("s", "c")
	sp.End()
	sp.End()
	if buf.Len() != 1 {
		t.Fatalf("double End emitted %d events, want 1", buf.Len())
	}
}

func TestDescendantsTransitive(t *testing.T) {
	tr := NewTracer(NewTraceBuffer())
	root := tr.Start("root", "")
	mid := root.Child("mid", "")
	mid.Child("leaf", "").End()
	mid.Child("leaf", "").End()
	mid.End()
	if got := root.Descendants(); got != 3 {
		t.Fatalf("root.Descendants() = %d, want 3", got)
	}
	if got := mid.Descendants(); got != 2 {
		t.Fatalf("mid.Descendants() = %d, want 2", got)
	}
}

// stepClock returns a deterministic trace clock ticking 1ms per call,
// starting at 0.
func stepClock() func() time.Duration {
	var n time.Duration
	return func() time.Duration {
		n += time.Millisecond
		return n - time.Millisecond
	}
}

func TestChromeTraceGolden(t *testing.T) {
	buf := NewTraceBuffer()
	tr := NewTracer(buf)
	tr.SetClock(stepClock())

	root := tr.Start("functional", "pipeline") // t=0
	sp := root.Child("schedule", "stage")      // t=1ms
	sp.SetInt("nodes", 42)
	sp.SetStr("status", "SAT")
	sp.End()   // t=2ms
	root.End() // t=3ms

	var got bytes.Buffer
	if err := buf.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trace mismatch\n--- got ---\n%s\n--- want (%s) ---\n%s", got.Bytes(), golden, want)
	}

	// The document must round-trip as valid JSON with the expected shape.
	var doc struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("unexpected document: %+v", doc)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var got bytes.Buffer
	if err := WriteChromeTrace(&got, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Fatalf("empty trace must serialize traceEvents as []: %s", got.Bytes())
	}
}

func TestJSONLSink(t *testing.T) {
	var w bytes.Buffer
	tr := NewTracer(NewJSONLSink(&w))
	root := tr.Start("a", "x")
	root.Child("b", "y").End()
	root.End()
	lines := bytes.Split(bytes.TrimSpace(w.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if e.Ph != "X" {
			t.Fatalf("line %d: ph = %q, want X", i, e.Ph)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Counter("c").Add(3)
	if got := r.Counter("c").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 || g.Peak() != 7 {
		t.Fatalf("gauge value=%d peak=%d, want 3/7", g.Value(), g.Peak())
	}

	h := r.Histogram("h")
	for _, v := range []int64{1, 2, 3, 8} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 14 {
		t.Fatalf("hist count=%d sum=%d, want 4/14", h.Count(), h.Sum())
	}
	want := map[int64]int64{1: 1, 2: 1, 4: 1, 8: 1}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}

	snap := r.Snapshot()
	if snap["c"].(int64) != 5 {
		t.Fatalf("snapshot counter = %v", snap["c"])
	}
	if gv := snap["g"].(map[string]int64); gv["value"] != 3 || gv["peak"] != 7 {
		t.Fatalf("snapshot gauge = %v", gv)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Set(int64(j))
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Peak(); got != 999 {
		t.Fatalf("gauge peak = %d, want 999", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
