package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval or point event. Timestamps are
// microseconds relative to the tracer's start, so traces are compact,
// diffable and free of wall-clock skew between events.
//
// Kinds emitted by the instrumented layers:
//
//	sweep   one engine sweep          (attrs: pending, fired, sterile, steps, failures)
//	drain   one worklist drain, the sweep-equivalent of a run at
//	        Parallelism > 1  (attrs: enqueues, coalesced, fired,
//	        sterile, steps, parked)
//	call    one service evaluation    (name = service)
//	merge   one result merge          (attrs: wait_us = funnel wait; step)
//	sync    one mirror sync           (name = local doc; attrs: changed)
//	push    one push-mode delivery    (name = subscription id; attrs: trees)
//	fsync   one journal fsync batch   (attrs: records)
//	snapshot one snapshot compaction  (attrs: bytes)
//	http    one served peer endpoint request (name = endpoint; attrs: status)
//
// Schema v2 adds the causal identity triplet: Trace groups every span a
// single logical write produced anywhere in the fleet (W3C trace ID, 32
// hex chars), Span names this span (16 hex chars) and Parent names the
// span that caused it — empty for a trace root. Spans emitted by
// uninstrumented paths simply omit all three; v1 consumers that ignore
// unknown fields keep working.
type Span struct {
	Kind   string           `json:"kind"`
	Name   string           `json:"name,omitempty"`
	Trace  string           `json:"trace,omitempty"`
	Span   string           `json:"span,omitempty"`
	Parent string           `json:"parent,omitempty"`
	Sweep  int              `json:"sweep,omitempty"`
	TSUs   int64            `json:"ts_us"`
	DurUs  int64            `json:"dur_us"`
	Err    string           `json:"err,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// WithContext stamps the span's causal identity from a child context and
// its parent: s.Trace/s.Span come from sc, s.Parent from parent.Span when
// the parent is valid. Returns s for call-site chaining.
func (s Span) WithContext(sc, parent SpanContext) Span {
	if sc.Valid() {
		s.Trace, s.Span = sc.Trace, sc.Span
	}
	if parent.Valid() {
		s.Parent = parent.Span
	}
	return s
}

// Tracer serializes spans to a writer, one JSON object per line —
// loadable by scripts/trace-summarize.sh or any JSONL tool. A nil
// Tracer no-ops every method, so instrumented code emits
// unconditionally. Safe for concurrent use; emission order is the
// serialization order, which under parallel firing is not necessarily
// span start order (sort by ts_us offline).
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	start time.Time
	err   error

	// sample admits every n-th call span (1 = all). Sweep, merge and the
	// coarser layer spans are never sampled away: there are few of them
	// and they carry the aggregate attributes.
	sample  int64
	dropped atomic.Int64
	seen    atomic.Int64
}

// NewTracer wraps w. The caller owns w's lifetime (close files after
// the traced work completes).
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, enc: json.NewEncoder(w), start: time.Now(), sample: 1}
}

// SetSample keeps one call span in every n (n < 1 is treated as 1).
func (t *Tracer) SetSample(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.sample = int64(n)
	t.mu.Unlock()
}

// Enabled reports whether spans will actually be written — false for a
// nil tracer or one whose writer already failed. Use it to skip
// expensive attribute assembly.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err == nil
}

// Now returns the tracer-relative timestamp (µs) for a span being
// assembled; 0 for a nil tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start) / time.Microsecond)
}

// Emit writes one span. Write errors are sticky: the first one disables
// the tracer (observability must not take down the engine) and is
// reported by Err.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	if s.Kind == "call" {
		n := t.seen.Add(1)
		t.mu.Lock()
		sample := t.sample
		t.mu.Unlock()
		if sample > 1 && n%sample != 0 {
			t.dropped.Add(1)
			return
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(s)
}

// Err returns the sticky write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Dropped returns how many call spans sampling discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}
