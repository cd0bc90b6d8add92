package obs

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// The histogram is the hottest shared structure (every evaluation and
// merge observes into it); concurrent writers must neither race nor lose
// counts.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(int64(w*each + i + 1)) // values 1..workers*each
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Fatalf("count = %d, want %d", s.Count, workers*each)
	}
	if s.Min != 1 {
		t.Fatalf("min = %d, want 1", s.Min)
	}
	if s.Max != workers*each {
		t.Fatalf("max = %d, want %d", s.Max, workers*each)
	}
	wantSum := int64(workers*each) * int64(workers*each+1) / 2
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.P50 <= 0 || s.P50 > s.P90 || s.P90 > s.P99 {
		t.Fatalf("quantiles not monotone: p50=%d p90=%d p99=%d", s.P50, s.P90, s.P99)
	}
	if got := s.Sum / s.Count; got != wantSum/int64(workers*each) {
		t.Fatalf("mean = %d", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	// 100 observations of 5 (bucket 3: 4 <= v < 8): every quantile is the
	// bucket's upper bound 8.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	s := h.Snapshot()
	if s.P50 != 8 || s.P99 != 8 {
		t.Fatalf("p50=%d p99=%d, want 8 (bucket upper bound)", s.P50, s.P99)
	}
	if s.Min != 5 || s.Max != 5 {
		t.Fatalf("min=%d max=%d, want 5", s.Min, s.Max)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, merged Histogram
	for i := int64(1); i <= 100; i++ {
		a.Observe(i)
		merged.Observe(i)
	}
	for i := int64(1000); i <= 1100; i++ {
		b.Observe(i)
		merged.Observe(i)
	}
	var via Histogram
	via.Merge(a.Snapshot())
	via.Merge(b.Snapshot())
	got, want := via.Snapshot(), merged.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum ||
		got.Min != want.Min || got.Max != want.Max ||
		got.P50 != want.P50 || got.P99 != want.P99 {
		t.Fatalf("merged snapshot %+v, want %+v", got, want)
	}
}

// Nil receivers must no-op: instrumented code calls metrics
// unconditionally and relies on this instead of branching.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot")
	}
	h.Merge(HistSnapshot{Count: 1})

	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot")
	}

	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	tr.Emit(Span{Kind: "call"})
	tr.SetSample(2)
	if tr.Now() != 0 || tr.Err() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer accessors")
	}
}
