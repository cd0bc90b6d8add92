// Package obs is the observability substrate for the AXML engine and its
// distribution layers: counters, gauges and histograms cheap enough for
// the hot paths (sweep firing, merge funnel, journal appends, HTTP
// serving), a span tracer that writes one JSON event per line for
// offline schedule inspection, and HTTP exposure of both through
// expvar-compatible /debug/vars plus net/http/pprof.
//
// Everything is stdlib-only and nil-safe: a nil *Counter, *Gauge,
// *Histogram, *Tracer or *Registry no-ops every method, so call sites
// instrument unconditionally and pay a single predictable branch when
// observability is off. The paper's engine semantics never depend on any
// of this — metrics observe runs, they do not steer them.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// counterShards spreads hot counters across cache lines so concurrent
// workers do not serialize on one contended word. 8 covers the engine's
// default pools; beyond that the loss is slight imprecision of spread,
// not correctness.
const counterShards = 8

// padded is a cache-line-padded atomic cell (64-byte lines assumed; the
// padding is harmless where lines are shorter).
type padded struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotone sharded counter. The zero value is ready to use;
// a nil Counter no-ops.
type Counter struct {
	shards [counterShards]padded
	next   atomic.Uint32 // round-robin shard assignment seed
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is permitted but turns the counter into a
// sum; the engine only ever adds forward).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	// Cheap spread: successive Add calls from different goroutines tend
	// to land on different shards; exactness is not required, only
	// contention relief.
	i := c.next.Add(1) % counterShards
	c.shards[i].n.Add(n)
}

// Value sums the shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var v int64
	for i := range c.shards {
		v += c.shards[i].n.Load()
	}
	return v
}

// Gauge is a last-value metric (breaker state, pool size, queue depth).
// The zero value is ready; a nil Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value loads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0
// and v == 1 lands in bucket 1). 64 buckets cover the full int64 range,
// so nanosecond durations from single digits to decades all land.
const histBuckets = 64

// Histogram is a lock-free power-of-two-bucket histogram, intended for
// nanosecond durations but agnostic to unit. The zero value is ready; a
// nil Histogram no-ops. Concurrent Observe calls never block each other.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0; CAS-maintained
	max     atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First observation seeds min/max; racing observers fix them up
		// through the CAS loops below, so the seed only has to be
		// plausible, not exclusive.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records the elapsed nanoseconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// HistSnapshot is a point-in-time summary of a histogram. Quantiles are
// upper bounds of the containing power-of-two bucket — coarse (within
// 2x) but monotone and cheap, which is what schedule inspection needs.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`

	// buckets carries the raw counts so snapshots can be merged into
	// another histogram (see Histogram.Merge); not serialized.
	buckets [histBuckets]int64
}

// Snapshot captures the histogram. Under concurrent writers the counts
// are each atomically read but not mutually consistent; the drift is at
// most the handful of observations in flight during the scan.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.Count += s.buckets[i]
	}
	s.Sum = h.sum.Load()
	if s.Count == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.P50 = s.quantile(0.50)
	s.P90 = s.quantile(0.90)
	s.P99 = s.quantile(0.99)
	return s
}

// quantile returns the upper bound of the bucket containing the q-th
// observation (0 < q <= 1).
func (s *HistSnapshot) quantile(q float64) int64 {
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.buckets {
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0
			}
			if i >= 63 {
				return math.MaxInt64
			}
			return 1 << uint(i)
		}
	}
	return s.Max
}

// Merge folds a snapshot into the histogram — how an engine-local
// histogram (scoped to one run, reported in RunResult.Stats) also feeds
// a process-wide registry histogram without double-observing each event.
func (h *Histogram) Merge(s HistSnapshot) {
	if h == nil || s.Count == 0 {
		return
	}
	for i, n := range s.buckets {
		if n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.sum.Add(s.Sum)
	if h.count.Add(s.Count) == s.Count {
		h.min.Store(s.Min)
		h.max.Store(s.Max)
	} else {
		for {
			cur := h.min.Load()
			if s.Min >= cur {
				break
			}
			if h.min.CompareAndSwap(cur, s.Min) {
				break
			}
		}
		for {
			cur := h.max.Load()
			if s.Max <= cur {
				break
			}
			if h.max.CompareAndSwap(cur, s.Max) {
				break
			}
		}
	}
}
