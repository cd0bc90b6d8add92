package obs

import "testing"

// The benchmark's phase windows read this shape: a counter and a gauge
// under their own name, a histogram as .count/.sum/.min/.max/.p50/.p90/.p99.
func TestFlattenSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("peer.http.requests.doc").Add(7)
	r.Gauge("engine.pool").Set(3)
	for _, v := range []int64{100, 200, 400, 800} {
		r.Histogram("peer.http.latency_ns.doc").Observe(v)
	}
	got := FlattenSnapshot(r)
	want := map[string]float64{
		"peer.http.requests.doc":         7,
		"engine.pool":                    3,
		"peer.http.latency_ns.doc.count": 4,
		"peer.http.latency_ns.doc.sum":   1500,
		"peer.http.latency_ns.doc.min":   100,
		"peer.http.latency_ns.doc.max":   800,
		"peer.http.latency_ns.doc.p50":   256,
		"peer.http.latency_ns.doc.p90":   1024,
		"peer.http.latency_ns.doc.p99":   1024,
	}
	if len(got) != len(want) {
		t.Errorf("flattened %d members, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if v, ok := got[name]; !ok || v != w {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, w)
		}
	}
	if FlattenSnapshot(nil) == nil || len(FlattenSnapshot(nil)) != 0 {
		t.Error("a nil registry must flatten to an empty map")
	}
}

func TestDiffVars(t *testing.T) {
	before := map[string]float64{
		"peer.served":  10,
		"lat_ns.count": 5,
		"lat_ns.sum":   500,
		"lat_ns.p99":   64,
		"gone.metric":  3,
		"lat_ns.max":   90,
	}
	after := map[string]float64{
		"peer.served":  25,
		"lat_ns.count": 9,
		"lat_ns.sum":   1700,
		"lat_ns.p99":   128,
		"lat_ns.max":   130,
		"fresh.metric": 6,
	}
	d := DiffVars(before, after)
	for name, want := range map[string]float64{
		"peer.served":  15,   // counter: delta
		"lat_ns.count": 4,    // histogram count: delta
		"lat_ns.sum":   1200, // histogram sum: delta
		"lat_ns.p99":   128,  // quantile: after value
		"lat_ns.max":   130,  // max: after value
		"fresh.metric": 6,    // absent before: diff against zero
	} {
		if d[name] != want {
			t.Errorf("diff[%s] = %v, want %v", name, d[name], want)
		}
	}
	if _, ok := d["gone.metric"]; ok {
		t.Error("metric only in before survived the diff")
	}
}

// A server restart mid-window resets its counters to zero; the diff must
// report the post-restart activity, never a negative delta (which would
// corrupt a benchmark phase's window).
func TestDiffVarsCounterReset(t *testing.T) {
	before := map[string]float64{
		"peer.served":         1000,
		"peer.http.bytes_out": 50000,
		"lat_ns.count":        400,
		"lat_ns.max":          90, // point-in-time: after value even when lower
		"steady.counter":      7,
	}
	after := map[string]float64{
		"peer.served":         42, // restarted: 42 requests since restart
		"peer.http.bytes_out": 0,  // restarted, nothing served yet
		"lat_ns.count":        13,
		"lat_ns.max":          50,
		"steady.counter":      9,
	}
	d := DiffVars(before, after)
	for name, want := range map[string]float64{
		"peer.served":         42,
		"peer.http.bytes_out": 0,
		"lat_ns.count":        13,
		"lat_ns.max":          50,
		"steady.counter":      2,
	} {
		if d[name] != want {
			t.Errorf("diff[%s] = %v, want %v", name, d[name], want)
		}
	}
	for name, v := range d {
		if v < 0 {
			t.Errorf("diff[%s] = %v: negative delta across a counter reset", name, v)
		}
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(100) // bucket upper bound 128
	}
	h.Observe(100000) // the single tail outlier, bucket upper bound 131072
	s := h.Snapshot()
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 128}, {0.999, 128}, {1.0, 131072}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}
