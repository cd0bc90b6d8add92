package main

// metric is one declared metric; BENCHMARK.json lists the same names,
// units, directions and bounds (TestBenchmarkJSONMatches keeps the two
// in step).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload reports every one; what "primary" and
// "secondary" operation mean per workload is in README.md. Bound is the
// share of the parent's median a metric may worsen by. The timing
// bounds are as wide as the driver allows because the recording box
// itself drifts: the same binary and seed, minutes apart, differs by
// 10–15 % on every timing at once (README.md, "How steady it is").
// Tail percentiles spread wider than that and are reported ungated, as
// latency.* in perLayer.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"primary_p50_ms", "ms", "lower", 0.25},
	{"secondary_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
}

// perLayer is the ledger of the traced run: counts read from
// RunResult.Stats and the peers' registries, span self times, and
// kernels timed in isolation. A layer a workload does not reach reads
// 0. The e2e.* entries are exact end-to-end costs that only one
// workload has, so they cannot sit in endToEnd; the latency.* entries
// are the two operations' tails on the run's untraced reference pass.
var perLayer = []metric{
	{Name: "core.calls_fired", Unit: "count", Better: "lower"},
	{Name: "core.calls_sterile", Unit: "count", Better: "higher"},
	{Name: "core.delta_evals", Unit: "count", Better: "higher"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.useful_call_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.service_ms", Unit: "ms", Better: "lower"},
	{Name: "core.engine_self_ms", Unit: "ms", Better: "lower"},
	{Name: "query.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "pattern.match_us", Unit: "us", Better: "lower"},
	{Name: "pattern.index_hits", Unit: "count", Better: "higher"},
	{Name: "pattern.index_misses", Unit: "count", Better: "lower"},
	{Name: "subsume.append_reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "subsume.append_reduce_small_ms", Unit: "ms", Better: "lower"},
	{Name: "subsume.union_ms", Unit: "ms", Better: "lower"},
	{Name: "subsume.append_growth", Unit: "ratio", Better: "lower"},
	{Name: "tree.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.wire.marshal_tree_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.wire.unmarshal_tree_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.wire.envelope_us", Unit: "us", Better: "lower"},
	{Name: "peer.delta.prune_since_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.delta.apply_patch_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.delta.served_same", Unit: "count", Better: "higher"},
	{Name: "peer.delta.served_patch", Unit: "count", Better: "higher"},
	{Name: "peer.delta.served_full", Unit: "count", Better: "lower"},
	{Name: "peer.http.doc_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.http.delta_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.http.invoke_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.http.hash_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.http.push_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.http.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.http.bytes_out_per_op", Unit: "bytes", Better: "lower"},
	{Name: "peer.client.codec_ms", Unit: "ms", Better: "lower"},
	{Name: "net.roundtrip_self_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.mirror.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.mirror.apply_self_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.mirror.delta_fallbacks", Unit: "count", Better: "lower"},
	{Name: "peer.push.ack_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.bytes_per_write", Unit: "bytes", Better: "lower"},
	{Name: "journal.fsyncs_per_write", Unit: "count", Better: "lower"},
	{Name: "journal.snapshots", Unit: "count", Better: "lower"},
	{Name: "journal.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "journal.replayed_records", Unit: "count", Better: "lower"},
	{Name: "journal.write_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.open_read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_achieved_rps", Unit: "1/s", Better: "higher"},
	{Name: "latency.primary_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "latency.secondary_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "e2e.wire_bytes_per_append", Unit: "bytes", Better: "lower"},
	{Name: "e2e.journal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "e2e.write_p99_ms", Unit: "ms", Better: "lower"},
}

// exactOn reports whether a per-layer metric is an exact count on the
// workload: two runs of the same code and seed must then agree to the
// last digit (the -repeat self-check enforces it). Counts on
// tc-fixpoint are medians over a two-worker engine and fleet-serve has
// two concurrent callers, so neither is exact.
func exactOn(name, workload string) bool {
	switch workload {
	case "portal-sweep":
		switch name {
		case "core.calls_fired", "core.calls_sterile", "core.delta_evals", "core.rounds", "core.useful_call_ratio":
			return true
		}
	case "append-replicate":
		switch name {
		case "e2e.wire_bytes_per_append", "peer.http.bytes_out_per_op", "peer.mirror.delta_fallbacks",
			"peer.delta.served_same", "peer.delta.served_patch", "peer.delta.served_full":
			return true
		}
	case "durable-ingest":
		switch name {
		case "e2e.journal_bytes_per_user_byte", "journal.bytes_per_write", "journal.fsyncs_per_write",
			"journal.snapshots", "journal.snapshot_bytes", "journal.replayed_records":
			return true
		}
	}
	return false
}
