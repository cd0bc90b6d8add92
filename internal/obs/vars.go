package obs

import "strings"

// Snapshot diffing: the benchmark's workloads flatten their peers'
// registries before and after a phase and want what moved in that
// window — requests served, bytes moved, calls fired. Counters diff by
// subtraction; point-in-time members (histogram min/max/quantiles are not
// additive) keep their "after" value. A gauge flattens like a counter and
// diffs like one.

// pointInTimeSuffixes marks flattened members that are not monotone
// accumulations; DiffVars reports their after-value unchanged.
var pointInTimeSuffixes = []string{".min", ".max", ".p50", ".p90", ".p99"}

func isPointInTime(name string) bool {
	for _, s := range pointInTimeSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// FlattenSnapshot renders a registry's current state as name -> number:
// counters and gauges under their own name, each histogram as name.count,
// name.sum, name.min, name.max, name.p50, name.p90 and name.p99. Nil-safe
// like the rest of the package.
func FlattenSnapshot(r *Registry) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range r.Snapshot() {
		switch v := v.(type) {
		case int64:
			out[name] = float64(v)
		case HistSnapshot:
			out[name+".count"] = float64(v.Count)
			out[name+".sum"] = float64(v.Sum)
			out[name+".min"] = float64(v.Min)
			out[name+".max"] = float64(v.Max)
			out[name+".p50"] = float64(v.P50)
			out[name+".p90"] = float64(v.P90)
			out[name+".p99"] = float64(v.P99)
		}
	}
	return out
}

// DiffVars subtracts a before-snapshot from an after-snapshot: monotone
// members (counters, histogram counts and sums) become the delta over
// the window, point-in-time members (min/max/quantiles) keep the after
// value, and members absent from before diff against zero. Keys only in
// before are dropped — a metric that stopped being exported has no
// meaningful window value.
//
// A monotone member that went backwards means the server restarted
// inside the window (its counters restarted from zero); the after-value
// is then the activity since restart and is reported as the delta —
// an undercount of the window, never a negative.
func DiffVars(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for name, a := range after {
		if isPointInTime(name) {
			out[name] = a
			continue
		}
		d := a - before[name]
		if d < 0 {
			d = a
		}
		out[name] = d
	}
	return out
}
