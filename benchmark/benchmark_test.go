package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"axml/internal/peer"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{50, 10, 40, 20, 30} // arrival order, not sorted
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {95, 50}, {100, 50},
	} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even count = %v, want the lower middle sample 2", got)
	}
	if samples[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	at := func(name, id, parent string, start, end int) span {
		return span{name: name, trace: "t1", id: id, parent: parent,
			start: time.Duration(start) * time.Millisecond, end: time.Duration(end) * time.Millisecond}
	}
	ops := summarize([]span{
		at("op", "r", "", 0, 100),
		at("client.doc", "a", "r", 10, 40),
		at("http.roundtrip", "g", "a", 15, 20),
		at("client.doc", "b", "r", 30, 60), // overlaps a by 10 ms
		at("late", "c", "r", 90, 120),      // outlives the root by 20 ms
		{name: "orphan", trace: "t2", id: "x", parent: "gone"},
	})
	if len(ops) != 1 {
		t.Fatalf("got %d operations, want 1 (a trace without a root is dropped)", len(ops))
	}
	o := ops[0]
	want := map[string]time.Duration{
		"op":             40 * time.Millisecond, // 100 − |[10,60] ∪ [90,100]|
		"client.doc":     55 * time.Millisecond, // (30 − 5) + 30
		"http.roundtrip": 5 * time.Millisecond,
		"late":           30 * time.Millisecond,
	}
	got := map[string]time.Duration{}
	for _, s := range o.spans {
		got[s.name] += s.self
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	// 130 ms of self time against a 100 ms root: the overlap (10) and
	// the overhang (20) are what is unattributed.
	if got := o.unattributed(); got < 0.2999 || got > 0.3001 {
		t.Errorf("unattributed = %v, want 0.30", got)
	}
	v := traceView(ops)
	if got := v.perOp("op", "client."); len(got) != 1 || got[0] != 55 {
		t.Errorf("perOp(client.) = %v, want [55]", got)
	}
	if got := v.perSpan("client.doc", false); len(got) != 2 || got[0]+got[1] != 60 {
		t.Errorf("perSpan(client.doc) durations = %v, want 30 and 30", got)
	}
}

func TestSequentialSelfTimesSumToRoot(t *testing.T) {
	rec := newRecorder()
	ctx, endRoot := rec.start(context.Background(), "op")
	for i := 0; i < 3; i++ {
		cctx, end := rec.start(ctx, "child")
		_, endInner := rec.start(cctx, "inner")
		endInner()
		end()
	}
	endRoot()
	ops := summarize(rec.snapshot())
	if len(ops) != 1 || len(ops[0].spans) != 7 {
		t.Fatalf("recorded %+v", ops)
	}
	if ops[0].selfSum != ops[0].root.dur() {
		t.Errorf("nested sequential spans: self times sum to %v, root is %v", ops[0].selfSum, ops[0].root.dur())
	}
}

func TestPlanDeterminism(t *testing.T) {
	a, b := newPlanner(7).plan(500), newPlanner(7).plan(500)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a, newPlanner(8).plan(500)) {
		t.Error("different seeds gave the same plan")
	}
	var byKind [len(opNames)]int
	for _, op := range a {
		byKind[op.kind]++
		if op.target < 0 || op.target >= fleetPeers || op.doc < 0 || op.doc >= fleetDocs || op.key < 0 || op.key >= fleetKeys {
			t.Fatalf("operation out of range: %+v", op)
		}
	}
	for k, n := range byKind {
		if n == 0 {
			t.Errorf("500 operations and no %s", opNames[k])
		}
	}
}

func TestCrashImageCutsTheJournal(t *testing.T) {
	src, dst := filepath.Join(t.TempDir(), "live"), filepath.Join(t.TempDir(), "crash")
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	wal, snap := bytes.Repeat([]byte{'w'}, 100), bytes.Repeat([]byte{'s'}, 40)
	for name, data := range map[string][]byte{peer.JournalFile: wal, peer.SnapshotFile: snap} {
		if err := os.WriteFile(filepath.Join(src, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := crashImage(src, dst, 60); err != nil {
		t.Fatal(err)
	}
	size := func(dir, name string) int64 {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if got := size(dst, peer.JournalFile); got != 60 {
		t.Errorf("copied journal is %d bytes, want it cut to the acknowledged 60", got)
	}
	if got := size(dst, peer.SnapshotFile); got != 40 {
		t.Errorf("copied snapshot is %d bytes, want all 40", got)
	}
	if got := size(src, peer.JournalFile); got != 100 {
		t.Errorf("the live journal was touched: %d bytes", got)
	}
	// An acknowledged length at or past the end leaves the copy whole.
	if err := crashImage(src, dst, 100); err != nil {
		t.Fatal(err)
	}
	if got := size(dst, peer.JournalFile); got != 100 {
		t.Errorf("copied journal is %d bytes, want 100", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's own
// metric and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nin metrics.go:\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from metrics.go")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs all five workloads, both runs, at a twentieth of the
// operation counts with every correctness check on.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: 0.5, outDir: t.TempDir(), quick: true}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			o, err := runPass(w, cfg, traced)
			t.Logf("%s (traced %v): %d operations in %v", w.name, traced, o.Attempted, time.Since(t0).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if o.Failed != 0 || o.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.name, traced, o.Failed, o.Attempted, o.Failures)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			for _, m := range declared {
				v, ok := o.Metrics[m.Name]
				if !ok {
					t.Errorf("%s: metric %s missing", w.name, m.Name)
				}
				if !traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.name, m.Name, v)
				}
			}
			if len(o.Metrics) != len(declared) {
				t.Errorf("%s (traced %v): %d metrics reported, %d declared", w.name, traced, len(o.Metrics), len(declared))
			}
		}
		spans, err := os.ReadFile(filepath.Join(cfg.outDir, w.name+"-seed1.spans.jsonl"))
		if err != nil || !strings.Contains(string(spans), `"trace"`) {
			t.Errorf("%s: no span file written (%v)", w.name, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(cfg.outDir, "data-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestDriverResultLine checks the one-workload form: the last line of
// standard output is the result object, with every declared metric.
func TestDriverResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "tc-fixpoint", "-trace", "0", "-seed", "3", "-seconds", "0.5", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]value
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
	for _, m := range endToEnd {
		if got := res.Metrics[m.Name]; got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("%s = %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}
	if !strings.HasPrefix(lines[0], "env {") {
		t.Errorf("first line %q is not the environment stamp", lines[0])
	}
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload was accepted")
	}
}
