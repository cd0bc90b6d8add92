package loadgen

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func validScenarioJSON() string {
	return `{
		"name": "read-heavy",
		"targets": ["http://127.0.0.1:1", "http://127.0.0.1:2"],
		"ops": [
			{"kind": "doc", "weight": 4},
			{"kind": "delta", "weight": 2},
			{"kind": "invoke", "service": "Lookup"},
			{"kind": "hashes"},
			{"kind": "push", "push_id": "ingest"}
		],
		"docs": ["d00", "d01", "d02"],
		"mode": "open",
		"rate": 100,
		"duration": "250ms",
		"slo": {"p99": "50ms", "p999": 100000000}
	}`
}

func TestParseScenario(t *testing.T) {
	s, err := ParseScenario([]byte(validScenarioJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "read-heavy" || len(s.Targets) != 2 || len(s.Ops) != 5 {
		t.Fatalf("parsed shape wrong: %+v", s)
	}
	if s.Duration.D() != 250*time.Millisecond {
		t.Errorf("duration = %v, want 250ms", s.Duration.D())
	}
	if s.SLO.P99.D() != 50*time.Millisecond {
		t.Errorf("slo p99 = %v, want 50ms", s.SLO.P99.D())
	}
	if s.SLO.P999.D() != 100*time.Millisecond {
		t.Errorf("numeric-ns slo p999 = %v, want 100ms", s.SLO.P999.D())
	}
	// Defaults applied by parsing.
	if s.Mode != "open" || s.Workers != 8 || s.MaxInFlight != 1024 || s.Seed != 1 {
		t.Errorf("defaults not applied: %+v", s)
	}
	if s.ZipfS != 1.2 || s.ZipfV != 1 {
		t.Errorf("zipf defaults not applied: s=%v v=%v", s.ZipfS, s.ZipfV)
	}
	if s.Ops[2].Weight != 1 {
		t.Errorf("default op weight = %v, want 1", s.Ops[2].Weight)
	}
}

func TestParseScenarioRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"targets":["u"],"ops":[{"kind":"hashes"}],"rate":1,"duration":"1s","typo_knob":3}`,
		"no targets":       `{"targets":[],"ops":[{"kind":"hashes"}],"rate":1,"duration":"1s"}`,
		"no ops":           `{"targets":["u"],"ops":[],"rate":1,"duration":"1s"}`,
		"unknown kind":     `{"targets":["u"],"ops":[{"kind":"mystery"}],"rate":1,"duration":"1s"}`,
		"open needs rate":  `{"targets":["u"],"ops":[{"kind":"hashes"}],"duration":"1s"}`,
		"unknown mode":     `{"targets":["u"],"ops":[{"kind":"hashes"}],"mode":"ajar","rate":1,"duration":"1s"}`,
		"no duration":      `{"targets":["u"],"ops":[{"kind":"hashes"}],"rate":1}`,
		"doc needs docs":   `{"targets":["u"],"ops":[{"kind":"doc"}],"rate":1,"duration":"1s"}`,
		"invoke needs svc": `{"targets":["u"],"ops":[{"kind":"invoke"}],"rate":1,"duration":"1s"}`,
		"push needs id":    `{"targets":["u"],"ops":[{"kind":"push"}],"rate":1,"duration":"1s"}`,
		"bad duration":     `{"targets":["u"],"ops":[{"kind":"hashes"}],"rate":1,"duration":"sideways"}`,
	}
	for name, src := range cases {
		if _, err := ParseScenario([]byte(src)); err == nil {
			t.Errorf("%s: parse accepted %s", name, src)
		}
	}
	// A pinned doc lifts the docs-universe requirement.
	ok := `{"targets":["u"],"ops":[{"kind":"doc","doc":"d0"}],"rate":1,"duration":"1s"}`
	if _, err := ParseScenario([]byte(ok)); err != nil {
		t.Errorf("pinned doc rejected: %v", err)
	}
}

// The open-loop arrival schedule is a pure function of (seed, rate,
// horizon): replaying a run must replay its arrivals exactly.
func TestPoissonScheduleDeterministic(t *testing.T) {
	a := PoissonSchedule(42, 500, 2*time.Second)
	b := PoissonSchedule(42, 500, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := PoissonSchedule(43, 500, 2*time.Second)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}

	// Count concentrates around rate*horizon (sigma = sqrt(1000) ~ 32);
	// 5 sigma keeps this deterministic-in-practice without being tight.
	want := 1000.0
	if got := float64(len(a)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("arrival count %v too far from %v", got, want)
	}
	// Offsets are sorted and inside the horizon.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	if a[len(a)-1] >= 2*time.Second {
		t.Errorf("arrival beyond horizon: %v", a[len(a)-1])
	}
}

// Zipf popularity must actually skew: the hottest document draws an
// outsized share, and rank order follows index order.
func TestPopularitySkew(t *testing.T) {
	const n, draws = 20, 20000
	pop := NewPopularity(rand.New(rand.NewSource(7)), 1.2, 1, n)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[pop.Pick()]++
	}
	if frac := float64(counts[0]) / draws; frac < 0.25 {
		t.Errorf("hottest doc drew %.2f of traffic, want >= 0.25 at s=1.2", frac)
	}
	if counts[0] <= counts[n-1]*2 {
		t.Errorf("head (%d) not clearly hotter than tail (%d)", counts[0], counts[n-1])
	}
}

// The planner's request stream is deterministic for a seed and respects
// op weights roughly.
func TestPlannerDeterministicAndWeighted(t *testing.T) {
	s, err := ParseScenario([]byte(validScenarioJSON()))
	if err != nil {
		t.Fatal(err)
	}
	a := newPlanner(&s, 9).plan(5000)
	b := newPlanner(&s, 9).plan(5000)
	counts := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across same-seed planners", i)
		}
		counts[a[i].op.Kind]++
		if a[i].target < 0 || a[i].target >= len(s.Targets) {
			t.Fatalf("request %d target out of range: %d", i, a[i].target)
		}
		switch a[i].op.Kind {
		case OpDoc, OpDelta:
			if a[i].doc == "" {
				t.Fatalf("request %d (%s) has no doc", i, a[i].op.Kind)
			}
		}
	}
	// Weights 4:2:1:1:1 over 5000 requests — doc should dominate delta,
	// delta should dominate the weight-1 ops, with generous slack.
	if counts[OpDoc] <= counts[OpDelta] || counts[OpDelta] <= counts[OpInvoke] {
		t.Errorf("weighted mix out of order: %v", counts)
	}
}

// The smoke test: a 3-peer in-process fleet must sustain a modest
// open-loop mixed workload with zero errors, and the server-side
// correlation must see the requests land. This is the `make verify`
// guard that the whole loadgen path — scenario, schedule, typed client,
// fleet, metrics scrape — works end to end.
func TestFleetSmoke(t *testing.T) {
	fleet, err := StartFleet(FleetConfig{Peers: 3, Docs: 6, Entries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	sc := mixScenario(fleet, 6, 150, 1200*time.Millisecond)
	sc.SLO = SLO{P999: Duration(5 * time.Second)} // sanity ceiling, not a perf claim
	r := &Runner{Scenario: sc, Registries: fleet.Registries}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("smoke run had %d errors (of %d): %v", res.Errors, res.Sent, res.FirstErrors)
	}
	if res.Sent < 100 {
		t.Fatalf("smoke run sent only %d requests", res.Sent)
	}
	if !res.SLOPass() {
		t.Errorf("smoke run violated sanity SLO: %v", res.SLOViolations)
	}
	if res.AchievedRPS < 0.8*150 {
		t.Errorf("achieved %.0f rps, want >= 80%% of 150", res.AchievedRPS)
	}
	// Per-op stats exist for every mixed kind.
	for _, kind := range []string{OpDoc, OpDelta, OpInvoke, OpHashes, OpPush} {
		st, ok := res.PerOp[kind]
		if !ok || st.Sent == 0 {
			t.Errorf("op %s missing from per-op stats: %+v", kind, st)
		}
	}
	// Server-side correlation: the fleet's request counters must account
	// for (at least) what we sent — every request hit some peer.
	var served float64
	for k, v := range res.Server {
		if strings.Contains(k, "peer.http.requests.") {
			served += v
		}
	}
	if served < float64(res.Sent) {
		t.Errorf("server counters saw %.0f requests, client sent %d", served, res.Sent)
	}
}

// Closed-loop mode drives with a worker pool and still records cleanly.
func TestFleetClosedLoop(t *testing.T) {
	fleet, err := StartFleet(FleetConfig{Peers: 2, Docs: 4, Entries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	sc := mixScenario(fleet, 4, 0, 400*time.Millisecond)
	sc.Mode = "closed"
	sc.Workers = 4
	sc.Think = Duration(2 * time.Millisecond)
	r := &Runner{Scenario: sc, Registries: fleet.Registries}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("closed-loop run had %d errors: %v", res.Errors, res.FirstErrors)
	}
	if res.Sent == 0 {
		t.Fatal("closed-loop run sent nothing")
	}
}

// The capacity search finds a sustained rate on a tiny fleet quickly.
func TestSearchFindsCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity search is seconds-long")
	}
	fleet, err := StartFleet(FleetConfig{Peers: 2, Docs: 4, Entries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	r := &Runner{Scenario: mixScenario(fleet, 4, 0, 0)}
	capr, err := r.Search(context.Background(),
		SearchConfig{Start: 20, Factor: 4, Max: 80, Trial: 300 * time.Millisecond, Refine: 1},
		t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if capr.MaxRPS < 20 {
		t.Fatalf("capacity %.0f rps below the starting rate", capr.MaxRPS)
	}
	if len(capr.Trials) == 0 {
		t.Fatal("no trials recorded")
	}
	if capr.Best.Sent == 0 {
		t.Fatal("best trial result empty")
	}
}

// mixScenario builds a mixed workload against the fleet: read-heavy doc
// and delta traffic over a zipf-hot document universe, with invoke,
// hash-probe and push-ingest minorities — the same mix as axml-loadgen's
// default -mix.
func mixScenario(f *Fleet, docs int, rate float64, dur time.Duration) Scenario {
	return Scenario{
		Name:    "mix",
		Targets: f.URLs,
		Ops: []Op{
			{Kind: OpDoc, Weight: 4},
			{Kind: OpDelta, Weight: 3},
			{Kind: OpInvoke, Weight: 1, Service: "Lookup"},
			{Kind: OpHashes, Weight: 1},
			{Kind: OpPush, Weight: 1, PushID: "ingest"},
		},
		Docs:     f.DocNames(docs),
		Mode:     "open",
		Rate:     rate,
		Duration: Duration(dur),
		Seed:     1,
	}
}
