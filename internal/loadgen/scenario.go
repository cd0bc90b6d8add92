// Package loadgen is the production-shaped traffic harness for peer
// fleets: it drives mixed doc-fetch / delta-fetch / invoke /
// push-ingest workloads over HTTP through the typed peer.Client, in
// open-loop mode (seeded Poisson arrivals at a configured rate — the
// arrival schedule is deterministic across runs, so latency
// distributions are comparable between builds) or closed-loop mode (N
// workers with think time). Document popularity is zipf-distributed,
// the skew real request logs show. Per-request latency lands in
// obs.Histograms, results are checked against SLOs, and a step-rate
// search finds the maximum sustainable RPS per fleet.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Op kinds: which peer endpoint a scenario operation exercises.
const (
	// OpDoc fetches a whole document (GET /axml/doc/<name>).
	OpDoc = "doc"
	// OpDelta fetches a document's growth since the last digest this
	// worker acknowledged (GET /axml/delta/<name>?from=) — the polling
	// replica shape. The first request per (target, doc) is anchorless.
	OpDelta = "delta"
	// OpInvoke invokes a service (POST /axml/invoke) — the intensional
	// read, evaluated against the peer's documents.
	OpInvoke = "invoke"
	// OpHashes probes the per-document digest summary (GET /axml/hash) —
	// the anti-entropy control-plane shape.
	OpHashes = "hashes"
	// OpPush delivers a small forest to a subscriber callback
	// (POST /axml/push/<id>) — write-side ingest. The payload is drawn
	// from the sampled document name, so reduction bounds replica
	// growth across repeats.
	OpPush = "push"
)

// Duration is a time.Duration that unmarshals from JSON as either a Go
// duration string ("250ms", "2s") or a number of nanoseconds, so
// scenario files stay human-readable.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("loadgen: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("loadgen: duration must be a string or nanoseconds: %s", data)
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// D is the time.Duration view.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Op is one weighted operation in a scenario's traffic mix.
type Op struct {
	// Kind is one of OpDoc, OpDelta, OpInvoke, OpHashes, OpPush.
	Kind string `json:"kind"`
	// Weight is the op's relative share of the mix; 0 means 1.
	Weight float64 `json:"weight,omitempty"`
	// Service names the service OpInvoke calls.
	Service string `json:"service,omitempty"`
	// Doc pins the operation to one document; empty means a
	// zipf-sampled pick from Scenario.Docs per request.
	Doc string `json:"doc,omitempty"`
	// PushID is the subscription id OpPush delivers to.
	PushID string `json:"push_id,omitempty"`
}

// SLO is the latency objective a run is judged against; zero fields are
// not checked. Violations land in Result.SLOViolations.
type SLO struct {
	P50  Duration `json:"p50,omitempty"`
	P99  Duration `json:"p99,omitempty"`
	P999 Duration `json:"p999,omitempty"`
}

// Scenario describes one workload: the fleet, the traffic mix, the
// arrival process and the objective. Scenarios are file-driven
// (ParseScenario / LoadScenario on JSON) or built programmatically.
type Scenario struct {
	// Name labels the scenario in reports ("mix", "read-heavy", ...).
	Name string `json:"name"`
	// Targets are the peers' base URLs; requests spread uniformly.
	Targets []string `json:"targets"`
	// Ops is the weighted traffic mix.
	Ops []Op `json:"ops"`
	// Docs is the document universe zipf-sampled by ops without a
	// pinned Doc. Index 0 is the most popular.
	Docs []string `json:"docs,omitempty"`
	// ZipfS is the zipf skew exponent (> 1; default 1.2 — a hot-set
	// where the top document draws an outsized share).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// ZipfV is the zipf value offset (>= 1; default 1).
	ZipfV float64 `json:"zipf_v,omitempty"`
	// Mode is "open" (default; Poisson arrivals at Rate, latency under
	// load the server does not control) or "closed" (Workers callers
	// with Think time — throughput under a concurrency budget).
	Mode string `json:"mode,omitempty"`
	// Rate is the open-loop arrival rate in requests/second.
	Rate float64 `json:"rate,omitempty"`
	// Duration bounds the run.
	Duration Duration `json:"duration"`
	// Workers is the closed-loop concurrency (default 8).
	Workers int `json:"workers,omitempty"`
	// Think is the closed-loop pause between a worker's requests.
	Think Duration `json:"think,omitempty"`
	// MaxInFlight caps concurrent open-loop requests (default 1024);
	// arrivals beyond the cap wait and are counted as stalls — visible
	// coordinated omission instead of silent memory blow-up.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// Seed makes the run reproducible: the arrival schedule and the
	// per-request op/doc/target choices derive from it (default 1).
	Seed int64 `json:"seed,omitempty"`
	// SLO is the latency objective; zero fields are unchecked.
	SLO SLO `json:"slo,omitempty"`
}

// withDefaults returns a copy with the documented defaults filled in.
func (s Scenario) withDefaults() Scenario {
	if s.Name == "" {
		s.Name = "scenario"
	}
	if s.Mode == "" {
		s.Mode = "open"
	}
	if s.ZipfS <= 1 {
		s.ZipfS = 1.2
	}
	if s.ZipfV < 1 {
		s.ZipfV = 1
	}
	if s.Workers <= 0 {
		s.Workers = 8
	}
	if s.MaxInFlight <= 0 {
		s.MaxInFlight = 1024
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	for i := range s.Ops {
		if s.Ops[i].Weight <= 0 {
			s.Ops[i].Weight = 1
		}
	}
	return s
}

// Validate reports the first structural problem. Runner validates
// automatically; scenario-file tooling calls it directly for early
// errors.
func (s Scenario) Validate() error {
	if len(s.Targets) == 0 {
		return fmt.Errorf("loadgen: scenario %q: no targets", s.Name)
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("loadgen: scenario %q: no ops", s.Name)
	}
	switch s.Mode {
	case "", "open":
		if s.Rate <= 0 {
			return fmt.Errorf("loadgen: scenario %q: open-loop mode needs rate > 0", s.Name)
		}
	case "closed":
	default:
		return fmt.Errorf("loadgen: scenario %q: unknown mode %q (want open or closed)", s.Name, s.Mode)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("loadgen: scenario %q: duration must be positive", s.Name)
	}
	for i, op := range s.Ops {
		switch op.Kind {
		case OpDoc, OpDelta:
			if op.Doc == "" && len(s.Docs) == 0 {
				return fmt.Errorf("loadgen: scenario %q: op %d (%s) needs a doc or a docs universe", s.Name, i, op.Kind)
			}
		case OpInvoke:
			if op.Service == "" {
				return fmt.Errorf("loadgen: scenario %q: op %d: invoke needs a service", s.Name, i)
			}
		case OpHashes:
		case OpPush:
			if op.PushID == "" {
				return fmt.Errorf("loadgen: scenario %q: op %d: push needs a push_id", s.Name, i)
			}
		default:
			return fmt.Errorf("loadgen: scenario %q: op %d: unknown kind %q", s.Name, i, op.Kind)
		}
		if op.Weight < 0 {
			return fmt.Errorf("loadgen: scenario %q: op %d: negative weight", s.Name, i)
		}
	}
	return nil
}

// ParseScenario decodes a JSON scenario and validates it. Unknown
// fields are rejected — a typoed knob must not silently load-test the
// wrong shape.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("loadgen: parse scenario: %w", err)
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	s, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
