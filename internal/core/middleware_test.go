package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"axml/internal/tree"
)

// scriptService fails its first failFirst invocations, then answers with a
// constant tree; block delays every answer.
type scriptService struct {
	name      string
	failFirst int
	block     time.Duration

	mu    sync.Mutex
	calls int
}

func (s *scriptService) ServiceName() string { return s.name }

func (s *scriptService) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scriptService) Invoke(context.Context, Binding) (tree.Forest, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	if s.block > 0 {
		time.Sleep(s.block)
	}
	if n <= s.failFirst {
		return nil, fmt.Errorf("script: failure %d", n)
	}
	return tree.Forest{tree.NewLabel("ok")}, nil
}

func TestRetryUntilSuccess(t *testing.T) {
	svc := &scriptService{name: "f", failFirst: 2}
	var delays []time.Duration
	r := &Retry{
		Service:   svc,
		Attempts:  5,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  80 * time.Millisecond,
		Jitter:    -1, // exact exponential schedule
		Sleep:     func(d time.Duration) { delays = append(delays, d) },
	}
	forest, err := r.Invoke(context.Background(), Binding{})
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 || forest[0].Name != "ok" {
		t.Fatalf("forest = %v", forest)
	}
	if svc.Calls() != 3 {
		t.Fatalf("calls = %d, want 3", svc.Calls())
	}
	if r.Retries() != 2 || r.Recovered() != 1 {
		t.Fatalf("retries=%d recovered=%d", r.Retries(), r.Recovered())
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	svc := &scriptService{name: "f", failFirst: 100}
	var delays []time.Duration
	r := &Retry{
		Service:   svc,
		Attempts:  6,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  25 * time.Millisecond,
		Jitter:    -1,
		Sleep:     func(d time.Duration) { delays = append(delays, d) },
	}
	_, err := r.Invoke(context.Background(), Binding{})
	if err == nil {
		t.Fatal("exhausted retry succeeded")
	}
	if svc.Calls() != 6 {
		t.Fatalf("calls = %d, want 6", svc.Calls())
	}
	want := []time.Duration{10, 20, 25, 25, 25}
	for i, d := range delays {
		if d != want[i]*time.Millisecond {
			t.Fatalf("delays = %v", delays)
		}
	}
}

func TestRetryJitterDeterministicFromSeed(t *testing.T) {
	schedule := func() []time.Duration {
		svc := &scriptService{name: "f", failFirst: 100}
		var delays []time.Duration
		r := &Retry{
			Service:   svc,
			Attempts:  4,
			BaseDelay: time.Millisecond,
			Rng:       rand.New(rand.NewSource(42)),
			Sleep:     func(d time.Duration) { delays = append(delays, d) },
		}
		r.Invoke(context.Background(), Binding{})
		return delays
	}
	a, b := schedule(), schedule()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("schedules %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter not reproducible: %v vs %v", a, b)
		}
	}
}

func TestTimeoutExpiresAndPasses(t *testing.T) {
	slow := &Timeout{Service: &scriptService{name: "f", block: 200 * time.Millisecond}, Limit: 5 * time.Millisecond}
	if _, err := slow.Invoke(context.Background(), Binding{}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	fast := &Timeout{Service: &scriptService{name: "f"}, Limit: time.Second}
	if _, err := fast.Invoke(context.Background(), Binding{}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	svc := &scriptService{name: "f", failFirst: 3}
	br := &Breaker{
		Service:  svc,
		OpensAt:  2,
		Cooldown: time.Minute,
		Now:      func() time.Time { return clock },
	}
	// Two consecutive failures open the circuit.
	if _, err := br.Invoke(context.Background(), Binding{}); err == nil {
		t.Fatal("failure 1 passed")
	}
	if br.State() != "closed" {
		t.Fatalf("state after 1 failure = %s", br.State())
	}
	if _, err := br.Invoke(context.Background(), Binding{}); err == nil {
		t.Fatal("failure 2 passed")
	}
	if br.State() != "open" || br.Opens() != 1 {
		t.Fatalf("state=%s opens=%d", br.State(), br.Opens())
	}
	// While open: short-circuit without touching the service.
	if _, err := br.Invoke(context.Background(), Binding{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker err = %v", err)
	}
	if svc.Calls() != 2 || br.ShortCircuits() != 1 {
		t.Fatalf("calls=%d shortCircuits=%d", svc.Calls(), br.ShortCircuits())
	}
	// After the cooldown: half-open admits one probe; it fails (3rd
	// scripted failure) and re-opens the circuit.
	clock = clock.Add(61 * time.Second)
	if br.State() != "half-open" {
		t.Fatalf("state after cooldown = %s", br.State())
	}
	if _, err := br.Invoke(context.Background(), Binding{}); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe err = %v", err)
	}
	if br.Opens() != 2 || br.State() != "open" {
		t.Fatalf("after failed probe: opens=%d state=%s", br.Opens(), br.State())
	}
	// Next cooldown: the probe succeeds and closes the circuit.
	clock = clock.Add(61 * time.Second)
	if _, err := br.Invoke(context.Background(), Binding{}); err != nil {
		t.Fatalf("healing probe: %v", err)
	}
	if br.State() != "closed" {
		t.Fatalf("state after healing = %s", br.State())
	}
	if _, err := br.Invoke(context.Background(), Binding{}); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
}

func TestRetryGivesUpOnOpenBreaker(t *testing.T) {
	svc := &scriptService{name: "f", failFirst: 100}
	br := &Breaker{Service: svc, OpensAt: 1, Cooldown: time.Hour}
	r := &Retry{Service: br, Attempts: 5, Sleep: func(time.Duration) {}}
	_, err := r.Invoke(context.Background(), Binding{})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v", err)
	}
	// Attempt 1 opened the breaker; attempt 2 short-circuited; the retry
	// loop then stopped instead of burning the rest of its budget.
	if svc.Calls() != 1 {
		t.Fatalf("calls = %d, want 1", svc.Calls())
	}
}

func TestHardenCompositionAndInnermost(t *testing.T) {
	svc := &scriptService{name: "f"}
	out := Harden(svc, HardenOptions{
		Attempts:       3,
		Timeout:        time.Second,
		BreakerOpensAt: 5,
	})
	br, ok := out.(*Breaker)
	if !ok {
		t.Fatalf("outermost = %T, want *Breaker", out)
	}
	r, ok := br.Unwrap().(*Retry)
	if !ok {
		t.Fatalf("middle = %T, want *Retry", br.Unwrap())
	}
	to, ok := r.Unwrap().(*Timeout)
	if !ok {
		t.Fatalf("inner = %T, want *Timeout", r.Unwrap())
	}
	if to.Unwrap() != Service(svc) {
		t.Fatal("the innermost layer is not the base service")
	}
	if got := Harden(svc, HardenOptions{}); got != Service(svc) {
		t.Fatalf("zero options wrapped: %T", got)
	}
	if out.ServiceName() != "f" {
		t.Fatalf("name = %q", out.ServiceName())
	}
}
