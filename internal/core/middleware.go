package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"axml/internal/obs"
	"axml/internal/tree"
)

// Fault-tolerance middlewares. The paper's model makes failure handling
// semantically trivial: services are deterministic monotone functions that
// may be invoked any number of times in any fair order, and Theorem 2.1
// guarantees the final state is order-independent — so retrying, delaying
// or re-running a failed invocation can never corrupt the system, only
// postpone information. These wrappers exploit that freedom around any
// Service (local or remote): Retry re-attempts with exponential backoff,
// Timeout bounds a single attempt, and Breaker sheds load from an endpoint
// that keeps failing. They compose: Breaker{Retry{Timeout{svc}}} is the
// conventional stack (a fully-retried failure counts once against the
// breaker; each attempt gets its own deadline).

// Wrapper is implemented by services that decorate another service.
// Unwrap returns the decorated service. AddService follows the Unwrap
// links once, to the innermost layer, and records what it finds there (a
// query, a token source) and whether every layer batches (see stack): a
// stack is fixed once registered, so Unwrap must keep returning the same
// service, and a wrapper never hides a query's definition.
type Wrapper interface {
	Unwrap() Service
}

// Defaults for the middlewares' zero-valued knobs.
const (
	DefaultRetryAttempts   = 3
	DefaultRetryBase       = 50 * time.Millisecond
	DefaultRetryMax        = 2 * time.Second
	DefaultRetryJitter     = 0.5
	DefaultTimeout         = 10 * time.Second
	DefaultBreakerOpensAt  = 5
	DefaultBreakerCooldown = 30 * time.Second
)

// Retry re-invokes a failing service with exponential backoff and jitter
// until it succeeds or the attempt budget is spent. Safe because monotone
// deterministic services make repeated invocation idempotent up to
// subsumption. Safe for concurrent use.
type Retry struct {
	// Service is the wrapped service.
	Service Service
	// Attempts is the total attempt budget including the first try;
	// values below 1 mean DefaultRetryAttempts.
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry. 0 means DefaultRetryBase.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means DefaultRetryMax.
	MaxDelay time.Duration
	// Jitter randomizes each delay by ±Jitter·delay. 0 means
	// DefaultRetryJitter; negative disables jitter.
	Jitter float64
	// Rng drives the jitter; nil means an unseeded private source. Seed
	// it for reproducible schedules.
	Rng *rand.Rand
	// Sleep replaces time.Sleep, for tests.
	Sleep func(time.Duration)
	// Metrics, when non-nil, mirrors the middleware's activity into
	// per-service counters: mw.retry.attempts.<svc> (every attempt),
	// mw.retry.retries.<svc> (re-attempts beyond the first) and
	// mw.retry.recovered.<svc> (invocations that failed then succeeded
	// within budget).
	Metrics *obs.Registry

	mu        sync.Mutex
	retries   int
	recovered int
}

// ServiceName implements Service.
func (r *Retry) ServiceName() string { return r.Service.ServiceName() }

// Unwrap implements Wrapper.
func (r *Retry) Unwrap() Service { return r.Service }

// Retries returns the number of re-attempts performed so far (beyond each
// invocation's first try).
func (r *Retry) Retries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// Recovered returns the number of invocations that failed at least once
// but ultimately succeeded within their attempt budget.
func (r *Retry) Recovered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recovered
}

// Invoke implements Service with retries: a batch of one (InvokeBatch).
func (r *Retry) Invoke(ctx context.Context, b Binding) (tree.Forest, error) {
	fs, errs := r.InvokeBatch(ctx, []Binding{b})
	return fs[0], errs[0]
}

// InvokeBatch implements BatchService with retries: each attempt sends,
// as one batch, the bindings not answered yet. A dead context stops the
// loop: backoff waits abort on cancellation, and no further attempts are
// made once the caller has given up.
func (r *Retry) InvokeBatch(ctx context.Context, bs []Binding) ([]tree.Forest, []error) {
	attempts := r.Attempts
	if attempts < 1 {
		attempts = DefaultRetryAttempts
	}
	fs, errs := make([]tree.Forest, len(bs)), make([]error, len(bs))
	todo := make([]int, len(bs))
	for i := range todo {
		todo[i] = i
	}
	var stopErr error
	made := 0
	for i := 0; i < attempts && len(todo) > 0; i++ {
		if i > 0 {
			if stopErr = r.Backoff(ctx, i); stopErr != nil {
				break
			}
		}
		if stopErr = ctx.Err(); stopErr != nil {
			break
		}
		if r.Metrics != nil {
			r.Metrics.Counter("mw.retry.attempts." + r.ServiceName()).Add(int64(len(todo)))
		}
		sub := make([]Binding, len(todo))
		for k, j := range todo {
			sub[k] = bs[j]
		}
		got, failed := invokeBatch(ctx, r.Service, sub)
		made = i + 1
		next, stop := todo[:0], false
		for k, j := range todo {
			if fs[j], errs[j] = got[k], failed[k]; errs[j] == nil {
				if i > 0 {
					r.mu.Lock()
					r.recovered++
					r.mu.Unlock()
					if r.Metrics != nil {
						r.Metrics.Counter("mw.retry.recovered." + r.ServiceName()).Inc()
					}
				}
				continue
			}
			next = append(next, j)
			// An open breaker downstream will not heal within our budget,
			// and a failure that is our own cancellation cannot either.
			cause := ctx.Err()
			stop = stop || errors.Is(errs[j], ErrBreakerOpen) || cause != nil && errors.Is(errs[j], cause)
		}
		if todo = next; stop {
			break
		}
	}
	for _, j := range todo {
		fs[j] = nil
		if made == 0 {
			errs[j] = stopErr // the context was dead before the service was ever reached
		} else {
			// The service is not named here: the run loop and the
			// transport error both already carry it.
			errs[j] = fmt.Errorf("core: %d attempt(s) failed: %w", made, errs[j])
		}
	}
	return fs, errs
}

// Backoff waits before the i-th retry (i ≥ 1) and counts it. The wait is
// cut short — and the context error returned — if ctx dies first. It is
// the repo's one retry-delay policy: Invoke's loop calls it, and a caller
// whose retried request changes between attempts (the peer's push
// Publisher) keeps its own loop around a Retry with no Service.
func (r *Retry) Backoff(ctx context.Context, i int) error {
	base := r.BaseDelay
	if base == 0 {
		base = DefaultRetryBase
	}
	max := r.MaxDelay
	if max == 0 {
		max = DefaultRetryMax
	}
	d := base << (i - 1)
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	jitter := r.Jitter
	if jitter == 0 {
		jitter = DefaultRetryJitter
	}
	if r.Metrics != nil {
		r.Metrics.Counter("mw.retry.retries." + r.Service.ServiceName()).Inc()
	}
	r.mu.Lock()
	r.retries++
	if jitter > 0 {
		if r.Rng == nil {
			r.Rng = rand.New(rand.NewSource(rand.Int63()))
		}
		// Uniform in [1-jitter, 1+jitter] — de-synchronizes retry storms.
		d = time.Duration(float64(d) * (1 + jitter*(2*r.Rng.Float64()-1)))
	}
	sleep := r.Sleep
	r.mu.Unlock()
	if sleep != nil {
		// Test hook: a virtual clock cannot also wait on the context, so
		// honor it verbatim and report the context state afterwards.
		if d > 0 {
			sleep(d)
		}
		return ctx.Err()
	}
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ErrTimeout is wrapped by Timeout when an invocation exceeds its limit.
var ErrTimeout = errors.New("core: service invocation timed out")

// Timeout bounds a single invocation of the wrapped service. On expiry the
// invocation is abandoned: it keeps running in the background and its
// eventual result is discarded. Use it around services whose blocking
// happens after they finish reading their binding (RemoteService marshals
// the envelope first, then waits on the network), so the abandoned
// goroutine never races the engine's subsequent tree mutations. An
// invocation holds no lock of its own — the evaluation around it holds
// the system's read side and releases it when Invoke returns, expired or
// not — so a Timeout may sit anywhere in a stack, a peer's remote
// services included.
type Timeout struct {
	// Service is the wrapped service.
	Service Service
	// Limit is the per-invocation deadline; 0 means DefaultTimeout.
	Limit time.Duration
	// Metrics, when non-nil, counts expiries in mw.timeout.hits.<svc>.
	Metrics *obs.Registry
}

// ServiceName implements Service.
func (t *Timeout) ServiceName() string { return t.Service.ServiceName() }

// Unwrap implements Wrapper.
func (t *Timeout) Unwrap() Service { return t.Service }

// Invoke implements Service with a deadline: a batch of one (InvokeBatch).
func (t *Timeout) Invoke(ctx context.Context, b Binding) (tree.Forest, error) {
	fs, errs := t.InvokeBatch(ctx, []Binding{b})
	return fs[0], errs[0]
}

// InvokeBatch implements BatchService with a deadline: the batch is one
// attempt. The wrapped service sees a context bounded by both the
// caller's context and the limit, so ctx-aware services (RemoteService,
// backoff waits) cancel their work the moment the deadline passes; a
// service that ignores its context is abandoned as before.
func (t *Timeout) InvokeBatch(ctx context.Context, bs []Binding) ([]tree.Forest, []error) {
	limit := t.Limit
	if limit == 0 {
		limit = DefaultTimeout
	}
	expired := func() error {
		if t.Metrics != nil {
			t.Metrics.Counter("mw.timeout.hits." + t.Service.ServiceName()).Inc()
		}
		return fmt.Errorf("core: service %q: %w after %v", t.Service.ServiceName(), ErrTimeout, limit)
	}
	attemptCtx, cancel := context.WithTimeout(ctx, limit)
	type outcome struct {
		fs   []tree.Forest
		errs []error
	}
	done := make(chan outcome, 1)
	go func() {
		defer cancel()
		fs, errs := invokeBatch(attemptCtx, t.Service, bs)
		done <- outcome{fs, errs}
	}()
	var err error
	select {
	case o := <-done:
		for i, err := range o.errs {
			if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) && attemptCtx.Err() != nil {
				// A ctx-aware wrapped service surfacing our own deadline:
				// normalize to the timeout error callers match on.
				o.errs[i] = expired()
			}
		}
		return o.fs, o.errs
	case <-attemptCtx.Done():
		if err = ctx.Err(); err == nil { // else the caller gave up first; not a timeout
			err = expired()
		}
	}
	errs := make([]error, len(bs))
	for i := range errs {
		errs[i] = err
	}
	return make([]tree.Forest, len(bs)), errs
}

// ErrBreakerOpen is wrapped by Breaker when it short-circuits a call.
var ErrBreakerOpen = errors.New("core: circuit breaker open")

// Breaker is a circuit breaker: after OpensAt consecutive failures it
// opens and fails calls immediately (sparing a struggling endpoint), then
// after Cooldown it half-opens, letting exactly one probe through — a
// probe success closes the circuit, a probe failure re-opens it for
// another cooldown. Safe for concurrent use.
type Breaker struct {
	// Service is the wrapped service.
	Service Service
	// OpensAt is the consecutive-failure count that opens the circuit;
	// values below 1 mean DefaultBreakerOpensAt.
	OpensAt int
	// Cooldown is how long the circuit stays open before half-opening;
	// 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
	// Now replaces time.Now, for tests.
	Now func() time.Time
	// Metrics, when non-nil, mirrors the breaker into the registry:
	// mw.breaker.state.<svc> is a gauge holding the last transition
	// (0 closed, 1 half-open probing, 2 open), mw.breaker.opens.<svc>
	// and mw.breaker.short_circuits.<svc> count events.
	Metrics *obs.Registry

	mu            sync.Mutex
	open          bool
	probing       bool
	consecutive   int
	openedAt      time.Time
	opens         int
	shortCircuits int
}

// ServiceName implements Service.
func (br *Breaker) ServiceName() string { return br.Service.ServiceName() }

// Unwrap implements Wrapper.
func (br *Breaker) Unwrap() Service { return br.Service }

// State reports "closed", "open" or "half-open".
func (br *Breaker) State() string {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch {
	case !br.open:
		return "closed"
	case br.now().Sub(br.openedAt) >= br.cooldown():
		return "half-open"
	default:
		return "open"
	}
}

// Opens returns how many times the circuit has opened (including re-opens
// after a failed probe).
func (br *Breaker) Opens() int {
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.opens
}

// ShortCircuits returns how many calls were rejected without reaching the
// wrapped service.
func (br *Breaker) ShortCircuits() int {
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.shortCircuits
}

func (br *Breaker) now() time.Time {
	if br.Now != nil {
		return br.Now()
	}
	return time.Now()
}

func (br *Breaker) cooldown() time.Duration {
	if br.Cooldown == 0 {
		return DefaultBreakerCooldown
	}
	return br.Cooldown
}

// Gauge codes for mw.breaker.state.<svc>.
const (
	BreakerClosed   = 0
	BreakerHalfOpen = 1
	BreakerOpen     = 2
)

// setState records the last transition on the state gauge.
func (br *Breaker) setState(code int64) {
	if br.Metrics != nil {
		br.Metrics.Gauge("mw.breaker.state." + br.Service.ServiceName()).Set(code)
	}
}

// Invoke implements Service with circuit breaking: a batch of one
// (InvokeBatch).
func (br *Breaker) Invoke(ctx context.Context, b Binding) (tree.Forest, error) {
	fs, errs := br.InvokeBatch(ctx, []Binding{b})
	return fs[0], errs[0]
}

// InvokeBatch implements BatchService with circuit breaking. The batch is
// one exchange with the endpoint: an open circuit refuses all of it, and
// it counts as a failure only when no binding was answered.
func (br *Breaker) InvokeBatch(ctx context.Context, bs []Binding) ([]tree.Forest, []error) {
	br.mu.Lock()
	if br.open {
		if br.probing || br.now().Sub(br.openedAt) < br.cooldown() {
			br.shortCircuits += len(bs)
			br.mu.Unlock()
			if br.Metrics != nil {
				br.Metrics.Counter("mw.breaker.short_circuits." + br.Service.ServiceName()).Add(int64(len(bs)))
			}
			errs := make([]error, len(bs))
			for i := range errs {
				errs[i] = ErrBreakerOpen
			}
			return make([]tree.Forest, len(bs)), errs
		}
		br.probing = true // half-open: admit this call as the single probe
		br.setState(BreakerHalfOpen)
	}
	br.mu.Unlock()

	fs, errs := invokeBatch(ctx, br.Service, bs)
	var err error // the exchange's: nil once any binding was answered
	for _, e := range errs {
		if err = e; e == nil {
			break
		}
	}

	br.mu.Lock()
	defer br.mu.Unlock()
	if err != nil {
		if cause := ctx.Err(); cause != nil && errors.Is(err, cause) {
			// The caller cancelled: that says nothing about endpoint
			// health, so it neither counts toward opening nor resolves a
			// probe (the probe slot reopens for the next call).
			br.probing = false
			return fs, errs
		}
		br.consecutive++
		opensAt := br.OpensAt
		if opensAt < 1 {
			opensAt = DefaultBreakerOpensAt
		}
		if br.probing || (!br.open && br.consecutive >= opensAt) {
			br.open = true
			br.probing = false
			br.openedAt = br.now()
			br.opens++
			br.setState(BreakerOpen)
			if br.Metrics != nil {
				br.Metrics.Counter("mw.breaker.opens." + br.Service.ServiceName()).Inc()
			}
		}
		return fs, errs
	}
	if br.open || br.consecutive > 0 {
		br.setState(BreakerClosed)
	}
	br.open = false
	br.probing = false
	br.consecutive = 0
	return fs, errs
}

// HardenOptions configures Harden. Zero-valued fields disable the
// corresponding layer (except delays/thresholds inside an enabled layer,
// which fall back to the Default* constants).
type HardenOptions struct {
	// Attempts enables Retry when > 1 (total attempts per invocation).
	Attempts int
	// BaseDelay, MaxDelay and Jitter configure the enabled Retry.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	Jitter    float64
	// Rng seeds the retry jitter (nil means unseeded).
	Rng *rand.Rand
	// Timeout enables a per-attempt deadline when > 0.
	Timeout time.Duration
	// BreakerOpensAt enables a circuit breaker when > 0 (consecutive
	// failures to open).
	BreakerOpensAt int
	// BreakerCooldown is the enabled breaker's open period.
	BreakerCooldown time.Duration
	// Metrics, when non-nil, is threaded to every enabled layer (see the
	// Metrics field on Retry, Timeout and Breaker for the metric names).
	Metrics *obs.Registry
}

// Harden wraps svc in the conventional fault-tolerance stack
// Breaker{Retry{Timeout{svc}}}, including only the layers the options
// enable. With a zero HardenOptions it returns svc unchanged.
func Harden(svc Service, o HardenOptions) Service {
	out := svc
	if o.Timeout > 0 {
		out = &Timeout{Service: out, Limit: o.Timeout, Metrics: o.Metrics}
	}
	if o.Attempts > 1 {
		out = &Retry{
			Service:   out,
			Attempts:  o.Attempts,
			BaseDelay: o.BaseDelay,
			MaxDelay:  o.MaxDelay,
			Jitter:    o.Jitter,
			Rng:       o.Rng,
			Metrics:   o.Metrics,
		}
	}
	if o.BreakerOpensAt > 0 {
		out = &Breaker{Service: out, OpensAt: o.BreakerOpensAt, Cooldown: o.BreakerCooldown,
			Metrics: o.Metrics}
	}
	return out
}
