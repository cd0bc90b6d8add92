package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"axml/internal/obs"
	"axml/internal/tree"
)

// engine executes one RunContext. There is one firing path — fireGroup,
// for a group of calls to one service: the sterile-call gate for each
// (admit), one semi-naive evaluation of the admitted ones under the
// system's read lock, each answer's merge under its write lock (commit),
// in scheduler order — and two schedules that decide which group goes
// through it next:
//
//   - the sweep (runSweeps, below): one goroutine attempts every call
//     present at the start of a sweep, in scheduler order, until a whole
//     sweep changes nothing. Deterministic counters and intermediate
//     states; taken at Parallelism 1 and by any run with a MaxSweeps
//     budget, which only a sweeping run can honour. Its calls to one
//     batching stack form one group, at the position of the first; any
//     other call is a group of one.
//   - the worklist (incremental.go): Parallelism workers drain a FIFO
//     of call nodes fed by merge events through a reverse dependency
//     index; a call is attempted, as a group of one, only when something
//     it reads moved.
//
// Which calls may fire at all is the run's input, not another loop:
// admit consults RunOptions.Relevant, which is how lazy evaluation, the
// fire-once semantics and ShortestRun's edges run through this one path.
//
// Concurrency model. The paper defines a run as a set of independent
// monotone call firings whose results merge by least upper bound, and
// Theorem 2.1 proves the reachable fixpoint is independent of the firing
// order. That is the entire license both schedules need: firings race,
// merges do not. Concretely:
//
//   - evaluations (read the live trees, call the service, possibly wait
//     on the network) run under the system's read lock, any number at a
//     time;
//   - merges (append the result forest, repair reduction, bump the
//     document version) run under the system's write lock — the version
//     funnel — one at a time;
//   - a result computed against a state that other firings have since
//     enlarged is still a sound result of the smaller state, so merging
//     it is harmless; the version gate re-examines the call at its next
//     attempt if anything it reads moved.
//
// Engine-local bookkeeping (the result counters, the seen map, the stop
// flag, the worklist) lives under a separate mutex, always acquired
// after the system lock, never held across a service invocation.
// RunResult is only ever copied out through result(), under that mutex,
// with the Errors map cloned — so a caller can hand the returned value
// to another goroutine without aliasing engine state.
//
// Observability: the engine always collects its run-local stats (a few
// atomic adds and clock reads per firing) into RunResult.Stats, emits
// spans to RunOptions.Tracer and folds the run's totals into
// RunOptions.Metrics when either is set. None of it influences
// scheduling; removing the registry and tracer yields the same firing
// sequence.
type engine struct {
	s              *System
	opts           RunOptions
	sched          Scheduler
	workers        int
	maxSteps       int
	maxErrorSweeps int
	tracer         *obs.Tracer

	// rlock acquires the version funnel's read side with the discipline
	// the schedule can afford (see rwLock): plain reader preference for
	// the sweep, the fair variant for the worklist.
	rlock func()

	// root is the run's trace identity: the span context the caller put
	// in the run's context (a peer's server span, a CLI root) or a fresh
	// trace when tracing locally with none inherited. Set once before any
	// call fires, then read-only — sweep and drain spans are its children,
	// call spans theirs, merge spans are call children, and the evaluation
	// context carries the call's span so a remote invocation propagates
	// the chain across the wire.
	root obs.SpanContext

	// Run-local latency histograms, always collected (RunResult.Stats).
	evalH      *obs.Histogram
	mergeWaitH *obs.Histogram
	// Version-funnel contention baseline at run start (delta reporting).
	lockR0, lockW0 uint64
	// Index hit/miss baseline at run start (delta reporting).
	ixHits0, ixMisses0, ixBuilds0 uint64

	mu                    sync.Mutex // guards the fields below
	res                   RunResult
	sterile               int // calls skipped by the version gate
	deltaEvals            int // evaluations that ran semi-naively against a delta
	batches, callsBatched int // groups of two or more, and their calls
	seen                  map[*tree.Node]gate
	stop                  bool // budget exhausted or fail-fast: drain, then return

	// services holds every registered stack, fixed at run start
	// (services are immutable during a run); a Versioned one reads its
	// token at most once per run (token).
	services map[string]*runService

	// ev is the worklist schedule's state (incremental.go); nil in a
	// sweeping run.
	ev *eventState
}

// gate is what a call's next answer was shown to depend on at one
// attempt: the versions of its relevant documents (relevantVersionVector)
// and, for a Versioned service with a known token, its context's digest
// and that token. A call whose gate equals the one recorded at an earlier
// attempt cannot answer anything new.
type gate struct {
	versions []uint64
	context  tree.Hash
	token    string
}

func (g gate) equal(h gate) bool {
	if g.context != h.context || g.token != h.token || len(g.versions) != len(h.versions) {
		return false
	}
	for i := range g.versions {
		if g.versions[i] != h.versions[i] {
			return false
		}
	}
	return true
}

// lasting is the part of the gate the system commits across runs. A
// versioned call's answer is determined by its context and token alone,
// so its local versions are dropped; within a run they stay, so a remote
// that reads this very system (a self-call) still re-fires while the run
// grows the documents it reads.
func (g gate) lasting() gate {
	if g.token != "" {
		g.versions = nil
	}
	return g
}

// runService is one registered stack as a run sees it, with its token.
type runService struct {
	stack
	once sync.Once
	tok  string
}

// token returns the run's token for the named service: "" unless it is
// Versioned and its token is known. The token is read at most once per
// run, on the first call that needs it, outside every lock.
func (e *engine) token(ctx context.Context, name string) string {
	rs := e.services[name]
	if rs == nil || rs.token == nil {
		return ""
	}
	rs.once.Do(func() { rs.tok = rs.token.Version(ctx) })
	return rs.tok
}

func newEngine(s *System, opts RunOptions) *engine {
	sched := opts.Scheduler
	if sched == nil {
		sched = RoundRobin{}
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	maxErrorSweeps := opts.MaxErrorSweeps
	if maxErrorSweeps == 0 {
		maxErrorSweeps = DefaultMaxErrorSweeps
	}
	workers := opts.Parallelism
	if workers == 0 {
		workers = DefaultParallelism()
	}
	if workers < 1 || opts.MaxSweeps > 0 {
		// A sweep budget is only defined for the sweeping schedule.
		workers = 1
	}
	// Touch and Restore rebuild the index table under the write side.
	var ih, im, ib uint64
	services := make(map[string]*runService)
	s.View(func() {
		ih, im = s.IndexStats()
		ib = s.IndexBuilds()
		for name, st := range s.funcs {
			services[name] = &runService{stack: st}
		}
	})
	rw, ww := s.engineMu.contention()
	return &engine{
		s:              s,
		opts:           opts,
		sched:          sched,
		workers:        workers,
		maxSteps:       maxSteps,
		maxErrorSweeps: maxErrorSweeps,
		tracer:         opts.Tracer,
		evalH:          &obs.Histogram{},
		mergeWaitH:     &obs.Histogram{},
		lockR0:         rw,
		lockW0:         ww,
		ixHits0:        ih,
		ixMisses0:      im,
		ixBuilds0:      ib,
		// seen gates provably-sterile re-attempts: a call attempted when
		// the documents its service reads had versions v̄ returns the
		// same answer as long as those versions stay v̄ (services are
		// deterministic monotone functions of what they read). Skipping
		// it satisfies the fairness condition (ii) of Definition 2.4 —
		// an invocation that would not modify the system. The recorded
		// vector doubles as the baseline for delta evaluations. A call
		// this run has not looked at yet falls back to the system's
		// committed gate (System.gate).
		seen:     make(map[*tree.Node]gate),
		services: services,
	}
}

// traceRoot resolves the run's root span context from ctx: the inherited
// span when the caller is already traced, a fresh trace when this engine
// traces locally, the zero context (IDs suppressed) otherwise.
func (e *engine) traceRoot(ctx context.Context) obs.SpanContext {
	sc := obs.SpanFromContext(ctx)
	if !sc.Valid() && e.tracer.Enabled() {
		sc = obs.NewTrace()
	}
	return sc
}

// runSweeps is the sweeping schedule: one goroutine, strict scheduler
// order, a fixpoint confirmed by a whole sweep that changes nothing.
func (e *engine) runSweeps(ctx context.Context) RunResult {
	e.rlock = e.s.engineMu.RLock
	e.root = e.traceRoot(ctx)
	fruitless := 0 // consecutive no-progress sweeps that saw errors
	for {
		if ctx.Err() != nil {
			return e.cancelled(ctx)
		}
		e.mu.Lock()
		e.res.Sweeps++
		before, sterileBefore := e.res, e.sterile
		e.mu.Unlock()
		// Snapshot the calls existing at sweep start: calls created by
		// answers during this sweep wait for the next one. This is what
		// makes every execution fair — no branch can starve another by
		// producing fresh calls faster than the sweep drains them.
		e.rlock()
		pending := e.s.Calls()
		e.s.purgeGate(pending)
		e.s.engineMu.RUnlock()
		purgeSeen(e.seen, pending)
		e.sched.Order(pending)

		sweepTS := e.tracer.Now()
		sweepStart := time.Now()
		var sweepSC obs.SpanContext
		if e.tracer != nil {
			sweepSC = e.root.NewChild()
		}
		batched := make(map[string]bool) // batching stacks fired this sweep
		for i, c := range pending {
			if e.stopped() || ctx.Err() != nil {
				break
			}
			name, group := c.Node.Name, pending[i:i+1]
			if rs := e.services[name]; rs != nil && rs.batch {
				if batched[name] {
					continue
				}
				batched[name], group = true, pending[i:]
			}
			e.fireGroup(ctx, sweepSC, name, group)
		}

		e.mu.Lock()
		changed := e.res.Steps > before.Steps
		// Under FailFast the first failure stops the run, so counting
		// failures per sweep only ever matters under Degrade.
		failures := e.res.Failures - before.Failures
		stopped := e.stop
		if e.tracer != nil {
			e.tracer.Emit(obs.Span{
				Kind:  "sweep",
				Sweep: e.res.Sweeps,
				TSUs:  sweepTS,
				DurUs: int64(time.Since(sweepStart) / time.Microsecond),
				Attrs: map[string]int64{
					"pending":  int64(len(pending)),
					"fired":    int64(e.res.Attempts - before.Attempts),
					"sterile":  int64(e.sterile - sterileBefore),
					"steps":    int64(e.res.Steps - before.Steps),
					"failures": int64(failures),
				},
			}.WithContext(sweepSC, e.root))
		}
		sweeps := e.res.Sweeps
		e.mu.Unlock()

		if stopped {
			return e.result()
		}
		if ctx.Err() != nil {
			return e.cancelled(ctx)
		}
		if !changed && failures == 0 {
			e.mu.Lock()
			e.res.Terminated = true
			e.mu.Unlock()
			return e.result()
		}
		if !changed {
			// Errors but no progress: the failed calls are retried on
			// another sweep, but give up after maxErrorSweeps of these —
			// the failures look permanent.
			fruitless++
			if fruitless >= e.maxErrorSweeps {
				return e.result()
			}
		} else {
			fruitless = 0
		}
		if e.opts.MaxSweeps > 0 && sweeps >= e.opts.MaxSweeps {
			return e.result()
		}
	}
}

// cancelled ends a run whose caller's context died: RunResult.Err reports
// ctx.Err() unless a service error got there first.
func (e *engine) cancelled(ctx context.Context) RunResult {
	e.mu.Lock()
	if e.res.Err == nil {
		e.res.Err = ctx.Err()
	}
	e.mu.Unlock()
	return e.result()
}

// result snapshots the run outcome under the engine mutex: the counters
// are copied, the Errors map is cloned (never aliased to engine state)
// and the Stats histograms and funnel-contention deltas are attached.
// Every return path of both schedules funnels through here.
func (e *engine) result() RunResult {
	var ih, im, ib uint64
	e.s.View(func() { ih, im = e.s.IndexStats(); ib = e.s.IndexBuilds() }) // before e.mu: lock order
	e.mu.Lock()
	defer e.mu.Unlock()
	res := e.res
	if res.Errors != nil {
		errs := make(map[string]int, len(res.Errors))
		for name, n := range res.Errors {
			errs[name] = n
		}
		res.Errors = errs
	}
	rw, ww := e.s.engineMu.contention()
	res.Stats = RunStats{
		CallsFired:   res.Attempts,
		CallsSterile: e.sterile,
		DeltaEvals:   e.deltaEvals,
		Batches:      e.batches,
		CallsBatched: e.callsBatched,
		Eval:         e.evalH.Snapshot(),
		MergeWait:    e.mergeWaitH.Snapshot(),
		ReaderWaits:  rw - e.lockR0,
		WriterWaits:  ww - e.lockW0,
		IndexHits:    ih - e.ixHits0,
		IndexMisses:  im - e.ixMisses0,
		IndexBuilds:  ib - e.ixBuilds0,
	}
	if e.ev != nil {
		res.Stats.Enqueues = e.ev.enqueues
		res.Stats.EnqueuesCoalesced = e.ev.coalesced
	}
	e.publishLocked(res)
	return res
}

// publishLocked folds the finished run into the optional registry. The
// registry accumulates across runs (and across engines sharing it), so
// counters add deltas and histograms merge the run-local snapshots.
func (e *engine) publishLocked(res RunResult) {
	reg := e.opts.Metrics
	if reg == nil {
		return
	}
	reg.Counter("engine.runs").Inc()
	reg.Counter("engine.sweeps").Add(int64(res.Sweeps))
	reg.Counter("engine.steps").Add(int64(res.Steps))
	reg.Counter("engine.calls.fired").Add(int64(res.Attempts))
	reg.Counter("engine.calls.sterile").Add(int64(res.Stats.CallsSterile))
	reg.Counter("engine.calls.failed").Add(int64(res.Failures))
	reg.Counter("engine.delta_evals").Add(int64(res.Stats.DeltaEvals))
	reg.Counter("engine.batches").Add(int64(res.Stats.Batches))
	reg.Counter("engine.calls.batched").Add(int64(res.Stats.CallsBatched))
	reg.Counter("engine.enqueues").Add(int64(res.Stats.Enqueues))
	reg.Counter("engine.enqueues.coalesced").Add(int64(res.Stats.EnqueuesCoalesced))
	reg.Counter("engine.lock.reader_waits").Add(int64(res.Stats.ReaderWaits))
	reg.Counter("engine.lock.writer_waits").Add(int64(res.Stats.WriterWaits))
	reg.Counter("engine.index.hits").Add(int64(res.Stats.IndexHits))
	reg.Counter("engine.index.misses").Add(int64(res.Stats.IndexMisses))
	reg.Counter("engine.index.builds").Add(int64(res.Stats.IndexBuilds))
	reg.Histogram("engine.eval_ns").Merge(res.Stats.Eval)
	reg.Histogram("engine.merge_wait_ns").Merge(res.Stats.MergeWait)
	reg.Gauge("engine.parallelism").Set(int64(e.workers))
	if res.Terminated {
		reg.Counter("engine.runs.terminated").Inc()
	}
}

// admitted is a call the gate let through, with its gate, whether that
// outlives the run and its delta baseline; the group's evaluation fills in
// its answer or error.
type admitted struct {
	c      Call
	g      gate
	lasts  bool
	since  map[string]uint64
	forest tree.Forest
	err    error
}

// admit is the firing path's gate: it reports false, having counted or
// forgotten the call, when the run stopped, the run's Relevant predicate
// rejects the call, reduction pruned the call node or the call is
// sterile; otherwise it counts the attempt.
//
// The gate's version read and its seen-map update are not atomic with
// respect to racing merges; the race is benign and one-sided — a merge
// landing in between leaves a stale vector in the map, which only makes
// the next attempt re-fire a call it could have skipped, never skip a
// call it had to attempt. (And a stale baseline is a LOWER one, so the
// delta it requests is a superset of the true delta — over-evaluation,
// never a missed result.) The same argument covers the committed gate:
// the gate committed at a merge was read before the evaluation it gates,
// so it is never newer than the state that evaluation saw.
func (e *engine) admit(ctx context.Context, c Call) (admitted, bool) {
	s := e.s
	tok := e.token(ctx, c.Node.Name)
	e.rlock()
	g, lasts := s.gateOf(c, tok)
	att := s.Attached(c)
	s.engineMu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stop || e.opts.Relevant != nil && !e.opts.Relevant(c) {
		return admitted{}, false
	}
	if !att {
		// Reduction pruned the node after the schedule picked the call.
		e.forgetLocked(c.Node)
		return admitted{}, false
	}
	prev, evaluated := e.seen[c.Node]
	sterile := evaluated && prev.equal(g)
	if !evaluated && lasts {
		// The run's first look: the gate of the last merged answer of any
		// run on this system.
		s.gateMu.Lock()
		prev, evaluated = s.gate[c.Node]
		s.gateMu.Unlock()
		sterile = evaluated && prev.equal(g.lasting())
	}
	e.seen[c.Node] = g
	if sterile {
		e.sterile++
		return admitted{}, false
	}
	e.res.Attempts++
	// The previous attempt's vector is the delta baseline: declarative
	// services answer only from what was appended since (Prop 3.1).
	since := s.sinceFor(c, prev.versions)
	if since != nil {
		e.deltaEvals++
	}
	return admitted{c: c, g: g, lasts: lasts, since: since}, true
}

// fireGroup is the one firing path, run without engine.mu held, for a
// group: the calls named name among calls, in scheduler order. Each goes
// through the sterile-call gate (admit), the admitted ones are evaluated
// together under one read lock (System.evaluate: one exchange with a
// batching stack, member by member with any other; any number of
// evaluations at a time), and each answer is merged under the write lock
// in scheduler order (commit, the version funnel).
// Theorem 2.1 licenses the grouping (DESIGN.md, "Batches"). A group of
// one is a call span, two or more a batch span, the parent's child (the
// enclosing sweep's or drain's); the evaluation context carries it, so a
// remote service invocation continues the trace on the other peer.
func (e *engine) fireGroup(ctx context.Context, parent obs.SpanContext, name string, calls []Call) {
	var one [1]admitted // a group of one, the common case, stays on the stack
	as := one[:0]
	if len(calls) > 1 {
		n := 0
		for _, c := range calls {
			if c.Node.Name == name {
				n++
			}
		}
		as = make([]admitted, 0, n)
	}
	for _, c := range calls {
		if c.Node.Name != name {
			continue
		}
		if a, ok := e.admit(ctx, c); ok {
			as = append(as, a)
		}
	}
	if len(as) == 0 {
		return
	}
	var sc obs.SpanContext
	if e.tracer != nil {
		sc = parent.NewChild()
		ctx = obs.ContextWithSpan(ctx, sc)
	}
	ts, start := e.tracer.Now(), time.Now()
	e.rlock()
	e.s.evaluate(ctx, as)
	e.s.engineMu.RUnlock()
	dur := time.Since(start)
	e.evalH.Observe(int64(dur))
	if len(as) > 1 {
		e.mu.Lock()
		e.batches++
		e.callsBatched += len(as)
		e.mu.Unlock()
	}
	if e.tracer != nil {
		span := obs.Span{Kind: "call", Name: name, TSUs: ts, DurUs: int64(dur / time.Microsecond)}
		if len(as) > 1 {
			failed := 0
			for _, a := range as {
				if a.err != nil {
					failed++
				}
			}
			span.Kind, span.Attrs = "batch", map[string]int64{"calls": int64(len(as)), "failed": int64(failed)}
		} else if as[0].err != nil {
			span.Err = as[0].err.Error()
		}
		e.tracer.Emit(span.WithContext(sc, parent))
	}
	for i := range as {
		e.commit(ctx, sc, &as[i])
	}
}

// commit is the firing path's merge step, the one engine call site of
// System.merge: an error goes to the error policy, an answer is merged
// and its gate committed. parent (the group's call or batch span) parents
// the merge span.
func (e *engine) commit(ctx context.Context, parent obs.SpanContext, a *admitted) {
	s, c := e.s, a.c
	if a.err != nil {
		e.recordFailure(ctx, c, a.err)
		return
	}
	mergeTS := e.tracer.Now()
	mergeStart := time.Now()
	s.engineMu.Lock()
	mergeWait := time.Since(mergeStart)
	e.mergeWaitH.Observe(int64(mergeWait))
	defer s.engineMu.Unlock()
	e.mu.Lock()
	if e.stop {
		e.mu.Unlock()
		return
	}
	if e.ev != nil {
		delete(e.ev.parked, c.Node) // success resets the failure streak
	}
	e.mu.Unlock()
	// A racing merge may have pruned the call node after our evaluation;
	// re-validate under the write lock so detached results are dropped.
	if !s.Attached(c) {
		e.mu.Lock()
		e.forgetLocked(c.Node)
		e.mu.Unlock()
		return
	}
	fresh, detached, path := s.merge(c, a.forest)
	if a.lasts {
		// The merge ran: commit the gate the answer was computed under,
		// whether or not the answer grew the document.
		s.gateMu.Lock()
		s.gate[c.Node] = a.g.lasting()
		s.gateMu.Unlock()
	}
	if len(fresh) == 0 {
		return
	}
	e.mu.Lock()
	e.res.Steps++
	step := e.res.Steps
	if step >= e.maxSteps {
		e.stopLocked()
	}
	if e.ev != nil {
		e.afterMergeLocked(c, fresh, detached, path)
	}
	e.mu.Unlock()
	if e.tracer != nil {
		e.tracer.Emit(obs.Span{
			Kind:  "merge",
			Name:  c.Node.Name,
			TSUs:  mergeTS,
			DurUs: int64(time.Since(mergeStart) / time.Microsecond),
			Attrs: map[string]int64{
				"wait_us": int64(mergeWait / time.Microsecond),
				"step":    int64(step),
			},
		}.WithContext(parent.NewChild(), parent))
	}
	if e.opts.MaxNodes > 0 && s.Size() > e.opts.MaxNodes {
		e.mu.Lock()
		e.stopLocked()
		e.mu.Unlock()
	}
	if e.opts.OnStep != nil {
		// Called under the write lock: the system is quiescent for the
		// observer and steps are delivered in merge order. The callback
		// must not re-enter the engine.
		e.opts.OnStep(step, c)
	}
}

// forgetLocked (e.mu held) drops a call whose node reduction pruned from
// its document: its gate entries and, in a worklist run, its registration.
func (e *engine) forgetLocked(n *tree.Node) {
	delete(e.seen, n)
	e.s.gateMu.Lock()
	delete(e.s.gate, n)
	e.s.gateMu.Unlock()
	if e.ev != nil {
		e.ev.unregisterLocked(n)
	}
}

// recordFailure applies the error policy to one failed invocation.
func (e *engine) recordFailure(ctx context.Context, c Call, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stop {
		// The budget already stopped the run (or fail-fast tripped on an
		// earlier error); late failures from draining workers are not
		// part of the result.
		return
	}
	if cause := ctx.Err(); cause != nil && errors.Is(err, cause) {
		// The run was cancelled and the "failure" is our own cancellation
		// surfacing through the service — not an endpoint failure. The
		// schedule reports ctx.Err() itself.
		return
	}
	e.res.Failures++
	if e.res.Errors == nil {
		e.res.Errors = make(map[string]int)
	}
	e.res.Errors[c.Node.Name]++
	if e.res.Err == nil {
		e.res.Err = err
	}
	if e.opts.ErrorPolicy == FailFast {
		e.stopLocked()
		return
	}
	// Degrade: drop the run's gate entry so the call is eligible again
	// despite unchanged versions — the failure may have been transient.
	// The retry falls back to the committed gate, the last attempt whose
	// merge ran, so it evaluates against the delta since that answer (in
	// full when there is none): a partial read of the failed attempt is
	// never a baseline. The sweep retries it next sweep; the worklist
	// re-enqueues or parks.
	delete(e.seen, c.Node)
	if e.ev != nil {
		e.ev.retryLocked(c.Node, e.maxErrorSweeps)
	}
}

func (e *engine) stopped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stop
}

// stopLocked (e.mu held) halts dispatch; in a worklist run it also
// cancels the in-flight evaluations and wakes the parked workers.
func (e *engine) stopLocked() {
	e.stop = true
	if e.ev != nil {
		e.ev.cancel()
		e.ev.cond.Broadcast()
	}
}
