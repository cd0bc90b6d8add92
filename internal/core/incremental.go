package core

import (
	"context"
	"sync"
	"time"

	"axml/internal/obs"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/tree"
)

// This file implements the worklist schedule (Parallelism > 1, what
// RunOptions{} means on a multi-core machine): instead of sweeping every
// call after every change, the workers drain a worklist fed by
// document-version events through a reverse dependency index derived
// from the dependency graph of Definition 3.2. A merge into document d
// wakes exactly
//
//   - the calls discovered inside the appended forest (they never ran);
//   - the calls living in d whose service reads its input or context,
//     when the merge path actually runs through their call or parent
//     node (a merge into a sibling subtree cannot change what they see);
//   - the calls of every service reading d by name, gated by an
//     atom-local relevance check against the merge's delta;
//   - every call of every black-box service (their read sets are
//     unknown, so they conservatively subscribe to everything — the
//     same fallback relevantDocs uses).
//
// Theorem 2.1 (confluence of fair monotone rewriting) licenses the
// scheduling freedom: any order of these firings reaches the same
// fixpoint the sweeping schedule reaches. Completeness — no call left
// sleeping while its read set moved — holds because every mutation a
// run performs funnels through merge, and every merge wakes every call
// whose next answer its delta could enlarge. (Out-of-band mutations —
// Append, Restore, Touch under System.Update — exclude the run's
// evaluations and merges but wake nothing: the next run sees them.)

// qstate tracks a call node's position in the worklist lifecycle.
type qstate uint8

const (
	qIdle    qstate = iota // not queued, not running (default)
	qQueued                // in the FIFO queue
	qRunning               // being processed by a worker
	qDirty                 // being processed AND re-signalled: requeue after
)

// eventState is the engine's worklist and reverse-index bookkeeping,
// guarded by engine.mu.
type eventState struct {
	// Reverse dependency index, fixed at run start (services are
	// immutable during a run).
	namedReaders map[string][]string  // doc name -> funcs reading it by name
	readsInput   map[string]bool      // funcs whose query reads "input"
	readsContext map[string]bool      // funcs whose query reads "context"
	blackBox     []string             // funcs with unknown read sets
	bodies       map[string]*gateBody // declarative funcs' bodies, for the gate

	// Live-call registry: every currently known call, indexed for event
	// delivery (by function) and for post-merge cleanup (by document).
	calls  map[*tree.Node]Call
	byFunc map[string]map[*tree.Node]bool
	byDoc  map[string]map[*tree.Node]bool

	queue    []*tree.Node // FIFO worklist of call nodes
	state    map[*tree.Node]qstate
	parked   map[*tree.Node]int // consecutive failures per call (Degrade)
	inflight int
	cond     *sync.Cond         // on engine.mu; wakes idle workers
	cancel   context.CancelFunc // aborts the run's in-flight evaluations

	enqueues  int // enqueue requests delivered
	coalesced int // requests absorbed into an already-pending entry
}

func newEventState(s *System, mu *sync.Mutex, cancel context.CancelFunc) *eventState {
	ev := &eventState{
		cond:         sync.NewCond(mu),
		cancel:       cancel,
		namedReaders: map[string][]string{},
		readsInput:   map[string]bool{},
		readsContext: map[string]bool{},
		bodies:       map[string]*gateBody{},
		calls:        map[*tree.Node]Call{},
		byFunc:       map[string]map[*tree.Node]bool{},
		byDoc:        map[string]map[*tree.Node]bool{},
		state:        map[*tree.Node]qstate{},
		parked:       map[*tree.Node]int{},
	}
	for _, f := range s.funcNames {
		qs := s.Declarative(f)
		if qs == nil {
			ev.blackBox = append(ev.blackBox, f)
			continue
		}
		ev.bodies[f] = compileBody(qs.Query)
		for _, d := range qs.Query.DocNames() {
			switch d {
			case tree.Input:
				ev.readsInput[f] = true
			case tree.Context:
				ev.readsContext[f] = true
			default:
				ev.namedReaders[d] = append(ev.namedReaders[d], f)
			}
		}
	}
	return ev
}

// registerLocked adds a call to the live registry (engine.mu held).
func (ev *eventState) registerLocked(c Call) {
	if _, ok := ev.calls[c.Node]; ok {
		return
	}
	ev.calls[c.Node] = c
	if ev.byFunc[c.Node.Name] == nil {
		ev.byFunc[c.Node.Name] = map[*tree.Node]bool{}
	}
	ev.byFunc[c.Node.Name][c.Node] = true
	if ev.byDoc[c.Doc] == nil {
		ev.byDoc[c.Doc] = map[*tree.Node]bool{}
	}
	ev.byDoc[c.Doc][c.Node] = true
}

// unregisterLocked removes a pruned call from the registry (engine.mu
// held). A queued entry stays in the FIFO; the pop skips nodes that are
// no longer registered.
func (ev *eventState) unregisterLocked(n *tree.Node) {
	c, ok := ev.calls[n]
	if !ok {
		return
	}
	delete(ev.calls, n)
	delete(ev.byFunc[c.Node.Name], n)
	delete(ev.byDoc[c.Doc], n)
	delete(ev.parked, n)
}

// enqueueLocked delivers one event to a call node (engine.mu held):
// queue it if idle, mark it dirty if running, absorb the event if
// already pending. Coalescing is what keeps the worklist linear in the
// number of distinct woken calls rather than in the number of events.
func (ev *eventState) enqueueLocked(n *tree.Node) {
	ev.enqueues++
	switch ev.state[n] {
	case qQueued, qDirty:
		ev.coalesced++
	case qRunning:
		ev.state[n] = qDirty
		ev.coalesced++
	default:
		ev.state[n] = qQueued
		ev.queue = append(ev.queue, n)
		ev.cond.Signal()
	}
}

// retryLocked schedules a failed call's retry under Degrade (engine.mu
// held): re-enqueue it, or park it after maxErrors consecutive failures
// until some other call makes progress (afterMergeLocked unparks).
func (ev *eventState) retryLocked(n *tree.Node, maxErrors int) {
	ev.parked[n]++
	if ev.parked[n] < maxErrors {
		ev.enqueueLocked(n)
	}
}

// runWorklist is the worklist schedule: seed the worklist with every
// existing call, then let the workers drain it. Fixpoint = drained queue
// with nothing in flight; fairness holds because an enqueued call is
// always eventually popped (FIFO) and a sterile pop costs O(1)
// version-vector comparison. RunResult.Sweeps stays 0: there are none.
func (e *engine) runWorklist(ctx context.Context) RunResult {
	// A budget stop or a fail-fast error cancels runCtx (stopLocked), so
	// in-flight evaluations abort instead of being waited out.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ev := newEventState(e.s, &e.mu, cancel)
	e.ev = ev
	e.rlock = e.s.engineMu.RLockFair
	// One drain = the whole run; it plays the sweep's role in the trace
	// tree.
	e.root = e.traceRoot(ctx)
	var drainSC obs.SpanContext
	if e.tracer != nil {
		drainSC = e.root.NewChild()
	}

	// Both walk the live documents, so both stay under the read lock: a
	// concurrent run on the same system may be merging.
	e.rlock()
	initial := e.s.Calls()
	e.s.purgeGate(initial)
	seedOrder := e.s.incrementalSeedOrder()
	e.s.engineMu.RUnlock()
	// Seed in dependency order (dependencies first) so upstream answers
	// tend to be in place before downstream calls first fire; the
	// configured scheduler breaks the remaining ties.
	e.sched.Order(initial)
	byPriority(seedOrder).Order(initial)
	e.mu.Lock()
	for _, c := range initial {
		ev.registerLocked(c)
		ev.enqueueLocked(c.Node)
	}
	e.mu.Unlock()

	// Wake blocked workers when the caller cancels.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			e.mu.Lock()
			ev.cond.Broadcast()
			e.mu.Unlock()
		case <-watchDone:
		}
	}()

	drainTS := e.tracer.Now()
	drainStart := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < e.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.drainWorklist(runCtx, drainSC)
		}()
	}
	wg.Wait()
	close(watchDone)

	e.mu.Lock()
	if ctx.Err() != nil && e.res.Err == nil {
		e.res.Err = ctx.Err()
	}
	if !e.stop && ctx.Err() == nil && len(ev.queue) == 0 && len(ev.parked) == 0 {
		// Drained with nothing parked: every call's read set is at its
		// recorded version, so no invocation can change the system — the
		// fixpoint of Definition 2.4.
		e.res.Terminated = true
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Span{
			Kind:  "drain",
			TSUs:  drainTS,
			DurUs: int64(time.Since(drainStart) / time.Microsecond),
			Attrs: map[string]int64{
				"enqueues":  int64(ev.enqueues),
				"coalesced": int64(ev.coalesced),
				"fired":     int64(e.res.Attempts),
				"steps":     int64(e.res.Steps),
				"sterile":   int64(e.sterile),
				"parked":    int64(len(ev.parked)),
			},
		}.WithContext(drainSC, e.root))
	}
	e.mu.Unlock()
	return e.result()
}

// incrementalSeedOrder is fireOnceOrder over the conservative dependency
// graph: a per-function priority with dependencies first, or nil when
// the graph is cyclic (any seeding order is then as good as another).
func (s *System) incrementalSeedOrder() map[string]int {
	topo, err := s.ConservativeDependencyGraph().TopoOrder()
	if err != nil {
		return nil
	}
	order := make(map[string]int, len(topo))
	for i, v := range topo {
		if _, isFunc := s.funcs[v]; isFunc {
			order[v] = i
		}
	}
	return order
}

// drainWorklist is one worker's loop: pop, fire, repeat; park on the
// condition variable while the queue is empty but work is in flight
// (the in-flight calls may enqueue more). All workers exit when the
// queue is empty with nothing in flight, on stop, or on cancellation.
func (e *engine) drainWorklist(ctx context.Context, drainSC obs.SpanContext) {
	ev := e.ev
	for {
		e.mu.Lock()
		for len(ev.queue) == 0 && ev.inflight > 0 && !e.stop && ctx.Err() == nil {
			ev.cond.Wait()
		}
		if e.stop || ctx.Err() != nil || (len(ev.queue) == 0 && ev.inflight == 0) {
			ev.cond.Broadcast() // propagate the exit condition
			e.mu.Unlock()
			return
		}
		n := ev.queue[0]
		ev.queue = ev.queue[1:]
		c, live := ev.calls[n]
		if !live {
			// Unregistered (pruned) while queued; drop the stale entry.
			delete(ev.state, n)
			e.mu.Unlock()
			continue
		}
		ev.state[n] = qRunning
		ev.inflight++
		e.mu.Unlock()

		e.fireGroup(ctx, drainSC, c.Node.Name, []Call{c})

		e.mu.Lock()
		ev.inflight--
		switch ev.state[n] {
		case qDirty:
			// Events arrived during processing: go around again.
			ev.state[n] = qQueued
			ev.queue = append(ev.queue, n)
			ev.cond.Signal()
		case qRunning:
			delete(ev.state, n)
		}
		if ev.inflight == 0 && len(ev.queue) == 0 {
			ev.cond.Broadcast() // drained: wake everyone to exit
		}
		e.mu.Unlock()
	}
}

// afterMergeLocked fans one completed merge out as events (both the
// system write lock and engine.mu held — the index update is atomic
// with the merge, so no event can fall between them). sinceV is the
// pre-merge version: exactly the fresh nodes of this merge are stamped
// above it.
func (e *engine) afterMergeLocked(c Call, fresh tree.Forest, detached, path []*tree.Node) {
	s, ev := e.s, e.ev
	sinceV := s.docVersion[c.Doc] - 1

	// Progress unparks persistent failures: mirroring the sweep's
	// fruitless counter, a failing call is worth retrying as long as the
	// rest of the system still advances.
	for n, count := range ev.parked {
		if count >= e.maxErrorSweeps {
			ev.enqueueLocked(n)
		}
	}
	for n := range ev.parked {
		delete(ev.parked, n)
	}

	// Reduction during this merge detached exactly the calls inside the
	// subtrees it pruned: drop them from the registry and the gate.
	for _, t := range detached {
		t.Walk(func(n, _ *tree.Node) bool {
			if n.Kind == tree.Func {
				e.forgetLocked(n)
			}
			return true
		})
	}

	// New calls delivered inside the appended forest. Their ancestor
	// chain extends the merge path, shared structurally like in Calls().
	var attachLink *pathLink
	for _, n := range path {
		attachLink = &pathLink{node: n, up: attachLink}
	}
	var discover func(n, parent *tree.Node, up *pathLink)
	discover = func(n, parent *tree.Node, up *pathLink) {
		if n.Kind == tree.Func {
			nc := Call{Doc: c.Doc, Node: n, Parent: parent, path: up}
			ev.registerLocked(nc)
			ev.enqueueLocked(n)
		}
		link := &pathLink{node: n, up: up}
		for _, ch := range n.Children {
			discover(ch, n, link)
		}
	}
	for _, t := range fresh {
		discover(t, c.Parent, attachLink)
	}

	// Own-document readers, scoped by the merge path: a call reading its
	// context sees this merge only if its parent lies on root..attach
	// (the appended forest is inside its context subtree); one reading
	// its input only if its own node does.
	onPath := make(map[*tree.Node]bool, len(path))
	for _, n := range path {
		onPath[n] = true
	}
	for n := range ev.byDoc[c.Doc] {
		lc := ev.calls[n]
		f := lc.Node.Name
		scoped := (ev.readsContext[f] && onPath[lc.Parent]) ||
			(ev.readsInput[f] && onPath[lc.Node])
		if scoped && s.callLocalAtomsAffected(ev.bodies[f], lc, c.Doc, sinceV) {
			ev.enqueueLocked(n)
		}
	}

	// Named readers of the merged document, gated by the atom-local
	// relevance of the delta (shared across the function's calls: the
	// named atoms match the same document root for all of them).
	for _, f := range ev.namedReaders[c.Doc] {
		if !s.namedAtomsAffected(ev.bodies[f], c.Doc, sinceV) {
			continue
		}
		for n := range ev.byFunc[f] {
			ev.enqueueLocked(n)
		}
	}

	// Black boxes subscribe to everything.
	for _, f := range ev.blackBox {
		for n := range ev.byFunc[f] {
			ev.enqueueLocked(n)
		}
	}
}

// gateBody is a declarative service's body compiled once per run for the
// atom-local relevance gate: each atom's pattern, over one numbering.
type gateBody struct {
	vars  pattern.Vars
	atoms []query.Atom
	pats  []*pattern.Compiled
}

func compileBody(q *query.Query) *gateBody {
	b := &gateBody{atoms: q.Body}
	for _, a := range q.Body {
		b.pats = append(b.pats, b.vars.Compile(a.Pattern))
	}
	return b
}

// hasDelta reports whether atom i embeds into d with some witness stamped
// after since: the delta matcher's first row, none built past it.
func (b *gateBody) hasDelta(ix *pattern.Index, i int, d *tree.Node, since uint64) bool {
	return ix.HasDelta(b.pats[i], d, pattern.NewSlab(&b.vars).Row(), since)
}

// namedAtomsAffected reports whether any atom of body b reading document
// d by name has a match with a witness in the delta above sinceV. It is a
// necessary condition without the cross-atom join: if no single atom
// gained a witnessing embedding, the conjunction cannot have gained an
// assignment that uses the delta, so the function's calls need not wake
// for this merge. (A match completed by a LATER merge is woken by that
// merge: its completing node is fresh then.)
func (s *System) namedAtomsAffected(b *gateBody, d string, sinceV uint64) bool {
	root := s.docs[d].Root
	for i, a := range b.atoms {
		if a.Doc == d && b.hasDelta(s.indexes[d], i, root, sinceV) {
			return true
		}
	}
	return false
}

// callLocalAtomsAffected is namedAtomsAffected for the reserved atoms of
// one concrete call: its input (the call's parameter subtrees) and its
// context (the parent's subtree), both of which live in document d.
func (s *System) callLocalAtomsAffected(b *gateBody, lc Call, d string, sinceV uint64) bool {
	if lc.Doc != d {
		return true
	}
	for i, a := range b.atoms {
		var target *tree.Node
		switch a.Doc {
		case tree.Input:
			target = &tree.Node{Kind: tree.Label, Name: tree.Input, Children: lc.Node.Children}
		case tree.Context:
			target = lc.Parent
		default:
			continue
		}
		// Only a root-level context is the indexed root; every other target
		// is walked for its fresh roots.
		if b.hasDelta(s.indexes[d], i, target, sinceV) {
			return true
		}
	}
	return false
}
