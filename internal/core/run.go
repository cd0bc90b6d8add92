package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"axml/internal/obs"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// Call locates one invocable function node: the document it lives in, the
// node itself, its parent (the attachment point for results) and the
// ancestor chain, which the localized reduction in Invoke walks upward.
type Call struct {
	Doc    string
	Node   *tree.Node
	Parent *tree.Node
	// path links Parent back to the document root. Paths of sibling
	// calls share their common prefix, so enumerating all calls costs
	// O(document), not O(document · depth). It may be nil for calls
	// constructed by hand; Invoke then recomputes the chain.
	path *pathLink
}

// pathLink is one step of an immutable, structurally-shared ancestor
// chain: node's parent chain continues in up (nil at the root).
type pathLink struct {
	node *tree.Node
	up   *pathLink
}

// Ancestors materializes the chain root-first (parent of Node last), or
// nil when the call was built by hand.
func (c Call) Ancestors() []*tree.Node {
	var rev []*tree.Node
	for l := c.path; l != nil; l = l.up {
		rev = append(rev, l.node)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Calls enumerates every function node occurrence across all documents in
// document order, preorder within each document.
func (s *System) Calls() []Call {
	var w callWalk
	for _, name := range s.docNames {
		if root := s.docs[name].Root; root.Kind != tree.Func { // excluded by AddDocument; defensive
			w.doc, w.stack, w.links = name, append(w.stack[:0], root), append(w.links[:0], nil)
			w.children(root)
		}
	}
	return w.out
}

// callWalk is Calls' state: the ancestors root-first, and stack[i]'s link
// once a call below it needs one. No other node is linked or allocated.
type callWalk struct {
	doc   string
	stack []*tree.Node
	links []*pathLink
	out   []Call
}

func (w *callWalk) children(n *tree.Node) {
	for _, c := range n.Children {
		if c.Kind == tree.Func {
			up := w.link(len(w.stack) - 1)
			w.out = append(w.out, Call{Doc: w.doc, Node: c, Parent: up.node, path: up})
		}
		// Parameters of calls host calls too: keep walking below.
		w.stack, w.links = append(w.stack, c), append(w.links, nil)
		w.children(c)
		w.stack, w.links = w.stack[:len(w.stack)-1], w.links[:len(w.links)-1]
	}
}

func (w *callWalk) link(i int) *pathLink {
	if w.links[i] == nil && i == 0 {
		w.links[i] = &pathLink{node: w.stack[i]}
	} else if w.links[i] == nil {
		w.links[i] = &pathLink{node: w.stack[i], up: w.link(i - 1)}
	}
	return w.links[i]
}

// Invoke performs the invocation of Section 2.2 on the given call: it
// builds the input and context documents, evaluates the service under the
// given context, appends the result forest as siblings of the call node
// and reduces the document. It reports whether the system strictly grew
// (I ≢ I', i.e. whether this was a rewriting step in the sense of
// Definition 2.4). Cancellation of ctx aborts the service evaluation (for
// services that honor it) but never leaves the document half-mutated: the
// merge is all-or-nothing after the evaluation returned.
func (s *System) Invoke(ctx context.Context, c Call) (changed bool, err error) {
	forest, err := s.evaluateSince(ctx, c, nil)
	if err != nil {
		return false, err
	}
	fresh, _, _ := s.merge(c, forest)
	return len(fresh) > 0, nil
}

// evaluateSince is the read-only half of Invoke: it validates the call,
// builds its binding (bindingOf) and evaluates the service on it. The
// engine runs it under the system's read lock, so any number of
// evaluations proceed concurrently. A non-nil since map (per-document
// baseline versions, keyed by the names the service's query uses,
// including "input"/"context") requests a semi-naive delta evaluation:
// declarative services return only results with a witness in the data
// appended after the baseline.
func (s *System) evaluateSince(ctx context.Context, c Call, since map[string]uint64) (tree.Forest, error) {
	svc := s.funcs[c.Node.Name]
	if svc == nil {
		return nil, fmt.Errorf("core: call to undefined service %q", c.Node.Name)
	}
	if s.docs[c.Doc] == nil {
		return nil, fmt.Errorf("core: call in unknown document %q", c.Doc)
	}
	if c.Parent == nil {
		// Function roots are excluded by Definition 2.1(ii); documents
		// added through AddDocument never reach this. Guard anyway.
		return nil, fmt.Errorf("core: call %q is a document root", c.Node.Name)
	}
	forest, err := svc.Invoke(ctx, s.bindingOf(c, since))
	if err != nil {
		return nil, serviceErr(c, err)
	}
	return forest, nil
}

// serviceErr names the call's service on an error its evaluation returned.
func serviceErr(c Call, err error) error {
	return fmt.Errorf("core: service %q: %w", c.Node.Name, err)
}

// bindingOf builds a valid call's binding, with since as its delta
// baseline (fireBatch's calls come from Calls, so are valid). Bindings
// alias the live trees: services read them (pattern matching never
// mutates, and head instantiation copies every bound subtree), and
// copying the context would cost O(document) per invocation.
func (s *System) bindingOf(c Call, since map[string]uint64) Binding {
	return Binding{
		Input:   &tree.Node{Kind: tree.Label, Name: tree.Input, Children: c.Node.Children},
		Context: c.Parent,
		Docs:    s.Docs(),
		Since:   since,
		Indexes: s.bindingIndexes(c),
	}
}

// bindingIndexes assembles the per-document inverted indexes a call's
// evaluation may use: every system document's index plus "context"
// resolved to the call's own document (the context subtree lives there;
// the index accelerates the match exactly when the context is the whole
// document). The synthetic input root is never an indexed node, so no
// index is offered for it.
func (s *System) bindingIndexes(c Call) query.Indexes {
	ixs := make(query.Indexes, len(s.indexes)+1)
	for name, ix := range s.indexes {
		ixs[name] = ix
	}
	ixs[tree.Context] = s.indexes[c.Doc]
	return ixs
}

// merge is the mutating half of Invoke: it appends the result forest as
// siblings of the call node (appendAt). The engine serializes merges
// under the system's write lock — the "version funnel" through which
// every result lands. Merging is a least upper bound, so the order in
// which racing results arrive does not affect the reachable fixpoint
// (Theorem 2.1). Besides appendAt's results it returns the ancestor path
// root..attach; the worklist schedule uses all three to discover new
// calls, forget detached ones and scope its re-enqueues.
func (s *System) merge(c Call, forest tree.Forest) (fresh tree.Forest, detached, path []*tree.Node) {
	path = c.Ancestors()
	if len(path) == 0 || path[len(path)-1] != c.Parent {
		path = s.findPath(s.docs[c.Doc].Root, c.Parent)
	}
	fresh, detached = s.appendAt(c.Doc, path, forest)
	return fresh, detached, path
}

// appendAt is the one place a document grows: subsume.Graft appends the
// forest under the last node of path (root..attach) and repairs reduction
// locally; on growth the version is bumped, the appended trees are
// stamped with the post-bump version — a later delta evaluation with a
// baseline at or above the pre-bump version sees exactly these nodes as
// its delta — and the index follows incrementally. It returns Graft's
// results: the appended trees (none: nothing changed) and the subtrees
// reduction detached on their account. A registered mutation hook is
// handed the growth, with the path digests taken before Graft rewrote
// them: the pre-state is where a replay of the growth resolves its path.
func (s *System) appendAt(doc string, path []*tree.Node, forest tree.Forest) (fresh tree.Forest, detached []*tree.Node) {
	var steps []GraftStep
	if s.onMutate != nil && len(forest) > 0 {
		steps = make([]GraftStep, len(path)-1)
		for i, n := range path[1:] {
			steps[i] = GraftStep{Kind: n.Kind, Name: n.Name, Digest: n.Digest()}
		}
	}
	fresh, detached = subsume.Graft(path, forest)
	if len(fresh) == 0 {
		return nil, nil
	}
	ix := s.indexes[doc] // a nil index's methods no-op
	for _, d := range detached {
		ix.RemoveSubtree(d)
	}
	s.bumpVersion(doc)
	// Graft's copies keep their memos: their digests are already known.
	for _, f := range fresh {
		f.Restamp(s.docVersion[doc])
		ix.AddSubtree(path[len(path)-1], f)
	}
	ix.Compact()
	if s.onMutate != nil {
		s.onMutate(doc, steps, fresh)
	}
	return fresh, detached
}

// Append merges a forest into the named document as children of parent —
// what an invocation at a call under parent does with its result, for
// data arriving from outside a run (a pushed forest, a replication
// patch). It reports whether the document grew, and fails for an unknown
// document or a parent that is not (or no longer) one of its nodes. Like
// Restore it takes no lock: on a live system call it inside Update.
func (s *System) Append(doc string, parent *tree.Node, forest tree.Forest) (changed bool, err error) {
	d := s.docs[doc]
	if d == nil {
		return false, fmt.Errorf("core: append to unknown document %q", doc)
	}
	path := s.findPath(d.Root, parent)
	if path == nil {
		return false, fmt.Errorf("core: append to %q: the parent node is not in the document", doc)
	}
	fresh, _ := s.appendAt(doc, path, forest)
	return len(fresh) > 0, nil
}

// declarative resolves the named service to its innermost QueryService,
// unwrapping middleware decorations; it returns nil for black boxes.
func (s *System) declarative(name string) *QueryService {
	qs, _ := Innermost(s.funcs[name]).(*QueryService)
	return qs
}

// relevantDocs returns the names of the documents whose content can
// influence the call's next answer, deduplicated, in a deterministic
// order (query first-occurrence order for positive services, system
// insertion order for black boxes): for positive services, the documents
// their defining query reads (input and context both live inside the
// call's own document); for black boxes, every document.
func (s *System) relevantDocs(c Call) []string {
	if qs := s.declarative(c.Node.Name); qs != nil {
		var out []string
		seenOwn := false
		for _, d := range qs.Query.DocNames() {
			if d == tree.Input || d == tree.Context {
				d = c.Doc
			}
			if d == c.Doc {
				if seenOwn {
					continue
				}
				seenOwn = true
			}
			out = append(out, d)
		}
		return out
	}
	return s.docNames
}

// relevantVersionVector returns the per-document versions of the call's
// relevant documents, aligned with relevantDocs. The engine's sterile-
// call gate compares whole vectors: unlike the version *sum* this
// replaces, distinct states never alias (a sum is blind to one document
// advancing while another is restored from a lower-versioned snapshot,
// and wraps silently), and the vector doubles as the baseline a delta
// evaluation resumes from, which needs to know WHICH document moved.
func (s *System) relevantVersionVector(c Call) []uint64 {
	docs := s.relevantDocs(c)
	vec := make([]uint64, len(docs))
	for i, d := range docs {
		vec[i] = s.docVersion[d]
	}
	return vec
}

// gateOf reads the call's gate under the read side: the versions of its
// relevant documents, plus its context's digest and tok when its service
// is Versioned and tok is known. lasts reports whether the gate outlives
// the run — declarative calls and versioned calls with a token; any other
// black box has no known read set beyond this run's versions.
func (s *System) gateOf(c Call, tok string) (g gate, lasts bool) {
	g.versions = s.relevantVersionVector(c)
	if tok != "" {
		g.context, g.token = c.Parent.Digest(), tok
		return g, true
	}
	return g, s.declarative(c.Node.Name) != nil
}

// sinceFor converts the version vector recorded at the call's previous
// evaluation into the per-atom-name baseline map a delta evaluation
// needs: every document name the defining query uses (including the
// reserved input/context, which resolve to the call's own document) is
// mapped to its baseline version. It returns nil — full evaluation —
// for black boxes and for vectors that do not match the current
// relevant-document list.
func (s *System) sinceFor(c Call, prev []uint64) map[string]uint64 {
	if prev == nil {
		return nil
	}
	qs := s.declarative(c.Node.Name)
	if qs == nil {
		return nil
	}
	docs := s.relevantDocs(c)
	if len(prev) != len(docs) {
		return nil
	}
	byDoc := make(map[string]uint64, len(docs))
	for i, d := range docs {
		byDoc[d] = prev[i]
	}
	since := make(map[string]uint64, len(qs.Query.DocNames()))
	for _, d := range qs.Query.DocNames() {
		name := d
		if d == tree.Input || d == tree.Context {
			// Input and context are subtrees of the call's own document,
			// so they share its baseline (exactly as in relevantDocs).
			name = c.Doc
		}
		if v, ok := byDoc[name]; ok {
			since[d] = v
		}
	}
	return since
}

// findPath recomputes the ancestor chain root..target for calls built
// without a Path. It returns nil when target is not in the tree.
func (s *System) findPath(root, target *tree.Node) []*tree.Node {
	var path []*tree.Node
	var found []*tree.Node
	var rec func(n *tree.Node) bool
	rec = func(n *tree.Node) bool {
		path = append(path, n)
		if n == target {
			found = append([]*tree.Node(nil), path...)
			return true
		}
		for _, c := range n.Children {
			if rec(c) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	rec(root)
	return found
}

// Scheduler chooses the order in which the calls of a sweep are
// attempted. Fairness is enforced by the engine's sweep structure, not by
// the scheduler: every call present at the start of a sweep is attempted
// during that sweep, in the order the scheduler fixed. A worklist run
// (Parallelism > 1) uses it once, to break ties when seeding the queue.
type Scheduler interface {
	// Order permutes the sweep's call list in place.
	Order(calls []Call)
}

// RoundRobin attempts calls in document/preorder order.
type RoundRobin struct{}

// Order implements Scheduler (identity).
func (RoundRobin) Order(calls []Call) {}

// Reverse attempts calls in reverse document/preorder order.
type Reverse struct{}

// Order implements Scheduler.
func (Reverse) Order(calls []Call) {
	for i, j := 0, len(calls)-1; i < j; i, j = i+1, j-1 {
		calls[i], calls[j] = calls[j], calls[i]
	}
}

// Random attempts calls in uniformly random order, deterministically from
// the seed. Distinct seeds give distinct fair sequences, which Experiment
// E2 uses to demonstrate confluence (Theorem 2.1).
type Random struct{ Rng *rand.Rand }

// NewRandom returns a Random scheduler seeded with seed.
func NewRandom(seed int64) *Random { return &Random{Rng: rand.New(rand.NewSource(seed))} }

// Order implements Scheduler.
func (r *Random) Order(calls []Call) {
	r.Rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
}

// ErrorPolicy selects how Run reacts to a service invocation error.
type ErrorPolicy int

const (
	// FailFast aborts the run on the first service error (the historical
	// behavior): RunResult.Err carries the error and all other calls of
	// the sweep are abandoned.
	FailFast ErrorPolicy = iota
	// Degrade quarantines a failing call for the remainder of its sweep,
	// keeps sweeping every other call, and retries the failed call on
	// later sweeps. Theorem 2.1 (confluence of fair rewritings of
	// monotone systems) makes this safe: deferring an invocation can
	// only postpone information, never change the final state. The run
	// still terminates normally once a sweep is both change-free and
	// error-free; it gives up (Terminated=false, Err set) after
	// MaxErrorSweeps consecutive sweeps that made no progress and still
	// saw errors. A worklist run re-enqueues a failed call instead, parks
	// it after MaxErrorSweeps consecutive failures, unparks it when any
	// other call makes progress, and gives up when only parked calls
	// remain.
	Degrade
)

// RunOptions bounds a rewriting run. The zero value means: the worklist
// schedule with GOMAXPROCS workers, round-robin seeding, at most
// DefaultMaxSteps rewriting steps, no node bound and fail-fast error
// handling. Every evaluation is semi-naive whatever the schedule:
// declarative services are re-evaluated only against the data appended
// since their call's last attempt (per-node version stamps, see
// tree.Node.Stamp), which Proposition 3.1 (monotonicity) makes sound.
type RunOptions struct {
	// Scheduler orders call attempts within a sweep; nil means RoundRobin.
	Scheduler Scheduler
	// Parallelism selects the schedule and its width: 0 means GOMAXPROCS;
	// 1 is the deterministic sweep (one goroutine, exact step/attempt
	// accounting, strict scheduler order); n > 1 is the event-driven
	// worklist drained by n workers, fed by document-version events
	// through the reverse dependency index (black boxes conservatively
	// subscribe to every document). Theorem 2.1 (the fixpoint is
	// independent of the firing order) is what licenses the choice:
	// results merge by least upper bound, so races between firings are
	// semantically harmless and the final state equals the sequential
	// one. Counters (Steps, Attempts) may differ run to run when
	// Parallelism > 1; use 1 when a test asserts exact counts or needs
	// the scheduler's order to be observed strictly.
	Parallelism int
	// MaxSteps caps the number of strictly-growing invocations; 0 means
	// DefaultMaxSteps. Use a finite budget for possibly-infinite systems.
	MaxSteps int
	// MaxNodes stops the run once the total system size exceeds it;
	// 0 means unbounded.
	MaxNodes int
	// MaxSweeps stops after that many completed sweeps; 0 means
	// unbounded. One sweep attempts every call present at its start. A
	// sweep budget is only defined for the sweeping schedule, so a run
	// with MaxSweeps > 0 sweeps whatever Parallelism says.
	MaxSweeps int
	// ErrorPolicy selects fail-fast (zero value) or degraded handling of
	// service errors.
	ErrorPolicy ErrorPolicy
	// MaxErrorSweeps bounds, under Degrade, the consecutive sweeps that
	// make no progress while still seeing errors before the run gives
	// up (for a worklist run: the consecutive failures after which a
	// call is parked); 0 means DefaultMaxErrorSweeps.
	MaxErrorSweeps int
	// OnStep, when non-nil, observes every strictly-growing invocation.
	OnStep func(step int, c Call)
	// Metrics, when non-nil, receives the run's counters and latency
	// histograms under the engine.* names (engine.sweeps,
	// engine.calls.fired, engine.eval_ns, engine.merge_wait_ns, ...).
	// The run-local RunResult.Stats snapshot is collected regardless;
	// Metrics additionally accumulates across runs — the process-wide
	// view /debug/vars serves.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per sweep (one drain span
	// for a worklist run), per fired call and per merge (see obs.Span for
	// the schema); nil disables tracing with no hot-path cost beyond a nil
	// check.
	Tracer *obs.Tracer
}

// DefaultMaxSteps bounds runs whose options leave MaxSteps at zero.
const DefaultMaxSteps = 100000

// DefaultMaxErrorSweeps bounds fruitless all-error sweeps under Degrade.
const DefaultMaxErrorSweeps = 3

// RunResult reports what a rewriting run did.
type RunResult struct {
	// Steps counts strictly-growing invocations (rewriting steps).
	Steps int
	// Attempts counts all invocations, including no-ops.
	Attempts int
	// Sweeps counts completed fair sweeps over all calls; 0 for a
	// worklist run (Parallelism > 1 without MaxSweeps), which has none.
	Sweeps int
	// Terminated is true when the run reached a fixpoint: a full sweep
	// in which no invocation changed the system (the system "terminates
	// at" its current state, Definition 2.4), or a drained worklist with
	// nothing in flight. Under Degrade the confirming sweep must also be
	// error-free, and the drained worklist must have nothing parked.
	Terminated bool
	// Failures counts invocations that returned an error. Under FailFast
	// it is at most 1; under Degrade failed calls are quarantined for
	// their sweep and retried later, so a terminated run may still
	// report the transient failures it rode through.
	Failures int
	// Errors counts failures per service name; nil when there were none.
	Errors map[string]int
	// Err is the first service error encountered, if any. A run can
	// terminate at the fixpoint with Err non-nil under Degrade when
	// every failure was transient.
	Err error
	// Stats is the run's measurement snapshot: where the workers spent
	// their time and how the version funnel behaved. Collected on every
	// run (the collection is a handful of atomic adds per firing), so
	// perf regressions are diagnosable from any RunResult without
	// re-running under a profiler.
	Stats RunStats
}

// RunStats is the per-run observability snapshot in RunResult.
type RunStats struct {
	// CallsFired counts evaluations actually dispatched (== Attempts).
	CallsFired int
	// CallsSterile counts calls the version gate skipped: their read set
	// had not moved since their last attempt, so re-firing provably
	// returns nothing new.
	CallsSterile int
	// DeltaEvals counts evaluations that ran semi-naively against the
	// delta since the call's previous baseline instead of against whole
	// documents (from the second evaluation of a call on; never for
	// black boxes).
	DeltaEvals int
	// Batches counts a sweeping run's batches (its calls to one
	// BatchService, answered by one InvokeBatch); CallsBatched, their calls.
	Batches      int
	CallsBatched int
	// Enqueues and EnqueuesCoalesced count, for a worklist run, the
	// enqueues performed and the enqueues absorbed into an already-pending
	// entry; both zero for a sweeping run.
	Enqueues          int
	EnqueuesCoalesced int
	// IndexHits and IndexMisses count, over this run, pattern matches
	// answered through a document's inverted index (anchored candidate
	// enumeration or an empty-candidate early reject) versus matches that
	// fell back to the naive tree walk despite an index being present
	// (no selective anchor, or a match rooted below the document root).
	// Concurrent runs on one system share the underlying counters, so the
	// deltas include their traffic. IndexBuilds counts the document
	// indexes first matches built.
	IndexHits   uint64
	IndexMisses uint64
	IndexBuilds uint64
	// Eval is the service-evaluation latency histogram (ns): one sample
	// per single call's evaluation and one per batch.
	Eval obs.HistSnapshot
	// MergeWait is the time each successful evaluation waited at the
	// version funnel before its merge ran (ns).
	MergeWait obs.HistSnapshot
	// ReaderWaits and WriterWaits are the version-funnel contention
	// deltas over the run: evaluations that waited out a merge, and
	// merges that queued behind evaluations (see System.LockContention).
	// Under concurrent runs on one system the deltas include the other
	// runs' traffic — contention is a property of the shared funnel.
	ReaderWaits uint64
	WriterWaits uint64
}

// Run executes a fair rewriting sequence in place until termination or
// budget exhaustion and reports the outcome, with a background context.
// See RunContext.
func (s *System) Run(opts RunOptions) RunResult {
	return s.RunContext(context.Background(), opts)
}

// RunContext executes a fair rewriting sequence in place until
// termination, budget exhaustion or context cancellation, and reports the
// outcome. Fairness: a sweeping run attempts, in each sweep, every
// function node that existed at the sweep's start, each at most once; a
// state is final iff a whole sweep changes nothing. A worklist run
// attempts a call whenever something it reads moved; a state is final
// iff the worklist drained. By Theorem 2.1 the final state depends on
// neither the schedule nor the scheduler (see RunOptions.Parallelism).
//
// The context is passed to every service invocation; cancelling it stops
// the run at the next call boundary (in-flight calls are cancelled through
// their own ctx) and RunResult.Err reports ctx.Err(). The documents are
// never left half-mutated: a cancelled run stops at a consistent (merely
// earlier) state, from which a later run resumes by monotonicity.
//
// Concurrent RunContext calls on the same System are safe: all engines
// funnel mutations through the system's version-funnel lock, which code
// outside a run joins through View and Update (a bare Touch, Restore or
// tree access beside a run is not synchronized). An Update wakes no
// sleeping worklist call: a run in flight may report a fixpoint that
// predates it, and the next run picks it up.
func (s *System) RunContext(ctx context.Context, opts RunOptions) RunResult {
	e := newEngine(s, opts)
	if e.workers == 1 {
		return e.runSweeps(ctx)
	}
	return e.runWorklist(ctx)
}

// purgeSeen drops version-gate entries whose nodes are no longer attached
// to any document: reduction prunes subtrees (and the call nodes inside
// them) for good, so without this the gate map grows without bound over a
// long run. Called at sweep boundaries with the fresh call snapshot.
func purgeSeen[V any](seen map[*tree.Node]V, live []Call) {
	if len(seen) == 0 {
		return
	}
	alive := make(map[*tree.Node]struct{}, len(live))
	for _, c := range live {
		alive[c.Node] = struct{}{}
	}
	for n := range seen {
		if _, ok := alive[n]; !ok {
			delete(seen, n)
		}
	}
}

// purgeGate is purgeSeen on the committed gate. The caller holds the
// read side from the Calls snapshot on, so live is exact: every committed
// node was attached at its merge, and none is merged meanwhile.
func (s *System) purgeGate(live []Call) {
	s.gateMu.Lock()
	purgeSeen(s.gate, live)
	s.gateMu.Unlock()
}

// pendingCalls lists current calls not in the fired set. Nodes removed by
// reduction disappear from the enumeration automatically.
func (s *System) pendingCalls(fired map[*tree.Node]bool) []Call {
	all := s.Calls()
	pending := all[:0]
	for _, c := range all {
		if !fired[c.Node] {
			pending = append(pending, c)
		}
	}
	return pending
}

// Attached reports whether the call's node is still part of its document,
// by re-validating the recorded ancestor chain (pruning only ever detaches
// whole subtrees, so intact links mean the node is present). Calls without
// a recorded path fall back to a full-document search. Like every read of
// the live documents it must not race a run in flight.
func (s *System) Attached(c Call) bool {
	d := s.docs[c.Doc]
	if d == nil {
		return false
	}
	if c.path == nil {
		return s.findPath(d.Root, c.Node) != nil
	}
	child := c.Node
	link := c.path
	for link != nil {
		found := false
		for _, ch := range link.node.Children {
			if ch == child {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		child = link.node
		link = link.up
	}
	return child == d.Root
}

// Terminates runs a copy of the system within the given budget and
// reports (terminated, steps). For simple positive systems prefer the
// exact decision procedure in package regular (Theorem 3.3); this is the
// semi-decision procedure available for arbitrary monotone systems (the
// problem is undecidable in general, Corollary 3.1).
func (s *System) Terminates(maxSteps int) (bool, int) {
	c := s.Copy()
	res := c.Run(RunOptions{MaxSteps: maxSteps})
	return res.Terminated, res.Steps
}

// DefaultParallelism is the worker count used when RunOptions.Parallelism
// is zero: one worker per schedulable CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// FanOut calls fn(i) for every i in [0, n) on at most DefaultParallelism
// goroutines, each taking the next i until none is left, and returns when
// every call has: recovery's per-document decode and reduction.
func FanOut(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(DefaultParallelism(), n)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
