// Package lazy implements lazy query evaluation over AXML systems
// (Section 4 of the paper). Answering a query does not require fully
// expanding the documents: only calls that may contribute to the answer
// need to be invoked.
//
// Exact relevance (q-unneeded calls, q-stability) is undecidable in
// general and expensive even for simple systems (Theorem 4.1), so this
// package provides both:
//
//   - the weak (PTIME) properties: a black-box analysis that marks a
//     superset of the relevant calls from pattern reachability, plus a
//     dependency closure for positive services (whose answers depend on
//     the documents their defining queries read);
//   - the exact checks for simple positive systems, via the finite graph
//     representation of package regular.
//
// The lazy evaluator drives a fair rewriting restricted to the weakly
// relevant calls; when no weakly relevant call can change the system, the
// system is weakly q-stable, which implies q-stability, and the snapshot
// answer is the full answer [q](I).
package lazy

import (
	"context"
	"fmt"

	"axml/internal/core"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/regular"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// Analysis is the result of the weak relevance analysis for one query
// against one system state.
type Analysis struct {
	// NeededDocs are the documents the answer may depend on: those the
	// query reads, closed under "read by a positive service that is
	// itself relevant".
	NeededDocs map[string]bool
	// Relevant lists the weakly q-relevant calls in the current state.
	Relevant []core.Call
	// relevantSet indexes Relevant by node for membership tests.
	relevantSet map[*tree.Node]bool
}

// IsRelevant reports whether the given call node was marked relevant.
func (a *Analysis) IsRelevant(n *tree.Node) bool { return a.relevantSet[n] }

// WeaklyStable reports whether the analysis found no relevant call: the
// system is weakly q-stable, hence q-stable (Section 4, weak properties).
func (a *Analysis) WeaklyStable() bool { return len(a.Relevant) == 0 }

// Analyze computes the weak relevance analysis of q over the system's
// current state in polynomial time.
//
// A call v in document d is weakly relevant when some pattern node p with
// children can be placed at v's parent by a prefix embedding (ancestors of
// p placed consistently along the path from the pattern root at d's root).
// Anything a future answer of v adds lives below v's parent, and every
// match touching that region must pass through such a p — so the analysis
// is sound: no call outside the relevant set can ever affect the matches
// in d.
//
// For positive services the black-box view is refined: a relevant call to
// a query-defined service makes the documents read by its defining query
// needed too (transitively), and the patterns of that query contribute
// reachability within those documents. Call parameters and context are
// handled conservatively: a relevant call to a service whose query reads
// input (resp. context) makes every call in its parameter subtrees (resp.
// under its parent) relevant.
func Analyze(s *core.System, q *query.Query) (*Analysis, error) {
	a := &Analysis{
		NeededDocs:  map[string]bool{},
		relevantSet: map[*tree.Node]bool{},
	}
	// patterns to consider per document name.
	patsPerDoc := map[string][]*pattern.Node{}
	addAtoms := func(qq *query.Query) {
		for _, atom := range qq.Body {
			if atom.Doc == tree.Input || atom.Doc == tree.Context {
				continue
			}
			patsPerDoc[atom.Doc] = append(patsPerDoc[atom.Doc], atom.Pattern)
			a.NeededDocs[atom.Doc] = true
		}
	}
	addAtoms(q)

	// Fixpoint: relevance of calls pulls in service queries, which pull
	// in documents and patterns, which may mark more calls relevant.
	processedSvc := map[string]bool{}
	for {
		changedDocs := false
		newRelevant := a.markPositionRelevant(s, patsPerDoc)
		progressed := false
		for _, c := range newRelevant {
			if a.relevantSet[c.Node] {
				continue
			}
			a.relevantSet[c.Node] = true
			a.Relevant = append(a.Relevant, c)
			progressed = true
			qs := s.Declarative(c.Node.Name)
			if qs == nil {
				// Black box: its answer is treated as independent of the
				// rest of the system, per the paper's weak notions.
				continue
			}
			if !processedSvc[c.Node.Name] {
				processedSvc[c.Node.Name] = true
				before := len(patsPerDoc)
				addAtoms(qs.Query)
				if len(patsPerDoc) != before {
					changedDocs = true
				}
			}
			// input/context conservatism.
			if qs.Query.UsesInput() {
				for _, occ := range c.Node.FuncNodes() {
					if occ.Node != c.Node && !a.relevantSet[occ.Node] {
						a.relevantSet[occ.Node] = true
						a.Relevant = append(a.Relevant, core.Call{Doc: c.Doc, Node: occ.Node, Parent: occ.Parent})
					}
				}
			}
			if qs.Query.UsesContext() && c.Parent != nil {
				for _, occ := range c.Parent.FuncNodes() {
					if occ.Node != c.Node && !a.relevantSet[occ.Node] {
						par := occ.Parent
						if par == nil {
							par = c.Parent
						}
						a.relevantSet[occ.Node] = true
						a.Relevant = append(a.Relevant, core.Call{Doc: c.Doc, Node: occ.Node, Parent: par})
					}
				}
			}
		}
		if !changedDocs && !progressed {
			return a, nil
		}
	}
}

// markPositionRelevant computes position relevance: for every needed
// document, the prefix-embedding product of its patterns, and from it the
// calls whose parent can host new matches.
func (a *Analysis) markPositionRelevant(s *core.System, patsPerDoc map[string][]*pattern.Node) []core.Call {
	var out []core.Call
	for docName, pats := range patsPerDoc {
		doc := s.Document(docName)
		if doc == nil {
			continue
		}
		// hosts collects document nodes at which some pattern node with
		// children can be placed.
		hosts := map[*tree.Node]bool{}
		for _, p := range pats {
			reachPrefix(p, doc.Root, hosts)
		}
		doc.Root.Walk(func(n, parent *tree.Node) bool {
			if n.Kind == tree.Func && parent != nil && hosts[parent] {
				out = append(out, core.Call{Doc: docName, Node: n, Parent: parent})
			}
			return true
		})
	}
	return out
}

// reachPrefix walks pattern and document together: pat placed at node if
// markings are compatible; descendants recurse pairwise. Nodes hosting a
// pattern node that still has children are recorded in hosts. Variable
// binding consistency is ignored (a sound over-approximation).
func reachPrefix(pat *pattern.Node, node *tree.Node, hosts map[*tree.Node]bool) {
	if !pattern.Compatible(pat, node.Kind, node.Name) {
		return
	}
	if len(pat.Children) > 0 {
		hosts[node] = true
	}
	for _, pc := range pat.Children {
		for _, nc := range node.Children {
			reachPrefix(pc, nc, hosts)
		}
	}
}

// WeakUnneeded reports whether the call set N is weakly q-unneeded: no
// call of N is weakly relevant, so skipping all of them can never change
// the query's answer. Weak unneededness implies q-unneededness (the weak
// properties of Section 4 are sufficient conditions, checkable in PTIME),
// but not conversely: a needed-looking call may be exactly unneeded
// because other calls supply the same data — only the exact check
// (QUnneededExact) sees that.
func WeakUnneeded(s *core.System, q *query.Query, n map[*tree.Node]bool) (bool, error) {
	an, err := Analyze(s, q)
	if err != nil {
		return false, err
	}
	for node := range n {
		if an.IsRelevant(node) {
			return false, nil
		}
	}
	return true, nil
}

// Result reports a lazy evaluation.
type Result struct {
	// Answer is the snapshot answer at the end of the lazy run; it
	// equals the full result [q](I) when Stable is true.
	Answer tree.Forest
	// Stable is true when the run ended weakly q-stable (no relevant
	// call can change anything), which implies the answer is complete.
	Stable bool
	// Invocations counts service invocations performed lazily (the
	// rounds' RunResult.Attempts).
	Invocations int
	// Steps counts the strictly-growing invocations.
	Steps int
	// Rounds counts analyze-and-run rounds.
	Rounds int
}

// Eval evaluates [q](I) lazily, in place: each round re-analyzes weak
// relevance and runs the engine (core.System.RunContext) with opts and
// the round's relevant calls as its Relevant predicate, within what is
// left of the step budget, until the analysis is weakly stable, a round
// grows nothing or a budget stops a round. The invariant driving
// correctness: calls outside the relevant set cannot affect q's matches
// now or after any future invocation, so skipping them never changes the
// answer. The engine's sterile-call gate, batching, error policy,
// cancellation, spans and metrics apply as in any run; opts.Relevant must
// be nil, since the analysis sets it. A run error (a service failure
// under FailFast, a cancelled ctx) ends the evaluation with it.
func Eval(ctx context.Context, s *core.System, q *query.Query, opts core.RunOptions) (Result, error) {
	if opts.Relevant != nil {
		return Result{}, fmt.Errorf("lazy: RunOptions.Relevant is set by the relevance analysis")
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = core.DefaultMaxSteps
	}
	var res Result
	for {
		res.Rounds++
		an, err := Analyze(s, q)
		if err != nil {
			return res, err
		}
		if an.WeaklyStable() {
			res.Stable = true
			break
		}
		round := opts
		round.MaxSteps = maxSteps - res.Steps
		round.Relevant = func(c core.Call) bool { return an.IsRelevant(c.Node) }
		r := s.RunContext(ctx, round)
		res.Invocations += r.Attempts
		res.Steps += r.Steps
		if r.Err != nil {
			return res, r.Err
		}
		if r.Steps == 0 {
			// All relevant calls are exhausted: the system is q-stable
			// even though calls remain syntactically relevant.
			res.Stable = true
			break
		}
		if !r.Terminated {
			break // a budget (steps, sweeps or nodes) stopped the round
		}
	}
	ans, err := s.SnapshotQuery(q)
	res.Answer = ans
	return res, err
}

// QUnneededExact decides, for a simple positive system and a simple query
// with a call-free head, whether the set N of function nodes is
// q-unneeded (Definition 4.1): [q](I↓N) ≡ [q](I). This is the decidable
// branch of Theorem 4.1, computed on the finite graph representations.
func QUnneededExact(s *core.System, q *query.Query, n map[*tree.Node]bool) (bool, error) {
	if err := exactPreconditions(s, q); err != nil {
		return false, err
	}
	full, err := regular.Build(s, regular.BuildOptions{})
	if err != nil {
		return false, err
	}
	frozen, err := regular.Build(s, regular.BuildOptions{Exclude: n})
	if err != nil {
		return false, err
	}
	fullAns, err := full.SnapshotQuery(q)
	if err != nil {
		return false, err
	}
	frozenAns, err := frozen.SnapshotQuery(q)
	if err != nil {
		return false, err
	}
	return subsume.ForestEquivalent(fullAns, frozenAns), nil
}

// QStableExact decides whether the system is q-stable: invoking nothing
// at all already yields a possible answer, i.e. the snapshot result
// equals the full result.
func QStableExact(s *core.System, q *query.Query) (bool, error) {
	if err := exactPreconditions(s, q); err != nil {
		return false, err
	}
	all := map[*tree.Node]bool{}
	for _, c := range s.Calls() {
		all[c.Node] = true
	}
	return QUnneededExact(s, q, all)
}

func exactPreconditions(s *core.System, q *query.Query) error {
	if !s.IsSimple() {
		return fmt.Errorf("lazy: exact checks require a simple positive system (Theorem 4.1: undecidable otherwise)")
	}
	if !q.IsSimple() {
		return fmt.Errorf("lazy: exact checks are implemented for simple queries")
	}
	callFree := true
	var walk func(p *pattern.Node)
	walk = func(p *pattern.Node) {
		if p.Kind == pattern.ConstFunc {
			callFree = false
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(q.Head)
	if !callFree {
		return fmt.Errorf("lazy: exact checks require a call-free query head (answers are compared as data)")
	}
	return nil
}
