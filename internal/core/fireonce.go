package core

import (
	"context"

	"axml/internal/tree"
)

// FireOnceResult reports a fire-once run (Section 4, "Fire-once
// semantics"): every function node is invoked at most once and receives a
// single answer.
type FireOnceResult struct {
	// Invocations counts the calls actually invoked.
	Invocations int
	// Changed counts the invocations that strictly grew the system.
	Changed int
	// Rounds counts saturation rounds (new calls appearing in results of
	// earlier calls are themselves fired once, in later rounds).
	Rounds int
	// Err is the first service error, if any.
	Err error
}

// RunFireOnce executes the fire-once semantics in place: each function
// node occurrence is invoked exactly once, including occurrences delivered
// by earlier answers, until no un-fired occurrence remains. On acyclic
// systems this coincides with the positive semantics (each call brings its
// complete answer the first time); on recursive systems it derives less —
// Example 3.2's transitive closure stops after one composition round,
// which Experiment E10 demonstrates.
//
// When the system is acyclic and positive, calls are fired in dependency
// order (callees of a document before the calls that later documents
// depend on), so each call sees the most complete state a single firing
// can see. Otherwise document/preorder order is used.
func (s *System) RunFireOnce() FireOnceResult {
	var res FireOnceResult
	order := s.fireOnceOrder()
	fired := make(map[*tree.Node]bool)
	for {
		res.Rounds++
		pending := s.pendingCalls(fired)
		if len(pending) == 0 {
			return res
		}
		sortCallsBy(pending, order)
		progressed := false
		for _, c := range pending {
			// Re-check the node is still present: reduction during this
			// round may have pruned it.
			if fired[c.Node] || !s.Attached(c) {
				continue
			}
			fired[c.Node] = true
			res.Invocations++
			progressed = true
			changed, err := s.Invoke(context.Background(), c)
			if err != nil {
				res.Err = err
				return res
			}
			if changed {
				res.Changed++
			}
		}
		if !progressed {
			return res
		}
	}
}

// fireOnceOrder returns a priority index per function name, derived from
// the dependency graph when available and acyclic; otherwise nil.
func (s *System) fireOnceOrder() map[string]int {
	g, err := s.DependencyGraph()
	if err != nil {
		return nil
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil
	}
	// TopoOrder emits dependencies first; fire those calls first.
	order := make(map[string]int, len(topo))
	for i, v := range topo {
		if !g.IsDoc[v] {
			order[v] = i
		}
	}
	return order
}

func sortCallsBy(calls []Call, order map[string]int) {
	if order == nil {
		return
	}
	// Stable insertion sort on priority; call lists are short.
	for i := 1; i < len(calls); i++ {
		for j := i; j > 0 && order[calls[j].Node.Name] < order[calls[j-1].Node.Name]; j-- {
			calls[j], calls[j-1] = calls[j-1], calls[j]
		}
	}
}
