package core

import (
	"slices"

	"axml/internal/tree"
)

// RunFireOnce executes the fire-once semantics in place (Section 4,
// "Fire-once semantics"): each function node occurrence is invoked at
// most once and receives a single answer, including occurrences delivered
// by earlier answers, which fire in later sweeps. On acyclic systems this
// coincides with the positive semantics (each call brings its complete
// answer the first time); on recursive systems it derives less —
// Example 3.2's transitive closure stops after one composition round,
// which Experiment E10 demonstrates.
//
// It is a sweeping run whose Relevant predicate admits each call node
// once. When the system is acyclic and positive, its scheduler fires
// calls in dependency order (callees of a document before the calls that
// later documents depend on), so each call sees the most complete state a
// single firing can see; otherwise document/preorder order is used.
// RunResult.Attempts counts the invocations.
func (s *System) RunFireOnce() RunResult {
	fired := make(map[*tree.Node]bool)
	return s.Run(RunOptions{
		Parallelism: 1,
		Scheduler:   byPriority(s.fireOnceOrder()),
		Relevant: func(c Call) bool {
			if fired[c.Node] {
				return false
			}
			fired[c.Node] = true
			return true
		},
	})
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

// byPriority is a Scheduler that orders calls stably by their function's
// priority, lowest first; a nil map keeps document/preorder order.
type byPriority map[string]int

// Order implements Scheduler.
func (o byPriority) Order(calls []Call) {
	slices.SortStableFunc(calls, func(a, b Call) int { return o[a.Node.Name] - o[b.Node.Name] })
}
