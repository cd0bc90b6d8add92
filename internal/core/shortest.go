package core

import "fmt"

// ShortestRun searches for a minimal-length rewriting reaching a state
// that satisfies target, by breadth-first search over the (memoized)
// state space of invocation sequences. Section 4 observes that the
// ordering of calls matters when one wants rewritings of minimal length
// and that the problem is decidable (though very expensive) for simple
// systems; this is that procedure, budget-bounded so it is usable on
// arbitrary monotone systems too.
//
// It returns the minimal number of strictly-growing invocations needed,
// the sequence of call descriptions (service names at their attach
// labels), and ok=false when no satisfying state is reachable within
// MaxStates explored states.
//
// The receiver is not modified.
func (s *System) ShortestRun(target func(*System) bool, opts ShortestOptions) (steps int, trace []string, ok bool, err error) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	type state struct {
		sys   *System
		depth int
		trace []string
	}
	start := s.Copy()
	if target(start) {
		return 0, nil, true, nil
	}
	seen := map[string]bool{start.CanonicalString(): true}
	queue := []state{{sys: start}}
	explored := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i, c := range cur.sys.Calls() {
			// One edge: fire the i-th call in a copy, whose documents are
			// copied structurally, so its calls correspond by position.
			next := cur.sys.Copy()
			node := next.Calls()[i].Node
			r := next.Run(RunOptions{MaxSweeps: 1, Relevant: func(d Call) bool { return d.Node == node }})
			if r.Err != nil {
				return 0, nil, false, r.Err
			}
			if r.Steps == 0 {
				continue
			}
			key := next.CanonicalString()
			if seen[key] {
				continue
			}
			seen[key] = true
			explored++
			if explored > maxStates {
				return 0, nil, false, fmt.Errorf("core: ShortestRun exceeded %d states", maxStates)
			}
			step := fmt.Sprintf("%s@%s", c.Node.Name, c.Parent.Name)
			tr := append(append([]string(nil), cur.trace...), step)
			if target(next) {
				return cur.depth + 1, tr, true, nil
			}
			queue = append(queue, state{sys: next, depth: cur.depth + 1, trace: tr})
		}
	}
	return 0, nil, false, nil
}

// ShortestOptions bounds ShortestRun.
type ShortestOptions struct {
	// MaxStates caps the number of distinct states explored; 0 means
	// DefaultMaxStates.
	MaxStates int
}

// DefaultMaxStates bounds ShortestRun searches by default.
const DefaultMaxStates = 20000
