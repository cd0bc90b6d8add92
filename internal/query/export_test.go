package query

import "axml/internal/pattern"

// Test hooks: the body evaluation behind Snapshot and SnapshotSince (its
// rows as assignments: with a baseline, the delta rules' rows), and the
// join order it uses (OrderAtoms ranks every atom by its index,
// OrderAtomsOver also sees the trees).
func BodyAssignmentsSince(q *Query, docs Docs, since map[string]uint64, ixs Indexes) ([]pattern.Assignment, error) {
	_, rows, err := bodyRows(q, docs, since, ixs)
	var out []pattern.Assignment
	for _, r := range rows {
		out = append(out, r.Assignment(nil))
	}
	return out, err
}

func OrderAtomsOver(q *Query, docs Docs, ixs Indexes) []Atom { return newPlan(q, docs, ixs).atoms }

func OrderAtoms(q *Query, ixs Indexes) []Atom { return OrderAtomsOver(q, nil, ixs) }
