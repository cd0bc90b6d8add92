package query

import "axml/internal/pattern"

// Test hooks: the body evaluation behind Snapshot and SnapshotSince (its
// rows as stamped assignments), and the join order it
// uses (OrderAtoms ranks every atom by its index, OrderAtomsOver also sees
// the trees).
func BodyAssignmentsSince(q *Query, docs Docs, since map[string]uint64, ixs Indexes) ([]Stamped, error) {
	_, rows, err := bodyRows(q, docs, since, ixs)
	var out []Stamped
	for _, r := range rows {
		out = append(out, Stamped{Asn: r.Assignment(nil), New: r.New})
	}
	return out, err
}

// Stamped is an assignment with its row's freshness flag.
type Stamped struct {
	Asn pattern.Assignment
	New bool
}

func OrderAtomsOver(q *Query, docs Docs, ixs Indexes) []Atom { return newPlan(q, docs, ixs).atoms }

func OrderAtoms(q *Query, ixs Indexes) []Atom { return OrderAtomsOver(q, nil, ixs) }
