package query

// Test hooks: the body evaluation behind Snapshot, SnapshotSince and
// BodyAssignments, and the join order it uses (OrderAtoms ranks every atom
// by its index, OrderAtomsOver also sees the trees).
var (
	BodyAssignmentsSince = bodyAssignments
	OrderAtomsOver       = orderAtoms
)

func OrderAtoms(q *Query, ixs Indexes) []Atom { return orderAtoms(q, nil, ixs) }
