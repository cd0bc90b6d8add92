package query

// Test hooks: the body evaluation behind Snapshot, SnapshotSince and
// BodyAssignments, and the join order it uses.
var (
	BodyAssignmentsSince = bodyAssignments
	OrderAtoms           = orderAtoms
)
