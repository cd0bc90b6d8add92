package subsume

// Signature exposes the sibling-pruning signature to the external tests.
var Signature = signature
