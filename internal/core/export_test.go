package core

import "axml/internal/pattern"

// dropIndexes discards every document's inverted index, so the runs that
// follow answer every pattern match by the naive walk — the reference the
// indexed engine is pinned against. Test-only: production systems always
// index. (Touch rebuilds the touched document's index.)
func (s *System) dropIndexes() {
	s.indexes = make(map[string]*pattern.Index)
}
