package core

import (
	"fmt"
	"strings"
)

// Source renders the system back into the system-file syntax accepted by
// ParseSystem, enabling save/load round trips. It fails on systems with
// black-box services, which have no declarative form.
func (s *System) Source() (string, error) {
	var b strings.Builder
	for _, name := range s.funcNames {
		qs := s.funcs[name].query
		if qs == nil {
			return "", fmt.Errorf("core: service %q is a black box and cannot be serialized", name)
		}
		fmt.Fprintf(&b, "func %s = %s\n", name, qs.Query)
	}
	for _, name := range s.docNames {
		fmt.Fprintf(&b, "doc %s = %s\n", name, s.docs[name].Root)
	}
	return b.String(), nil
}
