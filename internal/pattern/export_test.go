package pattern

import "axml/internal/tree"

// Test hooks for the external tests, over rows. MatchExtending matches p
// at d extending base (RowOf on the way in, Row.Assignment on the way
// out); InstantiateAssignment instantiates head from the row of asn.
func MatchExtending(p *Node, d *tree.Node, base Assignment) []Assignment {
	return matchUnder(nil, p, d, base)
}

func InstantiateAssignment(head *Node, asn Assignment) (*tree.Node, error) {
	var v Vars
	c := v.Compile(head)
	r, _ := NewSlab(&v).RowOf(asn)
	return c.Instantiate(r)
}
