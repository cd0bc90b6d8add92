package peer

import (
	"fmt"
	"testing"

	"axml/internal/tree"
)

// canonicalHex renders a tree's wire digest from the never-memoized
// reference hash — what digestHex must equal whenever no memo is stale.
func canonicalHex(n *tree.Node) string {
	h := n.CanonicalHash()
	return fmt.Sprintf("%x", h[:8])
}

// assertDigestsFresh is the peer-level differential for the one name of a
// state: after whatever the test did to p, every node of every document
// still memoizes the digest the reference recomputes, and the PathHash
// body is the one rebuilt from the reference.
func assertDigestsFresh(t *testing.T, p *Peer) {
	t.Helper()
	want := ""
	p.system.View(func() {
		for _, name := range p.system.DocNames() {
			root := p.system.Document(name).Root
			root.Walk(func(n, _ *tree.Node) bool {
				if n.Digest() != n.CanonicalHash() {
					t.Errorf("peer %s: stale digest memo in %s at %s", p.Name, name, n.CanonicalString())
				}
				return true
			})
			want += name + "=" + canonicalHex(root) + ";"
		}
	})
	if got := p.Hash(); got != want {
		t.Errorf("peer %s: Hash() = %s, the reference renders %s", p.Name, got, want)
	}
}
