package tree

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalHashMatchesCanonicalString(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomTree(rand.New(rand.NewSource(seedA)), 4)
		b := randomTree(rand.New(rand.NewSource(seedB)), 4)
		sameString := a.CanonicalString() == b.CanonicalString()
		sameHash := a.CanonicalHash() == b.CanonicalHash()
		return sameString == sameHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalHashShuffleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTree(rng, 4)
		return n.CanonicalHash() == shuffleTree(rng, n).CanonicalHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalHashDistinguishes(t *testing.T) {
	cases := [][2]string{
		{"a", "b"},
		{"a", "a-with-children"},
	}
	_ = cases
	a := NewLabel("a")
	b := NewLabel("b")
	if a.CanonicalHash() == b.CanonicalHash() {
		t.Fatal("labels a/b collide")
	}
	withChild := NewLabel("a", NewLabel("b"))
	if a.CanonicalHash() == withChild.CanonicalHash() {
		t.Fatal("leaf vs parent collide")
	}
	// Kinds matter.
	if NewLabel("x").CanonicalHash() == NewValue("x").CanonicalHash() {
		t.Fatal("label/value collide")
	}
	if NewFunc("x").CanonicalHash() == NewValue("x").CanonicalHash() {
		t.Fatal("func/value collide")
	}
	// Name-boundary trick: a{bc} vs ab{c} style ambiguity must not
	// collide thanks to explicit length framing.
	x := NewLabel("ab", NewLabel("c"))
	y := NewLabel("a", NewLabel("bc"))
	if x.CanonicalHash() == y.CanonicalHash() {
		t.Fatal("length framing failed")
	}
	var nilNode *Node
	if nilNode.CanonicalHash() != (Hash{}) {
		t.Fatal("nil hash should be zero")
	}
}

func TestCompareHashTotalOrder(t *testing.T) {
	a := NewLabel("a").CanonicalHash()
	b := NewLabel("b").CanonicalHash()
	if compareHash(a, a) != 0 {
		t.Fatal("compareHash(a,a) != 0")
	}
	if compareHash(a, b) == 0 {
		t.Fatal("distinct hashes compare equal")
	}
	if compareHash(a, b) != -compareHash(b, a) {
		t.Fatal("compareHash not antisymmetric")
	}
}

// goldenTrees are the shapes TestDigestGolden pins: a leaf, two children,
// eight (the stack array's capacity), nine (one past it), a name longer
// than the stack buffer, and a 600-wide root.
func goldenTrees() map[string]*Node {
	kids := func(n int) []*Node {
		out := make([]*Node, n)
		for i := range out {
			out[i] = NewLabel(fmt.Sprintf("c%d", i), NewValue(fmt.Sprint(i)))
		}
		return out
	}
	return map[string]*Node{
		"leaf":     NewValue("x"),
		"two":      NewLabel("t", NewLabel("a", NewValue("x")), NewLabel("b", NewValue("y"))),
		"eight":    NewLabel("r", kids(8)...),
		"nine":     NewLabel("r", kids(9)...),
		"longname": NewLabel(strings.Repeat("n", 1000), NewFunc("f"), NewValue("v")),
		"wide600":  NewLabel("log", kids(600)...),
	}
}

// TestDigestGolden pins the digest bytes: every Digest, memo, wire hash
// and journal anchor depends on them, so a kernel change must leave them
// byte-identical. The values were computed by the sort.Slice kernel.
func TestDigestGolden(t *testing.T) {
	want := map[string]string{
		"leaf":     "58344411ce3d4b84717505f0fcace64a6e8d560e8195f3b3c3ad1f880d979c71",
		"two":      "b47c118eb6c5abcf9360d7da2b4935e704d6a79c1dfce32f53f937d4c40fee1c",
		"eight":    "458ab3b238577f4bc4f7b74314f8df1886cdae5f4b5281618045e5075f4fed71",
		"nine":     "66f762049c841c50321167c50a6e8bb28bf33b8979d055f4531ebe38b11e57c6",
		"longname": "ad652f1a14e805724bb099587184896ef47d32ce17f9a22eacbe9f7ec7cd8a6b",
		"wide600":  "26eb995d75d4795e19e6686463fd9a51faa87554c6fdc5e749ae5e348f1ee1fe",
	}
	for name, n := range goldenTrees() {
		c := n.CanonicalHash()
		d := n.Digest()
		if got := hex.EncodeToString(c[:]); got != want[name] {
			t.Errorf("%s: CanonicalHash %s, want %s", name, got, want[name])
		}
		if got := hex.EncodeToString(d[:]); got != want[name] {
			t.Errorf("%s: Digest %s, want %s", name, got, want[name])
		}
	}
}

// TestDigestAllocations pins the kernel's allocations: hashing a fresh
// t{a{"x"},b{"y"}} allocates each node's memo and nothing else, and
// re-hashing a 600-wide root over its children's memos allocates no more
// bytes than the sort.Slice kernel did (20 668 bytes on go 1.24: 32 per
// child digest, a hasher, a header, a memo). A kernel that grows one
// buffer by doubling to hold the root's input allocates about three
// times that.
func TestDigestAllocations(t *testing.T) {
	two := goldenTrees()["two"]
	if n := testing.AllocsPerRun(100, func() {
		InvalidateDigestAll(two)
		two.Digest()
	}); n != 5 {
		t.Errorf("hashing a fresh 5-node tree allocated %.0f times, want 5 (the memos)", n)
	}
	wide := goldenTrees()["wide600"]
	wide.Digest()
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		wide.InvalidateDigest()
		wide.Digest()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 20668 {
		t.Errorf("re-hashing a 600-wide root allocated %d bytes, want at most 20668", perRun)
	}
}

func TestDigestMatchesCanonicalHash(t *testing.T) {
	n := NewLabel("r",
		NewLabel("a", NewValue("1"), NewValue("2")),
		NewLabel("a", NewValue("2"), NewValue("1")), // sibling order irrelevant
		NewFunc("f", NewValue("p")),
	)
	if n.Digest() != n.CanonicalHash() {
		t.Fatal("Digest and CanonicalHash disagree")
	}
	// Memoized second call must return the same value.
	if n.Digest() != n.CanonicalHash() {
		t.Fatal("memoized Digest disagrees with CanonicalHash")
	}
}

func TestDigestInvalidation(t *testing.T) {
	n := NewLabel("r", NewLabel("a"))
	before := n.Digest()
	n.Add(NewLabel("b")) // Add clears n's own memo
	after := n.Digest()
	if before == after {
		t.Fatal("digest unchanged after Add")
	}
	if after != n.CanonicalHash() {
		t.Fatal("digest stale after Add")
	}

	// Deep mutation + StampAll (the Touch/Restore path) must refresh
	// every memo in the subtree.
	deep := NewLabel("r", NewLabel("mid", NewLabel("leaf")))
	_ = deep.Digest()
	deep.Children[0].Children[0].Children = []*Node{NewValue("x")}
	deep.StampAll(1)
	if deep.Digest() != deep.CanonicalHash() {
		t.Fatal("digest stale after deep mutation + StampAll")
	}
}

func TestCopyCarriesCaches(t *testing.T) {
	n := NewLabel("r", NewLabel("a", NewValue("1")))
	d := n.Digest()
	c := n.Copy()
	if c.Digest() != d {
		t.Fatal("copy digest differs from original")
	}
	if c.Digest() != c.CanonicalHash() {
		t.Fatal("copied digest memo is stale")
	}
	// Mutating the copy must not corrupt the original's memo.
	c.Add(NewValue("2"))
	if n.Digest() != d {
		t.Fatal("original digest changed after mutating the copy")
	}
}
