// Package workload provides seeded, reproducible generators for the
// experiment suite: random AXML trees with controllable redundancy, a
// needle-in-a-catalog inventory, jazz-portal documents and systems in the style of the paper's running
// example, and graph workloads for the datalog/transitive-closure
// experiments.
package workload

import (
	"fmt"
	"math/rand"

	"axml/internal/core"
	"axml/internal/datalog"
	"axml/internal/query"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// TreeConfig controls RandomTree.
type TreeConfig struct {
	// Nodes is the target node count (approximate, always >= 1).
	Nodes int
	// MaxBranch bounds the children per node (default 4).
	MaxBranch int
	// Labels is the label alphabet size (default 6).
	Labels int
	// Values is the value domain size (default 8).
	Values int
	// FuncDensity in [0,1] is the fraction of leaves that become calls
	// to the function names in Funcs (ignored when Funcs is empty).
	FuncDensity float64
	// Funcs are the function names to sprinkle.
	Funcs []string
	// Redundancy in [0,1]: fraction of subtrees that are duplicated
	// under their parent (possibly with a subsumed variant), to exercise
	// reduction.
	Redundancy float64
}

func (c *TreeConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 64
	}
	if c.MaxBranch <= 0 {
		c.MaxBranch = 4
	}
	if c.Labels <= 0 {
		c.Labels = 6
	}
	if c.Values <= 0 {
		c.Values = 8
	}
}

// RandomTree builds a random AXML document tree.
func RandomTree(rng *rand.Rand, cfg TreeConfig) *tree.Node {
	cfg.defaults()
	budget := cfg.Nodes
	root := tree.NewLabel("root")
	budget--
	var grow func(n *tree.Node, depth int)
	grow = func(n *tree.Node, depth int) {
		if budget <= 0 {
			return
		}
		kids := 1 + rng.Intn(cfg.MaxBranch)
		for i := 0; i < kids && budget > 0; i++ {
			budget--
			switch {
			case len(cfg.Funcs) > 0 && rng.Float64() < cfg.FuncDensity:
				n.Children = append(n.Children, tree.NewFunc(cfg.Funcs[rng.Intn(len(cfg.Funcs))]))
			case depth > 2 && rng.Float64() < 0.4:
				n.Children = append(n.Children, tree.NewValue(fmt.Sprintf("v%d", rng.Intn(cfg.Values))))
			default:
				c := tree.NewLabel(fmt.Sprintf("l%d", rng.Intn(cfg.Labels)))
				n.Children = append(n.Children, c)
				grow(c, depth+1)
			}
		}
		// Redundancy: duplicate one child (and sometimes a pruned copy).
		// The duplicate is charged against the node budget so redundancy
		// cannot compound exponentially up the tree.
		if cfg.Redundancy > 0 && len(n.Children) > 0 && budget > 0 && rng.Float64() < cfg.Redundancy {
			orig := n.Children[rng.Intn(len(n.Children))]
			dup := orig.Copy()
			if len(dup.Children) > 0 && rng.Float64() < 0.5 {
				dup.Children = dup.Children[:len(dup.Children)-1]
			}
			budget -= dup.Size()
			n.Children = append(n.Children, dup)
		}
	}
	grow(root, 0)
	return root
}

// Inventory builds a deterministic catalog: depts × items of
// item{sku{v},qty{v}} (5 nodes per item) plus a single needle item, sku
// "needle", in the middle dept. The tree is ~5·depts·items nodes and a
// pattern anchored on the needle's sku has exactly one match.
func Inventory(depts, items int) *tree.Node {
	root := tree.NewLabel("catalog")
	for i := 0; i < depts; i++ {
		dept := tree.NewLabel("dept")
		for j := 0; j < items; j++ {
			dept.Add(tree.NewLabel("item",
				tree.NewLabel("sku", tree.NewValue(fmt.Sprintf("sku-%d-%d", i, j))),
				tree.NewLabel("qty", tree.NewValue(fmt.Sprintf("%d", j%97))),
			))
		}
		root.Add(dept)
	}
	root.Children[depts/2].Add(tree.NewLabel("item",
		tree.NewLabel("sku", tree.NewValue("needle")),
		tree.NewLabel("qty", tree.NewValue("1")),
	))
	return root
}

// JazzConfig controls the jazz-portal generator.
type JazzConfig struct {
	// CDs is the number of cd entries in the portal.
	CDs int
	// MaterializedRatio in [0,1] is the fraction of cds whose rating is
	// extensional; the rest carry a GetRating call.
	MaterializedRatio float64
	// IrrelevantBranches adds that many side branches with recursive
	// feed calls the rating queries never need (the lazy-evaluation
	// experiment's fuel).
	IrrelevantBranches int
}

// JazzSystem builds a self-contained portal system: a ratings database
// document, a portal document with cd entries (some intensional), a
// GetRating service answering from the database via context, and
// optional never-needed recursive VideoFeed branches.
func JazzSystem(rng *rand.Rand, cfg JazzConfig) *core.System {
	s := core.NewSystem()
	ratings := tree.NewLabel("db")
	portal := tree.NewLabel("directory")
	for i := 0; i < cfg.CDs; i++ {
		title := fmt.Sprintf("song-%03d", i)
		stars := fmt.Sprintf("%d", 1+rng.Intn(5))
		ratings.Children = append(ratings.Children, tree.NewLabel("entry",
			tree.NewLabel("title", tree.NewValue(title)),
			tree.NewLabel("stars", tree.NewValue(stars)),
		))
		cd := tree.NewLabel("cd", tree.NewLabel("title", tree.NewValue(title)))
		if rng.Float64() < cfg.MaterializedRatio {
			cd.Children = append(cd.Children, tree.NewLabel("rating", tree.NewValue(stars)))
		} else {
			cd.Children = append(cd.Children, tree.NewFunc("GetRating"))
		}
		portal.Children = append(portal.Children, cd)
	}
	for i := 0; i < cfg.IrrelevantBranches; i++ {
		portal.Children = append(portal.Children,
			tree.NewLabel("videos", tree.NewFunc("VideoFeed")))
	}
	mustAdd(s.AddDocument(tree.NewDocument("ratings", ratings)))
	mustAdd(s.AddDocument(tree.NewDocument("portal", portal)))
	mustAdd(s.AddQuery(named(syntax.MustParseQuery(
		`rating{$s} :- context/cd{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}`), "GetRating")))
	mustAdd(s.AddQuery(named(syntax.MustParseQuery(`clip{!VideoFeed} :- `), "VideoFeed")))
	return s
}

func named(q *query.Query, name string) *query.Query {
	q.Name = name
	return q
}

// RatingQuery returns the query the lazy experiment answers over a
// JazzSystem.
func RatingQuery() *query.Query {
	return syntax.MustParseQuery(`out{$t,$s} :- portal/directory{cd{title{$t},rating{$s}}}`)
}

func mustAdd(err error) {
	if err != nil {
		panic(err)
	}
}

// GraphKind selects a datalog graph shape.
type GraphKind int

// Graph shapes.
const (
	Chain GraphKind = iota
	Cycle
	BinaryTree
	RandomGraph
)

// Edges generates a graph with n vertices of the given shape; RandomGraph
// uses roughly 2n edges.
func Edges(rng *rand.Rand, kind GraphKind, n int) [][2]string {
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	var out [][2]string
	switch kind {
	case Chain:
		for i := 0; i+1 < n; i++ {
			out = append(out, [2]string{name(i), name(i + 1)})
		}
	case Cycle:
		for i := 0; i < n; i++ {
			out = append(out, [2]string{name(i), name((i + 1) % n)})
		}
	case BinaryTree:
		for i := 1; i < n; i++ {
			out = append(out, [2]string{name((i - 1) / 2), name(i)})
		}
	case RandomGraph:
		for k := 0; k < 2*n; k++ {
			out = append(out, [2]string{name(rng.Intn(n)), name(rng.Intn(n))})
		}
	}
	return out
}

// TCProgram builds the transitive-closure datalog program for a graph.
func TCProgram(edges [][2]string) *datalog.Program {
	return datalog.TransitiveClosure(edges)
}
