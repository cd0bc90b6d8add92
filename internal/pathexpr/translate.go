package pathexpr

import (
	"fmt"
	"sort"

	"axml/internal/core"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/tree"
)

// Translation is the output of the ψ translation of Proposition 5.1: a
// plain positive system and query computing the same result as the
// positive+reg input.
type Translation struct {
	// System is the translated system I′: the original documents with
	// annotation calls injected at every label node, the original
	// services with the same injection applied to their heads, plus the
	// token seed/step services.
	System *core.System
	// Query is the translated plain positive query q′.
	Query *query.Query
	// TokenServices lists the names of the added services (for stats).
	TokenServices []string
	// Alphabet is the active label alphabet used to expand wildcards.
	Alphabet []string
}

// Translate implements ψ for a positive+reg query over a plain positive
// system. For each path node with automaton N and (already translated)
// subpattern C, it adds:
//
//   - token seed services, one per final state qf of N: at any node u
//     where C matches, emit tok_i{st{"qf"}, b_v{...}} carrying C's
//     variable bindings — "the final state is stored in all nodes";
//   - token step services, one per transition (q, a, p): a node u whose
//     child labeled a carries a token in state p gets the token in state
//     q — the automaton transitions computed backwards, states
//     propagating upward (the paper's construction);
//
// and replaces the path node by the plain child pattern
// tok_i{st{"q0"}, b_v{...}}. Calls to the seed/step services are injected
// at every label node of every document and of every original service
// head, so new data is annotated too. The translation is polynomial and
// preserves simplicity (Prop 5.1(2)).
//
// Exactness caveats (documented deviations from the idealized claim):
// wildcard transitions are expanded over the active label alphabet, and
// the original services must not capture annotation labels via label or
// function variables matching arbitrary children of annotated nodes;
// subpatterns under path nodes must not bind function variables (token
// payloads would otherwise embed live calls).
func Translate(s *core.System, rq *RQuery) (*Translation, error) {
	if !s.IsPositive() {
		return nil, fmt.Errorf("pathexpr: Translate requires a positive system")
	}
	if err := rq.Validate(); err != nil {
		return nil, err
	}
	tr := &Translation{System: core.NewSystem()}
	alphabet := activeAlphabet(s, rq)
	tr.Alphabet = alphabet

	// Translate the query body, collecting one machine per path node.
	var machines []*tokenMachine
	q := &query.Query{Name: rq.Name, Head: rq.Head.Copy(), Ineqs: append([]query.Ineq(nil), rq.Ineqs...)}
	for _, a := range rq.Body {
		p, err := translateRNode(a.Pattern, &machines)
		if err != nil {
			return nil, err
		}
		q.Body = append(q.Body, query.Atom{Doc: a.Doc, Pattern: p})
	}
	tr.Query = q

	// Build seed/step service definitions.
	var svcQueries []*query.Query
	for _, m := range machines {
		qs, err := m.services(alphabet)
		if err != nil {
			return nil, err
		}
		svcQueries = append(svcQueries, qs...)
	}
	var callNames []string
	for _, sq := range svcQueries {
		callNames = append(callNames, sq.Name)
		tr.TokenServices = append(tr.TokenServices, sq.Name)
	}

	// Documents: copy with calls injected at every label node.
	for _, name := range s.DocNames() {
		root := s.Document(name).Root.Copy()
		injectCallsTree(root, callNames)
		if err := tr.System.AddDocument(tree.NewDocument(name, root)); err != nil {
			return nil, err
		}
	}
	// Original services: heads injected so produced data is annotated.
	for _, fname := range s.FuncNames() {
		qs := s.Declarative(fname)
		orig := qs.Query
		inj := &query.Query{
			Name:  orig.Name,
			Head:  orig.Head.Copy(),
			Ineqs: append([]query.Ineq(nil), orig.Ineqs...),
		}
		for _, a := range orig.Body {
			inj.Body = append(inj.Body, query.Atom{Doc: a.Doc, Pattern: a.Pattern.Copy()})
		}
		injectCallsPattern(inj.Head, callNames)
		if err := tr.System.AddQuery(inj); err != nil {
			return nil, err
		}
	}
	// Token services last (they do not need injection: token trees carry
	// no further path annotations).
	for _, sq := range svcQueries {
		if err := tr.System.AddQuery(sq); err != nil {
			return nil, err
		}
	}
	if err := tr.System.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// tokenMachine is the translation state for one path node occurrence.
type tokenMachine struct {
	id   int
	nfa  *NFA
	sub  []*pattern.Node // translated subpattern (plain)
	vars []varSpec       // payload variables, ordered
}

type varSpec struct {
	name string
	kind pattern.Kind
}

func (m *tokenMachine) tokLabel() string { return fmt.Sprintf("ptok%d", m.id) }

// tokenPattern builds tok_i{st{"q"}, b_v{var}...} as a pattern.
func (m *tokenMachine) tokenPattern(state int) *pattern.Node {
	n := pattern.Label(m.tokLabel(), pattern.Label("st", pattern.Value(fmt.Sprintf("%d", state))))
	for _, v := range m.vars {
		n.Children = append(n.Children, pattern.Label("b-"+v.name, &pattern.Node{Kind: v.kind, Name: v.name}))
	}
	return n
}

// services builds the seed and step service queries.
func (m *tokenMachine) services(alphabet []string) ([]*query.Query, error) {
	var out []*query.Query
	// Seeds: one per final state.
	var finals []int
	for f := range m.nfa.Finals {
		finals = append(finals, f)
	}
	sort.Ints(finals)
	for _, qf := range finals {
		body := pattern.LVar(fmt.Sprintf("ctx%d", m.id))
		for _, c := range m.sub {
			body.Children = append(body.Children, c.Copy())
		}
		out = append(out, &query.Query{
			Name: fmt.Sprintf("pseed%d-%d", m.id, qf),
			Head: m.tokenPattern(qf),
			Body: []query.Atom{{Doc: tree.Context, Pattern: body}},
		})
	}
	// Steps: one per transition; wildcards expanded over the alphabet.
	for ti, t := range m.nfa.AllTransitions() {
		labels := []string{t.Label}
		if t.Label == "" {
			labels = alphabet
		}
		for li, label := range labels {
			inner := pattern.Label(label, m.tokenPattern(t.To))
			body := pattern.LVar(fmt.Sprintf("ctx%d", m.id), inner)
			out = append(out, &query.Query{
				Name: fmt.Sprintf("pstep%d-%d-%d", m.id, ti, li),
				Head: m.tokenPattern(t.From),
				Body: []query.Atom{{Doc: tree.Context, Pattern: body}},
			})
		}
	}
	return out, nil
}

// translateRNode rewrites path nodes bottom-up into token child patterns,
// appending a machine per path node.
func translateRNode(n *RNode, machines *[]*tokenMachine) (*pattern.Node, error) {
	if n.IsPath {
		// Children first (inner path nodes become token patterns that
		// the outer machine's seed matches on).
		var sub []*pattern.Node
		for _, c := range n.Children {
			cp, err := translateRNode(c, machines)
			if err != nil {
				return nil, err
			}
			sub = append(sub, cp)
		}
		m := &tokenMachine{id: len(*machines), nfa: n.NFA, sub: sub}
		vars := map[string]pattern.Kind{}
		for _, c := range sub {
			if err := c.Vars(vars); err != nil {
				return nil, err
			}
		}
		var names []string
		for v := range vars {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			k := vars[v]
			if k == pattern.VarFunc {
				return nil, fmt.Errorf("pathexpr: function variable ^%s under a path node cannot be carried in token payloads", v)
			}
			if k == pattern.VarTree {
				return nil, fmt.Errorf("pathexpr: tree variable #%s under a path node would make the translation non-simple; use the direct evaluator", v)
			}
			m.vars = append(m.vars, varSpec{name: v, kind: k})
		}
		*machines = append(*machines, m)
		return m.tokenPattern(m.nfa.Start), nil
	}
	p := &pattern.Node{Kind: n.Kind, Name: n.Name}
	for _, c := range n.Children {
		cp, err := translateRNode(c, machines)
		if err != nil {
			return nil, err
		}
		p.Children = append(p.Children, cp)
	}
	return p, nil
}

// injectCallsTree adds one call per service name at every label node.
func injectCallsTree(n *tree.Node, names []string) {
	if n.Kind == tree.Label {
		for _, name := range names {
			n.Children = append(n.Children, tree.NewFunc(name))
		}
	}
	for _, c := range n.Children {
		if c.Kind == tree.Func {
			continue // params keep their shape; calls are injected where data lives
		}
		injectCallsTree(c, names)
	}
}

// injectCallsPattern adds calls at every label-producing head node
// (constant labels and label variables).
func injectCallsPattern(p *pattern.Node, names []string) {
	if p.Kind == pattern.ConstLabel || p.Kind == pattern.VarLabel {
		for _, name := range names {
			p.Children = append(p.Children, pattern.Func(name))
		}
	}
	for _, c := range p.Children {
		if c.Kind == pattern.ConstFunc {
			continue
		}
		injectCallsPattern(c, names)
	}
}

// activeAlphabet collects the labels that can ever appear in the system or
// be tested by the query: labels in documents, labels in service heads and
// bodies, and labels in the query. Annotation labels are excluded by
// construction (they do not exist yet).
func activeAlphabet(s *core.System, rq *RQuery) []string {
	set := map[string]bool{}
	for _, name := range s.DocNames() {
		s.Document(name).Root.Walk(func(n, _ *tree.Node) bool {
			if n.Kind == tree.Label {
				set[n.Name] = true
			}
			return true
		})
	}
	var walkP func(p *pattern.Node)
	walkP = func(p *pattern.Node) {
		if p == nil {
			return
		}
		if p.Kind == pattern.ConstLabel {
			set[p.Name] = true
		}
		for _, c := range p.Children {
			walkP(c)
		}
	}
	for _, fname := range s.FuncNames() {
		if qs := s.Declarative(fname); qs != nil {
			walkP(qs.Query.Head)
			for _, a := range qs.Query.Body {
				walkP(a.Pattern)
			}
		}
	}
	var walkR func(n *RNode)
	walkR = func(n *RNode) {
		if n == nil {
			return
		}
		if !n.IsPath && n.Kind == pattern.ConstLabel {
			set[n.Name] = true
		}
		if n.IsPath {
			collectRegexLabels(n.Expr, set)
		}
		for _, c := range n.Children {
			walkR(c)
		}
	}
	walkP(rq.Head)
	for _, a := range rq.Body {
		walkR(a.Pattern)
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func collectRegexLabels(r Regex, set map[string]bool) {
	switch r := r.(type) {
	case Atom:
		set[r.Label] = true
	case Concat:
		for _, p := range r.Parts {
			collectRegexLabels(p, set)
		}
	case AltExpr:
		for _, p := range r.Branches {
			collectRegexLabels(p, set)
		}
	case Star:
		collectRegexLabels(r.Inner, set)
	case PlusExpr:
		collectRegexLabels(r.Inner, set)
	case Opt:
		collectRegexLabels(r.Inner, set)
	}
}
