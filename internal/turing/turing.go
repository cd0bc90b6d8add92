// Package turing implements the Turing-machine embedding of Lemma 3.1:
// any (non-cycling) Turing machine can be simulated by a positive AXML
// system. Tapes are encoded as "line trees", configurations as trees
// holding the state and the two half-tapes, and each machine transition
// becomes a non-simple positive service (tree variables copy the untouched
// parts of the tape). All configurations the machine goes through
// accumulate monotonically in a single document; a final service emits the
// output tape of accepting configurations.
//
// The undecidability of termination for positive systems (Corollary 3.1)
// follows from this embedding; the package makes it concrete and testable.
package turing

import (
	"fmt"
	"strings"

	"axml/internal/core"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/tree"
)

// Move is a head direction.
type Move int8

// Head directions.
const (
	Left  Move = -1
	Right Move = 1
)

// Rule is one transition: in state State reading Read, write Write, move
// the head, and enter Next.
type Rule struct {
	State string
	Read  string
	Write string
	Move  Move
	Next  string
}

// Machine is a deterministic single-tape Turing machine, semi-formally:
// determinism is not enforced, but simulation and interpretation both
// apply every applicable rule (the paper's setting is non-cycling
// machines, where this is harmless).
type Machine struct {
	// Name is used to derive document and service names.
	Name string
	// Start and Accept are the initial and accepting states.
	Start  string
	Accept string
	// Blank is the blank tape symbol.
	Blank string
	// Rules are the transitions. No rule may leave Accept.
	Rules []Rule
}

// Validate checks basic machine sanity.
func (m *Machine) Validate() error {
	if m.Start == "" || m.Accept == "" || m.Blank == "" {
		return fmt.Errorf("turing: machine needs start, accept and blank")
	}
	for _, r := range m.Rules {
		if r.State == m.Accept {
			return fmt.Errorf("turing: rule leaves the accepting state %q", m.Accept)
		}
		if r.Move != Left && r.Move != Right {
			return fmt.Errorf("turing: rule has invalid move %d", r.Move)
		}
	}
	return nil
}

// config is an interpreter configuration: left is reversed (nearest cell
// first); right begins with the cell under the head.
type config struct {
	state string
	left  []string
	right []string
}

// Run interprets the machine directly (the ground-truth baseline for the
// AXML simulation). It returns the content of the right half-tape at
// acceptance (head cell onward, trailing blanks trimmed) and whether the
// machine accepted within maxSteps.
func (m *Machine) Run(input []string, maxSteps int) ([]string, bool) {
	c := config{state: m.Start, right: append([]string(nil), input...)}
	for step := 0; step < maxSteps; step++ {
		if c.state == m.Accept {
			return trimBlanks(c.right, m.Blank), true
		}
		read := m.Blank
		if len(c.right) > 0 {
			read = c.right[0]
		}
		applied := false
		for _, r := range m.Rules {
			if r.State != c.state || r.Read != read {
				continue
			}
			applied = true
			rest := c.right
			if len(rest) > 0 {
				rest = rest[1:]
			}
			if r.Move == Right {
				c = config{
					state: r.Next,
					left:  append([]string{r.Write}, c.left...),
					right: rest,
				}
			} else {
				prev := m.Blank
				pl := c.left
				if len(pl) > 0 {
					prev, pl = pl[0], pl[1:]
				}
				c = config{
					state: r.Next,
					left:  pl,
					right: append([]string{prev, r.Write}, rest...),
				}
			}
			break
		}
		if !applied {
			return nil, false
		}
	}
	return nil, false
}

func trimBlanks(tape []string, blank string) []string {
	end := len(tape)
	for end > 0 && tape[end-1] == blank {
		end--
	}
	return append([]string(nil), tape[:end]...)
}

// EncodeTape builds the line tree of a half-tape: cells become
// c{sym{"x"}, rest{...}} nested, terminated by e.
func EncodeTape(cells []string) *tree.Node {
	n := tree.NewLabel("e")
	for i := len(cells) - 1; i >= 0; i-- {
		n = tree.NewLabel("c",
			tree.NewLabel("sym", tree.NewValue(cells[i])),
			tree.NewLabel("rest", n),
		)
	}
	return n
}

// DecodeTape reads a line tree back into cells. It fails on malformed
// trees.
func DecodeTape(n *tree.Node) ([]string, error) {
	var out []string
	for {
		if n == nil {
			return nil, fmt.Errorf("turing: nil line tree")
		}
		if n.Kind == tree.Label && n.Name == "e" {
			return out, nil
		}
		if n.Kind != tree.Label || n.Name != "c" {
			return nil, fmt.Errorf("turing: expected cell, found %s", n.Name)
		}
		var sym string
		var rest *tree.Node
		for _, ch := range n.Children {
			switch ch.Name {
			case "sym":
				if len(ch.Children) != 1 {
					return nil, fmt.Errorf("turing: malformed sym")
				}
				sym = ch.Children[0].Name
			case "rest":
				if len(ch.Children) != 1 {
					return nil, fmt.Errorf("turing: malformed rest")
				}
				rest = ch.Children[0]
			}
		}
		if rest == nil {
			return nil, fmt.Errorf("turing: cell without rest")
		}
		out = append(out, sym)
		n = rest
	}
}

// encodeConfig builds config{state{"q"}, left{L}, right{R}}.
func encodeConfig(state string, left, right []string) *tree.Node {
	return tree.NewLabel("config",
		tree.NewLabel("state", tree.NewValue(state)),
		tree.NewLabel("left", EncodeTape(left)),
		tree.NewLabel("right", EncodeTape(right)),
	)
}

// TapeDoc is the document name used by Compile.
const TapeDoc = "tape"

// Compile builds the positive AXML system simulating the machine on the
// given input. The system has one document, TapeDoc, holding the initial
// configuration and one call per transition service; fair rewriting makes
// the configurations accumulate. The services are non-simple (tree
// variables copy half-tapes), as in the paper's proof.
func Compile(m *Machine, input []string) (*core.System, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := core.NewSystem()
	var queries []*query.Query
	for i, r := range m.Rules {
		queries = append(queries, transitionQuery(fmt.Sprintf("step%d", i), r))
	}
	queries = append(queries, extendRightQuery(m.Blank), extendLeftQuery(m.Blank))

	root := tree.NewLabel("configs", encodeConfig(m.Start, nil, input))
	for _, q := range queries {
		root.Children = append(root.Children, tree.NewFunc(q.Name))
	}
	if err := s.AddDocument(tree.NewDocument(TapeDoc, tree.NewLabel("run", root))); err != nil {
		return nil, err
	}
	for _, q := range queries {
		if err := s.AddQuery(q); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// cellPat builds the pattern c{sym{"x"}, rest{R}}.
func cellPat(sym string, rest *pattern.Node) *pattern.Node {
	return pattern.Label("c",
		pattern.Label("sym", pattern.Value(sym)),
		pattern.Label("rest", rest),
	)
}

// cellPatVar is cellPat with a value variable for the symbol.
func cellPatVar(symVar string, rest *pattern.Node) *pattern.Node {
	return pattern.Label("c",
		pattern.Label("sym", pattern.VVar(symVar)),
		pattern.Label("rest", rest),
	)
}

func configPat(state *pattern.Node, left, right *pattern.Node) *pattern.Node {
	return pattern.Label("config",
		pattern.Label("state", state),
		pattern.Label("left", left),
		pattern.Label("right", right),
	)
}

// transitionQuery builds the service for one rule.
//
// Right move:  config{p, left{c{b,L}},  right{R}}        :- config{q, left{L}, right{c{a,R}}}
// Left move:   config{p, left{L},       right{c{x,c{b,R}}}} :- config{q, left{c{x,L}}, right{c{a,R}}}
func transitionQuery(name string, r Rule) *query.Query {
	bodyRight := cellPat(r.Read, pattern.TVar("R"))
	var head *pattern.Node
	var bodyLeft *pattern.Node
	if r.Move == Right {
		bodyLeft = pattern.TVar("L")
		head = configPat(
			pattern.Value(r.Next),
			cellPat(r.Write, pattern.TVar("L")),
			pattern.TVar("R"),
		)
	} else {
		bodyLeft = cellPatVar("x", pattern.TVar("L"))
		head = configPat(
			pattern.Value(r.Next),
			pattern.TVar("L"),
			cellPatVar("x", cellPat(r.Write, pattern.TVar("R"))),
		)
	}
	body := pattern.Label("run", pattern.Label("configs",
		configPat(pattern.Value(r.State), bodyLeft, bodyRight)))
	return &query.Query{
		Name: name,
		Head: head,
		Body: []query.Atom{{Doc: TapeDoc, Pattern: body}},
	}
}

// extendRightQuery materializes one blank cell when the head reaches the
// right end of the explicit tape.
func extendRightQuery(blank string) *query.Query {
	head := configPat(
		pattern.VVar("q"),
		pattern.TVar("L"),
		cellPat(blank, pattern.Label("e")),
	)
	body := pattern.Label("run", pattern.Label("configs",
		configPat(pattern.VVar("q"), pattern.TVar("L"), pattern.Label("e"))))
	return &query.Query{
		Name: "extendR",
		Head: head,
		Body: []query.Atom{{Doc: TapeDoc, Pattern: body}},
	}
}

// extendLeftQuery materializes one blank cell at the left end.
func extendLeftQuery(blank string) *query.Query {
	head := configPat(
		pattern.VVar("q"),
		cellPat(blank, pattern.Label("e")),
		pattern.TVar("R"),
	)
	body := pattern.Label("run", pattern.Label("configs",
		configPat(pattern.VVar("q"), pattern.Label("e"), pattern.TVar("R"))))
	return &query.Query{
		Name: "extendL",
		Head: head,
		Body: []query.Atom{{Doc: TapeDoc, Pattern: body}},
	}
}

// SimResult reports an AXML simulation.
type SimResult struct {
	// Accepted is true when an accepting configuration was derived.
	Accepted bool
	// Output is the accepted right half-tape (head onward, blanks
	// trimmed). When several accepting configurations exist (blank
	// extensions), the longest decoded tape is reported.
	Output []string
	// Configs counts the configuration trees accumulated.
	Configs int
	// Run is the underlying rewriting report.
	Run core.RunResult
}

// Simulate compiles and runs the machine on the input via the AXML
// engine, with a step budget (the machine may not halt: termination of
// positive systems is undecidable).
func Simulate(m *Machine, input []string, maxSteps int) (*SimResult, error) {
	s, err := Compile(m, input)
	if err != nil {
		return nil, err
	}
	run := s.Run(core.RunOptions{MaxSteps: maxSteps, Parallelism: 1})
	if run.Err != nil {
		return nil, run.Err
	}
	res := &SimResult{Run: run}
	acceptQ := &query.Query{
		Name: "emit",
		Head: pattern.Label("out", pattern.TVar("R")),
		Body: []query.Atom{{Doc: TapeDoc, Pattern: pattern.Label("run", pattern.Label("configs",
			configPat(pattern.Value(m.Accept), pattern.TVar("L2"), pattern.TVar("R"))))}},
	}
	ans, err := s.SnapshotQuery(acceptQ)
	if err != nil {
		return nil, err
	}
	for _, t := range ans {
		if len(t.Children) != 1 {
			continue
		}
		tape, err := DecodeTape(t.Children[0])
		if err != nil {
			return nil, err
		}
		tape = trimBlanks(tape, m.Blank)
		res.Accepted = true
		if len(tape) > len(res.Output) {
			res.Output = tape
		}
	}
	// Count configurations.
	s.Document(TapeDoc).Root.Walk(func(n, _ *tree.Node) bool {
		if n.Kind == tree.Label && n.Name == "config" {
			res.Configs++
		}
		return true
	})
	return res, nil
}

// Sample machines.

// UnaryIncrement returns a machine over {1} that appends one more 1 to a
// unary number: it scans right past the 1s and writes a 1 on the first
// blank.
func UnaryIncrement() *Machine {
	return &Machine{
		Name:   "unary-increment",
		Start:  "scan",
		Accept: "acc",
		Blank:  "_",
		Rules: []Rule{
			{State: "scan", Read: "1", Write: "1", Move: Right, Next: "scan"},
			{State: "scan", Read: "_", Write: "1", Move: Right, Next: "back"},
			{State: "back", Read: "_", Write: "_", Move: Left, Next: "halt1"},
			{State: "halt1", Read: "1", Write: "1", Move: Left, Next: "rewind"},
			{State: "rewind", Read: "1", Write: "1", Move: Left, Next: "rewind"},
			{State: "rewind", Read: "_", Write: "_", Move: Right, Next: "acc"},
		},
	}
}

// BinarySuccessor returns a machine incrementing an LSB-first binary
// number: 1s become 0s while carrying right, the first 0 or blank becomes
// 1.
func BinarySuccessor() *Machine {
	return &Machine{
		Name:   "binary-successor",
		Start:  "carry",
		Accept: "acc",
		Blank:  "_",
		Rules: []Rule{
			{State: "carry", Read: "1", Write: "0", Move: Right, Next: "carry"},
			{State: "carry", Read: "0", Write: "1", Move: Left, Next: "rewind"},
			{State: "carry", Read: "_", Write: "1", Move: Left, Next: "rewind"},
			{State: "rewind", Read: "0", Write: "0", Move: Left, Next: "rewind"},
			{State: "rewind", Read: "1", Write: "1", Move: Left, Next: "rewind"},
			{State: "rewind", Read: "_", Write: "_", Move: Right, Next: "acc"},
		},
	}
}

// ParityMarker returns a machine that replaces its {1}-tape by "even" or
// "odd" (a single symbol) according to the parity of the number of 1s.
func ParityMarker() *Machine {
	return &Machine{
		Name:   "parity",
		Start:  "even",
		Accept: "acc",
		Blank:  "_",
		Rules: []Rule{
			{State: "even", Read: "1", Write: "_", Move: Right, Next: "odd"},
			{State: "odd", Read: "1", Write: "_", Move: Right, Next: "even"},
			{State: "even", Read: "_", Write: "E", Move: Right, Next: "acc"},
			{State: "odd", Read: "_", Write: "O", Move: Right, Next: "acc"},
		},
	}
}

// FormatTape renders a tape for messages.
func FormatTape(cells []string) string { return strings.Join(cells, "") }
