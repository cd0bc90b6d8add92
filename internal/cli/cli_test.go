package cli

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

const tcFile = `
doc  d0 = r{t{a{1},b{2}},t{a{2},b{3}}}
doc  d1 = r{!g,!f}
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`

func memFS(files map[string]string) func(string) ([]byte, error) {
	return func(name string) ([]byte, error) {
		if s, ok := files[name]; ok {
			return []byte(s), nil
		}
		return nil, fmt.Errorf("no such file %q", name)
	}
}

func run(t *testing.T, files map[string]string, cmd string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(&buf, Options{ReadFile: memFS(files)}, cmd, args...); err != nil {
		t.Fatalf("%s %v: %v", cmd, args, err)
	}
	return buf.String()
}

func TestParseReduceSubsume(t *testing.T) {
	out := run(t, nil, "parse", `a{b{"1"},!f}`)
	if !strings.Contains(out, "!f") || !strings.Contains(out, `"1"`) {
		t.Fatalf("parse output: %q", out)
	}
	out = run(t, nil, "reduce", `a{b{c,c},b{c,d,d}}`)
	if strings.TrimSpace(out) != "a{b{c,d}}" {
		t.Fatalf("reduce output: %q", out)
	}
	if strings.TrimSpace(run(t, nil, "subsume", "a{b}", "a{b,c}")) != "true" {
		t.Fatal("subsume true case")
	}
	if strings.TrimSpace(run(t, nil, "subsume", "a{z}", "a{b,c}")) != "false" {
		t.Fatal("subsume false case")
	}
}

func TestRunQuerySnapshotLazy(t *testing.T) {
	files := map[string]string{"tc.axml": tcFile}
	out := run(t, files, "run", "tc.axml")
	if !strings.Contains(out, "terminated=true") {
		t.Fatalf("run output: %q", out)
	}
	if !strings.Contains(out, `t{a{"1"},b{"3"}}`) {
		t.Fatalf("run output missing closure pair: %q", out)
	}
	out = run(t, files, "query", "tc.axml", `pair{$x,$y} :- d1/r{t{a{$x},b{$y}}}`)
	if !strings.Contains(out, "exact=true") || !strings.Contains(out, `pair{"1","3"}`) {
		t.Fatalf("query output: %q", out)
	}
	out = run(t, files, "snapshot", "tc.axml", `pair{$x} :- d1/r{t{a{$x}}}`)
	if strings.TrimSpace(out) != "" {
		t.Fatalf("snapshot before any call should be empty: %q", out)
	}
	out = run(t, files, "lazy", "tc.axml", `pair{$x,$y} :- d1/r{t{a{$x},b{$y}}}`)
	if !strings.Contains(out, "stable=true") {
		t.Fatalf("lazy output: %q", out)
	}
}

// An incremental run must reach the same fixpoint as a plain run and
// report its delta evaluations through -stats.
func TestRunIncremental(t *testing.T) {
	files := map[string]string{"tc.axml": tcFile}
	plain := run(t, files, "run", "tc.axml")
	var buf bytes.Buffer
	opts := Options{ReadFile: memFS(files), Stats: true, Parallelism: 4}
	if err := Run(&buf, opts, "run", "tc.axml"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "terminated=true") {
		t.Fatalf("incremental run output: %q", out)
	}
	if !strings.Contains(out, `t{a{"1"},b{"3"}}`) {
		t.Fatalf("incremental run missing closure pair: %q", out)
	}
	// Same documents as the plain run (drop the differing # comments).
	docLines := func(s string) []string {
		var ds []string
		for _, l := range strings.Split(s, "\n") {
			if l != "" && !strings.HasPrefix(l, "#") {
				ds = append(ds, l)
			}
		}
		return ds
	}
	if got, want := docLines(out), docLines(plain); !slices.Equal(got, want) {
		t.Fatalf("incremental documents %v, plain %v", got, want)
	}
	if !strings.Contains(out, "delta_evals=") || strings.Contains(out, "delta_evals=0 ") {
		t.Fatalf("stats missing delta evaluations: %q", out)
	}
}

func TestTerminatesAndSource(t *testing.T) {
	files := map[string]string{
		"tc.axml":   tcFile,
		"loop.axml": "doc d = a{!f}\nfunc f = a{!f} :- ",
	}
	if !strings.Contains(run(t, files, "terminates", "tc.axml"), "terminates=true") {
		t.Fatal("tc should terminate")
	}
	if !strings.Contains(run(t, files, "terminates", "loop.axml"), "terminates=false") {
		t.Fatal("loop should not terminate")
	}
	src := run(t, files, "source", "tc.axml")
	if !strings.Contains(src, "func g =") || !strings.Contains(src, "doc d0 =") {
		t.Fatalf("source output: %q", src)
	}
}

func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"unknown"},
		{"parse"},
		{"parse", "a{"},
		{"reduce"},
		{"subsume", "a"},
		{"run", "missing.axml"},
		{"query", "missing.axml"},
		{"query", "missing.axml", "a :- ", "extra"},
		{"terminates"},
	}
	for _, c := range cases {
		if err := Run(&buf, Options{ReadFile: memFS(nil)}, c[0], c[1:]...); err == nil {
			t.Errorf("command %v accepted", c)
		}
	}
}

func TestXMLCommands(t *testing.T) {
	xml := strings.TrimSpace(run(t, nil, "toxml", `a{b{"1"},!f{c}}`))
	if !strings.Contains(xml, "<ax:call service=\"f\">") || !strings.Contains(xml, "<ax:value>1</ax:value>") {
		t.Fatalf("toxml output: %q", xml)
	}
	back := strings.TrimSpace(run(t, nil, "fromxml", xml))
	if back != `a{b{"1"},!f{c}}` {
		t.Fatalf("fromxml round trip: %q", back)
	}
	var buf bytes.Buffer
	if err := Run(&buf, Options{}, "fromxml", "<junk"); err == nil {
		t.Fatal("bad XML accepted")
	}
}

func TestDatalogCommand(t *testing.T) {
	files := map[string]string{"tc.dl": `
edge(a, b). edge(b, c).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
`}
	out := run(t, files, "datalog", "tc.dl")
	if !strings.Contains(out, "tc(a,c)") || !strings.Contains(out, "semi-naive") {
		t.Fatalf("datalog output: %q", out)
	}
	out = run(t, files, "datalog", "tc.dl", "tc(a,Y)")
	if !strings.Contains(out, "tc(a,b)") || !strings.Contains(out, "tc(a,c)") {
		t.Fatalf("qsq output: %q", out)
	}
	if strings.Contains(out, "tc(b,c)") {
		t.Fatalf("goal restriction leaked: %q", out)
	}
	var buf bytes.Buffer
	if err := Run(&buf, Options{ReadFile: memFS(files)}, "datalog", "tc.dl", "junk goal ("); err == nil {
		t.Fatal("bad goal accepted")
	}
}

// lazy builds the same RunOptions as run: -parallel, -trace-out and
// -stats apply to its rounds.
func TestLazyTakesRunOptions(t *testing.T) {
	var buf, trace bytes.Buffer
	opts := Options{ReadFile: memFS(map[string]string{"tc.axml": tcFile}), Stats: true, Parallelism: 1, Trace: &trace}
	if err := Run(&buf, opts, "lazy", "tc.axml", `pair{$x,$y} :- d1/r{t{a{$x},b{$y}}}`); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "stable=true") || !strings.Contains(out, "# stats fired=") || strings.Contains(out, "fired=0 ") {
		t.Fatalf("lazy -stats output: %q", out)
	}
	// Parallelism 1 sweeps: sweep spans, no worklist drain.
	if spans := trace.String(); !strings.Contains(spans, `"kind":"sweep"`) || strings.Contains(spans, `"kind":"drain"`) {
		t.Fatalf("lazy -trace-out spans: %q", spans)
	}
}
