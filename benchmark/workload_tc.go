package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/datalog"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// tc-fixpoint: Example 3.2. d0 is a chain of tcNodes nodes, d1 =
// r{!g,!f} where g copies d0 and f is the self-join of d1; every
// operation builds a fresh system and runs it to its fixpoint, the
// transitive closure. The secondary operation is what a reader of the
// materialised closure does next: one snapshot of f's self-join over
// the fixpoint document.
const tcNodes = 20

const tcFuncs = `
func g = t{a{$x},b{$y}} :- d0/r{t{a{$x},b{$y}}}
func f = t{a{$x},b{$y}} :- d1/r{t{a{$x},b{$z}}}, d1/r{t{a{$z},b{$y}}}
`

// Reference counts for a 10-second run on the recording box (≈73 ms
// per fixpoint, ≈16 ms per snapshot).
const (
	tcFixpoints = 100
	tcSnapshots = 120
)

type tcInst struct {
	cfg  runConfig
	rec  *recorder
	chk  *checker
	src  string
	want tree.Hash    // d1 at the fixpoint, from semi-naive datalog
	fix  *core.System // one materialised fixpoint, for the snapshots
	join *query.Query
}

func setupTC(cfg runConfig, rec *recorder, chk *checker) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	nodes := names(rng, "n", tcNodes)
	edges := make([][2]string, tcNodes-1)
	for i := range edges {
		edges[i] = [2]string{nodes[i], nodes[i+1]}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	var b strings.Builder
	b.WriteString("doc d0 = r{")
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `t{a{"%s"},b{"%s"}}`, e[0], e[1])
	}
	b.WriteString("}\ndoc d1 = r{!g,!f}\n")
	b.WriteString(tcFuncs)
	in := &tcInst{cfg: cfg, rec: rec, chk: chk, src: b.String()}

	// The oracle: the same closure by semi-naive datalog, encoded as d1.
	db, _, err := datalog.TransitiveClosure(edges).SemiNaive()
	if err != nil {
		return nil, err
	}
	want := tree.NewLabel("r", tree.NewFunc("g"), tree.NewFunc("f"))
	for _, t := range db["tc"].Tuples() {
		want.Add(tree.NewLabel("t",
			tree.NewLabel("a", tree.NewValue(t[0])), tree.NewLabel("b", tree.NewValue(t[1]))))
	}
	in.want = subsume.ReduceInPlace(want).CanonicalHash()

	spec, err := syntax.ParseSystem(in.src)
	if err != nil {
		return nil, err
	}
	in.join = spec.Funcs[1]
	// Warm-up: one fixpoint, kept as the document the snapshots read.
	if in.fix, _, _, err = in.fixpoint(); err != nil {
		return nil, err
	}
	return in, nil
}

// fixpoint builds a fresh system and runs it; only the run is timed.
func (in *tcInst) fixpoint() (*core.System, core.RunResult, time.Duration, error) {
	sys, err := buildSystem(in.rec, in.src)
	if err != nil {
		return nil, core.RunResult{}, 0, err
	}
	ctx, end := in.rec.start(context.Background(), "fixpoint")
	t0 := time.Now()
	res := sys.RunContext(ctx, core.RunOptions{})
	d := time.Since(t0)
	end()
	return sys, res, d, res.Err
}

func (in *tcInst) measure(share float64) phase {
	ph := phase{layer: map[string]float64{}}
	var fired, sterile, delta, rounds, useful, hits, misses []float64
	for i, n := 0, in.cfg.ops(tcFixpoints, share); i < n; i++ {
		in.chk.op()
		sys, res, d, err := in.fixpoint()
		if in.chk.err(err, "fixpoint") {
			continue
		}
		ph.primary = append(ph.primary, d)
		d1 := sys.Document("d1").Root
		pairs := len(d1.Children) - 2
		in.chk.check(res.Terminated && pairs == tcNodes*(tcNodes-1)/2 && d1.CanonicalHash() == in.want,
			"fixpoint %d: terminated=%v, %d pairs, digest %x, want %x", i, res.Terminated, pairs, d1.CanonicalHash(), in.want)
		fired = append(fired, float64(res.Stats.CallsFired))
		sterile = append(sterile, float64(res.Stats.CallsSterile))
		delta = append(delta, float64(res.Stats.DeltaEvals))
		rounds = append(rounds, float64(res.Sweeps))
		useful = append(useful, ratio(float64(res.Steps), float64(res.Stats.CallsFired)))
		hits = append(hits, float64(res.Stats.IndexHits))
		misses = append(misses, float64(res.Stats.IndexMisses))
	}
	docs := query.Docs{"d1": in.fix.Document("d1").Root}
	for i, n := 0, in.cfg.ops(tcSnapshots, share); i < n; i++ {
		in.chk.op()
		t0 := time.Now()
		ans, err := query.Snapshot(in.join, docs)
		ph.secondary = append(ph.secondary, time.Since(t0))
		if in.chk.err(err, "snapshot") {
			continue
		}
		in.chk.check(len(ans) == (tcNodes-1)*(tcNodes-2)/2, "snapshot: %d two-hop pairs", len(ans))
	}
	ph.ops = len(ph.primary) + len(ph.secondary)
	ph.wall = sum(ph.primary) + sum(ph.secondary)
	ph.state = fmt.Sprintf("%x", in.want)
	// The default engine runs two workers, so the counts may vary from
	// one fixpoint to the next: medians.
	ph.layer["core.calls_fired"] = median(fired)
	ph.layer["core.calls_sterile"] = median(sterile)
	ph.layer["core.delta_evals"] = median(delta)
	ph.layer["core.rounds"] = median(rounds)
	ph.layer["core.useful_call_ratio"] = median(useful)
	ph.layer["pattern.index_hits"] = median(hits)
	ph.layer["pattern.index_misses"] = median(misses)
	return ph
}

func (in *tcInst) layers(v traceView) map[string]float64 {
	return map[string]float64{
		"core.service_ms":     median(v.perOp("fixpoint", "service.")),
		"core.engine_self_ms": median(v.perOp("fixpoint", "fixpoint")),
	}
}

func (in *tcInst) kernels() (map[string]float64, error) {
	docs := query.Docs{"d1": in.fix.Document("d1").Root}
	d, err := timeKernel(15, func() error {
		_, err := query.Snapshot(in.join, docs)
		return err
	})
	return map[string]float64{"query.snapshot_ms": d}, err
}

func (in *tcInst) Close() {}
