// Package cli implements the axml command's subcommands, kept separate
// from package main so they are unit-testable. Run dispatches one
// subcommand, writing human-readable output to out.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"axml/internal/core"
	"axml/internal/datalog"
	"axml/internal/lazy"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/regular"
	"axml/internal/subsume"
	"axml/internal/syntax"
)

// Options configures a CLI run.
type Options struct {
	// MaxSteps bounds rewriting runs (default core.DefaultMaxSteps).
	MaxSteps int
	// Parallelism is the run's worker count (0 = GOMAXPROCS, 1 =
	// deterministic sweeps in sequential order).
	Parallelism int
	// Trace, when non-nil, receives the run's JSON trace spans, one per
	// line (the -trace-out flag; summarize with
	// scripts/trace-summarize.sh).
	Trace io.Writer
	// Stats prints the run's RunResult.Stats (call counts, latency
	// quantiles, lock waits) as # comment lines after a run.
	Stats bool
	// ReadFile loads system files; nil means os.ReadFile. Tests inject
	// an in-memory loader.
	ReadFile func(string) ([]byte, error)
}

// Run executes one subcommand with its arguments.
func Run(out io.Writer, opts Options, cmd string, args ...string) error {
	if opts.ReadFile == nil {
		opts.ReadFile = os.ReadFile
	}
	ro := runOptions(opts)
	switch cmd {
	case "parse":
		if len(args) != 1 {
			return fmt.Errorf("parse needs one document")
		}
		n, err := syntax.ParseDocument(args[0])
		if err != nil {
			return err
		}
		fmt.Fprint(out, n.Indent())
		return nil
	case "reduce":
		if len(args) != 1 {
			return fmt.Errorf("reduce needs one document")
		}
		n, err := syntax.ParseDocument(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintln(out, subsume.Reduce(n))
		return nil
	case "subsume":
		if len(args) != 2 {
			return fmt.Errorf("subsume needs two documents")
		}
		a, err := syntax.ParseDocument(args[0])
		if err != nil {
			return err
		}
		b, err := syntax.ParseDocument(args[1])
		if err != nil {
			return err
		}
		fmt.Fprintln(out, subsume.Subsumed(a, b))
		return nil
	case "run":
		s, err := loadSystem(opts, args)
		if err != nil {
			return err
		}
		res := s.Run(ro)
		if res.Err != nil {
			return res.Err
		}
		fmt.Fprintf(out, "# steps=%d attempts=%d sweeps=%d terminated=%v\n",
			res.Steps, res.Attempts, res.Sweeps, res.Terminated)
		if err := report(out, ro); err != nil {
			return err
		}
		for _, name := range s.DocNames() {
			fmt.Fprintf(out, "%s/%s\n", name, s.Document(name).Root)
		}
		return nil
	case "snapshot", "query", "lazy":
		if len(args) != 2 {
			return fmt.Errorf("%s needs a system file and a rule", cmd)
		}
		s, err := loadSystem(opts, args[:1])
		if err != nil {
			return err
		}
		q, err := syntax.ParseQuery(args[1])
		if err != nil {
			return err
		}
		switch cmd {
		case "snapshot":
			ans, err := s.SnapshotQuery(q)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, ans.String())
		case "query":
			res, err := s.EvalQuery(q, core.RunOptions{MaxSteps: opts.MaxSteps})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "# exact=%v steps=%d\n", res.Exact, res.Run.Steps)
			fmt.Fprintln(out, res.Answer.String())
		case "lazy":
			res, err := lazy.Eval(context.Background(), s, q, ro)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "# stable=%v invocations=%d rounds=%d\n",
				res.Stable, res.Invocations, res.Rounds)
			if err := report(out, ro); err != nil {
				return err
			}
			fmt.Fprintln(out, res.Answer.String())
		}
		return nil
	case "terminates":
		s, err := loadSystem(opts, args)
		if err != nil {
			return err
		}
		verdict, g, err := regular.Terminates(s, regular.BuildOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "terminates=%v vertices=%d invocations=%d\n",
			verdict, g.VertexCount(), g.Invocations)
		return nil
	case "source":
		s, err := loadSystem(opts, args)
		if err != nil {
			return err
		}
		src, err := s.Source()
		if err != nil {
			return err
		}
		fmt.Fprint(out, src)
		return nil
	case "toxml":
		if len(args) != 1 {
			return fmt.Errorf("toxml needs one document")
		}
		n, err := syntax.ParseDocument(args[0])
		if err != nil {
			return err
		}
		data, err := peer.MarshalTree(n)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	case "fromxml":
		if len(args) != 1 {
			return fmt.Errorf("fromxml needs one XML document string")
		}
		n, err := peer.UnmarshalTree([]byte(args[0]))
		if err != nil {
			return err
		}
		fmt.Fprintln(out, n)
		return nil
	case "datalog":
		// datalog <program-file> [goal]: bottom-up fixpoint, optionally
		// restricted to a QSQ goal like tc(a,Y).
		if len(args) < 1 || len(args) > 2 {
			return fmt.Errorf("datalog needs a program file and an optional goal")
		}
		data, err := opts.ReadFile(args[0])
		if err != nil {
			return err
		}
		prog, err := datalog.Parse(string(data))
		if err != nil {
			return err
		}
		if len(args) == 2 {
			goal, err := parseGoal(args[1])
			if err != nil {
				return err
			}
			rel, st, err := prog.QSQ(goal)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "# qsq subgoals=%d derivations=%d\n", st.Subgoals, st.Derivations)
			for _, tpl := range rel.Tuples() {
				fmt.Fprintf(out, "%s(%s)\n", goal.Pred, strings.Join(tpl, ","))
			}
			return nil
		}
		db, st, err := prog.SemiNaive()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# semi-naive iterations=%d derivations=%d\n", st.Iterations, st.Derivations)
		preds := make([]string, 0, len(db))
		for p := range db {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		for _, p := range preds {
			for _, tpl := range db[p].Tuples() {
				fmt.Fprintf(out, "%s(%s)\n", p, strings.Join(tpl, ","))
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runOptions builds the RunOptions of the subcommands that drive the
// engine (run, lazy); under -stats their runs fold into one registry.
func runOptions(opts Options) core.RunOptions {
	ro := core.RunOptions{MaxSteps: opts.MaxSteps, Parallelism: opts.Parallelism}
	if opts.Trace != nil {
		ro.Tracer = obs.NewTracer(opts.Trace)
	}
	if opts.Stats {
		ro.Metrics = obs.NewRegistry()
	}
	return ro
}

// report prints the -stats lines from the runs' registry, if any, as #
// comment lines like the header, so pipelines that skip comments skip
// them too, and returns a failed -trace-out write.
func report(out io.Writer, ro core.RunOptions) error {
	if reg := ro.Metrics; reg != nil {
		n := func(name string) int64 { return reg.Counter("engine." + name).Value() }
		fmt.Fprintf(out, "# stats fired=%d sterile=%d delta_evals=%d enqueues=%d coalesced=%d reader_waits=%d writer_waits=%d\n",
			n("calls.fired"), n("calls.sterile"), n("delta_evals"), n("enqueues"),
			n("enqueues.coalesced"), n("lock.reader_waits"), n("lock.writer_waits"))
		for _, name := range []string{"eval_ns", "merge_wait_ns"} {
			if h := reg.Histogram("engine." + name).Snapshot(); h.Count > 0 {
				fmt.Fprintf(out, "# %s count=%d mean=%d p50=%d p90=%d p99=%d max=%d\n",
					name, h.Count, h.Sum/h.Count, h.P50, h.P90, h.P99, h.Max)
			}
		}
	}
	if err := ro.Tracer.Err(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// parseGoal reads a goal atom like tc(a,Y) — uppercase arguments are
// variables, the rest constants.
func parseGoal(src string) (datalog.Atom, error) {
	prog, err := datalog.Parse("goalwrap :- " + src + ".")
	if err != nil {
		return datalog.Atom{}, fmt.Errorf("bad goal %q: %w", src, err)
	}
	if len(prog.Rules) != 1 || len(prog.Rules[0].Body) != 1 {
		return datalog.Atom{}, fmt.Errorf("bad goal %q", src)
	}
	return prog.Rules[0].Body[0], nil
}

func loadSystem(opts Options, args []string) (*core.System, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("need a system file")
	}
	data, err := opts.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	return core.ParseSystem(string(data))
}
