// Command axml is the library's CLI: parse, reduce and compare AXML
// documents, run systems to their fixpoint, evaluate queries (snapshot,
// full and lazy), decide termination of simple positive systems and
// re-serialize systems.
//
// Usage:
//
//	axml parse  'a{b{"1"},!f{c}}'          # parse and pretty-print a document
//	axml reduce 'a{b{c,c},b{c,d,d}}'       # print the reduced version
//	axml subsume 'a{b}' 'a{b,c}'           # subsumption check
//	axml run system.axml                   # run a system file to fixpoint
//	axml query system.axml 'out{$x} :- d/r{a{$x}}'     # full result [q](I)
//	axml snapshot system.axml 'out{$x} :- d/r{a{$x}}'  # no invocation
//	axml lazy system.axml 'out{$x} :- d/r{a{$x}}'      # lazy evaluation
//	axml terminates system.axml            # exact decision (simple systems)
//	axml source system.axml                # re-serialize the system
//
// System files use the line syntax of internal/syntax:
//
//	doc  d = r{t{a{1},b{2}}}
//	func f = t{a{$x},b{$y}} :- d/r{t{a{$x},b{$y}}}
package main

import (
	"flag"
	"fmt"
	"os"

	"axml/internal/cli"
)

func main() {
	maxSteps := flag.Int("max-steps", 100000, "rewriting step budget")
	parallel := flag.Int("parallel", 0, "workers per run (0 = GOMAXPROCS, 1 = deterministic sequential sweeps)")
	traceOut := flag.String("trace-out", "", "append the run's JSON trace spans, one per line, to this file")
	stats := flag.Bool("stats", false, "print run statistics (call counts, latency quantiles, lock waits)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	opts := cli.Options{MaxSteps: *maxSteps, Parallelism: *parallel, Stats: *stats}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "axml:", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.Trace = f
	}
	err := cli.Run(os.Stdout, opts, args[0], args[1:]...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "axml:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: axml [-max-steps N] [-parallel N] <command> ...
commands:
  parse <doc>                    parse and pretty-print a document
  reduce <doc>                   print the reduced version
  subsume <doc1> <doc2>          test doc1 ⊆ doc2
  run <system-file>              run to fixpoint and print the documents
  query <system-file> <rule>     full query result [q](I)
  snapshot <system-file> <rule>  snapshot result q(I)
  lazy <system-file> <rule>      lazy evaluation (Section 4)
  terminates <system-file>       exact termination decision (simple systems)
  source <system-file>           re-serialize the system
  toxml <doc>                    render a document in the XML wire format
  fromxml <xml>                  parse the XML wire format
  datalog <file> [goal]          datalog fixpoint / QSQ goal evaluation`)
}
