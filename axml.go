// Package axml is the public API of this library: a from-scratch Go
// implementation of "Positive Active XML" (Abiteboul, Benjelloun, Milo;
// PODS 2004).
//
// Active XML documents are unordered labeled trees in which some data is
// extensional and some is intensional — embedded calls to Web services.
// This package re-exports the library's core types and operations; the
// implementation lives in the internal packages (see DESIGN.md for the
// map):
//
//	doc := axml.MustParseDocument(`directory{cd{title{"Body and Soul"},!GetRating{"Body and Soul"}}}`)
//	sys := axml.NewSystem()
//	_ = sys.AddDocument(axml.NewDocument("d", doc))
//	_ = sys.AddService(axml.ConstService("GetRating", axml.Forest{axml.MustParseDocument(`rating{"****"}`)}))
//	res := sys.Run(axml.RunOptions{})          // fair rewriting to fixpoint
//	fmt.Println(res.Terminated)                // true
//
// The facade uses type aliases, so values flow freely between this
// package and the internal packages for advanced use.
package axml

import (
	"axml/internal/core"
	"axml/internal/lazy"
	"axml/internal/pathexpr"
	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/regular"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// Documents and trees.
type (
	// Node is an AXML tree node: a data node (label or atomic value) or
	// a function node (service call).
	Node = tree.Node
	// Kind classifies node markings.
	Kind = tree.Kind
	// Document is a named AXML document.
	Document = tree.Document
	// Forest is an unordered set of trees, the result type of services.
	Forest = tree.Forest
)

// Node kinds.
const (
	Label = tree.Label
	Value = tree.Value
	Func  = tree.Func
)

// Node constructors.
var (
	// NewLabel returns a data node with the given label and children.
	NewLabel = tree.NewLabel
	// NewValue returns an atomic value leaf.
	NewValue = tree.NewValue
	// NewFunc returns a function node (service call) with parameters.
	NewFunc = tree.NewFunc
	// NewDocument binds a name to a tree.
	NewDocument = tree.NewDocument
	// Isomorphic reports equality of unordered trees.
	Isomorphic = tree.Isomorphic
)

// Subsumption, equivalence and reduction (Section 2.1 of the paper).
var (
	// Subsumed reports a ⊆ b (marking-preserving homomorphism).
	Subsumed = subsume.Subsumed
	// Equivalent reports mutual subsumption.
	Equivalent = subsume.Equivalent
	// Reduce returns the unique reduced version of a tree.
	Reduce = subsume.Reduce
	// Union returns the least upper bound of two trees.
	Union = subsume.Union
	// ReduceForest reduces a forest.
	ReduceForest = subsume.ReduceForest
	// ForestSubsumed reports forest subsumption.
	ForestSubsumed = subsume.ForestSubsumed
	// ForestEquivalent reports forest equivalence.
	ForestEquivalent = subsume.ForestEquivalent
)

// Queries (Section 3.1).
type (
	// Query is a positive query: head :- body with inequalities.
	Query = query.Query
	// Pattern is a positive AXML tree pattern node.
	Pattern = pattern.Node
	// Assignment maps variables to bindings.
	Assignment = pattern.Assignment
	// Docs binds document names to trees for snapshot evaluation.
	Docs = query.Docs
)

// Query evaluation.
var (
	// Snapshot evaluates a query on the current state only.
	Snapshot = query.Snapshot
	// Match computes all embeddings of a pattern into a tree.
	Match = pattern.Match
)

// Parsing the compact term syntax.
var (
	// ParseDocument parses a tree, e.g. `a{b{"1"},!f{c}}`.
	ParseDocument = syntax.ParseDocument
	// MustParseDocument panics on error.
	MustParseDocument = syntax.MustParseDocument
	// ParsePattern parses a pattern with variables %x $x ^f #X.
	ParsePattern = syntax.ParsePattern
	// MustParsePattern panics on error.
	MustParsePattern = syntax.MustParsePattern
	// ParseQuery parses a rule "head :- body".
	ParseQuery = syntax.ParseQuery
	// MustParseQuery panics on error.
	MustParseQuery = syntax.MustParseQuery
)

// Systems and rewriting (Sections 2.2 and 3.2).
type (
	// System is a monotone AXML system (documents + services).
	System = core.System
	// Service is a monotone Web service.
	Service = core.Service
	// QueryService is a service defined by a positive query.
	QueryService = core.QueryService
	// GoService is a black-box monotone service.
	GoService = core.GoService
	// Binding carries input, context and the system documents into a
	// service invocation.
	Binding = core.Binding
	// Call locates one invocable function node.
	Call = core.Call
	// RunOptions bounds a rewriting run.
	RunOptions = core.RunOptions
	// RunResult reports a rewriting run.
	RunResult = core.RunResult
	// RunStats is the observability snapshot inside every RunResult:
	// call counts, evaluation/wait latency histograms, lock waits.
	RunStats = core.RunStats
	// ErrorPolicy selects fail-fast or degraded handling of service
	// errors during a run.
	ErrorPolicy = core.ErrorPolicy
	// Scheduler orders call attempts within a fair sweep.
	Scheduler = core.Scheduler
	// EvalResult is the outcome of a full query evaluation.
	EvalResult = core.EvalResult
	// DepGraph is the dependency graph of Definition 3.2.
	DepGraph = core.DepGraph
)

// Error policies for RunOptions.ErrorPolicy.
const (
	// FailFast aborts a run on the first service error.
	FailFast = core.FailFast
	// Degrade quarantines failing calls and keeps sweeping; safe by
	// confluence (Theorem 2.1).
	Degrade = core.Degrade
)

// Fault tolerance: composable service middlewares (see internal/core).
type (
	// Retry re-invokes a failing service with exponential backoff.
	Retry = core.Retry
	// Timeout bounds a single service invocation.
	Timeout = core.Timeout
	// Breaker is a circuit breaker around a service.
	Breaker = core.Breaker
	// HardenOptions configures Harden.
	HardenOptions = core.HardenOptions
)

// Fault-tolerance entry points and sentinel errors.
var (
	// Harden wraps a service in Breaker{Retry{Timeout{svc}}}.
	Harden = core.Harden
	// ErrTimeout is wrapped by Timeout on expiry.
	ErrTimeout = core.ErrTimeout
	// ErrBreakerOpen is wrapped by Breaker when it short-circuits.
	ErrBreakerOpen = core.ErrBreakerOpen
)

// System constructors and schedulers.
var (
	// NewSystem returns an empty system.
	NewSystem = core.NewSystem
	// ParseSystem parses a system file ("doc n = ...", "func f = ...").
	ParseSystem = core.ParseSystem
	// MustParseSystem panics on error.
	MustParseSystem = core.MustParseSystem
	// NewQueryService wraps a positive query as a service.
	NewQueryService = core.NewQueryService
	// ConstService returns a black-box service with a constant answer.
	ConstService = core.ConstService
	// NewRandom returns a seeded random fair scheduler.
	NewRandom = core.NewRandom
	// DefaultParallelism is the worker count a zero
	// RunOptions.Parallelism selects (GOMAXPROCS).
	DefaultParallelism = core.DefaultParallelism
)

// Regular representation of simple positive systems (Lemma 3.2, Thm 3.3).
type (
	// RegularGraph is the finite graph representation of a simple
	// positive system's (possibly infinite) semantics.
	RegularGraph = regular.Graph
	// RegularVertex is a graph vertex.
	RegularVertex = regular.Vertex
	// RegularBuildOptions configures the construction.
	RegularBuildOptions = regular.BuildOptions
)

// Regular-representation entry points.
var (
	// BuildRegular computes the graph representation.
	BuildRegular = regular.Build
	// DecideTermination decides termination of a simple positive system
	// exactly (Theorem 3.3).
	DecideTermination = regular.Terminates
	// Simulates reports subsumption between regular-tree unfoldings.
	Simulates = regular.Simulates
)

// Lazy query evaluation (Section 4).
type (
	// LazyResult reports a lazy evaluation.
	LazyResult = lazy.Result
	// LazyAnalysis is the weak (PTIME) relevance analysis.
	LazyAnalysis = lazy.Analysis
)

// Lazy entry points.
var (
	// LazyEval answers a query invoking only weakly relevant calls.
	LazyEval = lazy.Eval
	// AnalyzeRelevance runs the weak relevance analysis.
	AnalyzeRelevance = lazy.Analyze
	// QStableExact decides q-stability exactly for simple systems.
	QStableExact = lazy.QStableExact
	// QUnneededExact decides whether a call set is q-unneeded exactly.
	QUnneededExact = lazy.QUnneededExact
	// QFiniteExact decides q-finiteness for simple systems, even for
	// non-simple queries (Proposition 3.2(3)), returning the full answer
	// when finite.
	QFiniteExact = lazy.QFiniteExact
	// PossibleAnswerExact decides whether a forest is a possible answer
	// to a query over a simple system (Theorem 4.1, decidable branch).
	PossibleAnswerExact = lazy.PossibleAnswerExact
)

// Regular path expressions (Section 5).
type (
	// Regex is a regular expression over labels.
	Regex = pathexpr.Regex
	// RQuery is a positive+reg query.
	RQuery = pathexpr.RQuery
	// RQueryService exposes a positive+reg query as a service.
	RQueryService = pathexpr.RQueryService
	// RSystem is a positive+reg system in declarative form.
	RSystem = pathexpr.RSystem
	// PathTranslation is the output of the ψ translation (Prop 5.1).
	PathTranslation = pathexpr.Translation
	// ShortestOptions bounds minimal-rewriting searches (Section 4).
	ShortestOptions = core.ShortestOptions
)

// Path-expression entry points.
var (
	// ParseRegex parses a label regex, e.g. `(section|sub)*.title`.
	ParseRegex = pathexpr.ParseRegex
	// ParseRQuery parses a positive+reg query with <regex> path nodes.
	ParseRQuery = pathexpr.ParseRQuery
	// MustParseRQuery panics on error.
	MustParseRQuery = pathexpr.MustParseRQuery
	// SnapshotR evaluates a positive+reg query directly.
	SnapshotR = pathexpr.Snapshot
	// TranslatePaths applies the ψ translation to plain positive form.
	TranslatePaths = pathexpr.Translate
	// TranslateRSystem translates a whole positive+reg system (services
	// included) to plain positive form — the full Prop 5.1.
	TranslateRSystem = pathexpr.TranslateSystem
)
