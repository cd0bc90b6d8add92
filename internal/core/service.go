// Package core implements monotone Active XML systems (Section 2 of the
// paper) and positive systems (Section 3): documents with embedded service
// calls, black-box and query-defined monotone services, the invocation
// semantics with the reserved input and context documents, fair rewriting
// sequences with pluggable schedulers, termination detection, full query
// results over systems, dependency graphs and acyclic systems, and the
// fire-once alternative semantics.
package core

import (
	"context"
	"fmt"

	"axml/internal/query"
	"axml/internal/tree"
)

// Binding carries the meaning θ given to document names when a service is
// invoked: the reserved input and context documents plus the system's
// documents (Section 2.2).
type Binding struct {
	// Input is a tree rooted at a node labeled "input" whose children
	// are the call's parameter subtrees.
	Input *tree.Node
	// Context is the subtree rooted at the parent of the call node. For
	// a call appearing directly under the document root, the context is
	// the whole document.
	Context *tree.Node
	// Docs maps system document names to their current trees.
	//
	// All binding trees (Input, Context, Docs) alias the LIVE system
	// trees for performance: services must treat them as read-only and
	// must return freshly allocated result trees. QueryService respects
	// this by construction (matching is read-only, instantiation
	// copies); custom GoServices must copy anything they retain.
	Docs query.Docs
	// Since, when non-nil, asks for a semi-naive (delta) evaluation: it
	// maps each document name the service's query may read — including
	// the reserved "input" and "context" — to the version the call was
	// last evaluated against. Declarative services then return only
	// results with a witness in the delta appended since (per-node
	// version stamps, see tree.Node.Stamp); monotone services already
	// merged everything older. Names missing from the map are treated as
	// all-new. Black boxes are free to ignore Since — returning the full
	// forest is always correct, merging is idempotent. Middleware must
	// pass the binding through unchanged so wrapped declarative services
	// still see their baseline.
	Since map[string]uint64
	// Indexes optionally maps document names (including the reserved
	// "context") to inverted indexes over the live trees (see
	// pattern.Index and query.Indexes). Purely an accelerator: services
	// are free to ignore it, and results must not depend on its presence.
	// QueryService threads it into its snapshot evaluation.
	Indexes query.Indexes
}

// AllDocs returns the full θ binding including the reserved names.
func (b Binding) AllDocs() query.Docs {
	all := make(query.Docs, len(b.Docs)+2)
	for k, v := range b.Docs {
		all[k] = v
	}
	all[tree.Input] = b.Input
	all[tree.Context] = b.Context
	return all
}

// Service is a Web service as seen by the system: a function from a
// binding of document names to a forest of AXML trees. Implementations
// must be monotone: enlarging any input document (w.r.t. subsumption) may
// only enlarge the result forest. The engine relies on monotonicity for
// confluence (Theorem 2.1) but cannot verify it for black boxes.
type Service interface {
	// ServiceName returns the function name f the service is bound to.
	ServiceName() string
	// Invoke evaluates the service on the binding. The context carries
	// the caller's cancellation and deadline: implementations that wait
	// (on the network, on a backoff timer) must return promptly with
	// ctx.Err() once the context is done, and must not retain ctx beyond
	// the call. The returned forest must consist of freshly allocated
	// trees owned by the caller.
	//
	// When the engine runs with RunOptions.Parallelism > 1, distinct
	// invocations of the same Service may be concurrent; implementations
	// must be safe for concurrent use (stateless services are trivially
	// so).
	Invoke(ctx context.Context, b Binding) (tree.Forest, error)
}

// BatchService is optionally implemented by a service that answers
// several bindings in one exchange: one forest or error per binding, in
// order, each under Invoke's contract. A sweep fires its calls to a
// service whose every layer implements it as one batch (fireBatch).
type BatchService interface {
	Service
	InvokeBatch(ctx context.Context, bs []Binding) ([]tree.Forest, []error)
}

// batchable reports whether every layer of svc's middleware stack
// implements BatchService.
func batchable(svc Service) bool {
	for {
		if _, ok := svc.(BatchService); !ok {
			return false
		}
		w, ok := svc.(Wrapper)
		if !ok || w.Unwrap() == nil {
			return true
		}
		svc = w.Unwrap()
	}
}

// invokeBatch answers bs through svc's InvokeBatch, or by one Invoke per
// binding when svc cannot batch.
func invokeBatch(ctx context.Context, svc Service, bs []Binding) ([]tree.Forest, []error) {
	if b, ok := svc.(BatchService); ok {
		return b.InvokeBatch(ctx, bs)
	}
	fs, errs := make([]tree.Forest, len(bs)), make([]error, len(bs))
	for i, b := range bs {
		fs[i], errs[i] = svc.Invoke(ctx, b)
	}
	return fs, errs
}

// Versioned is optionally implemented by a black-box service whose answer
// is determined by the call's context subtree (which holds the call node,
// hence its input) plus external state that Version names: two calls with
// equal context digests, answered while Version returned the same token,
// return the same forest. The engine reads each such service's token once
// per run, before any of its calls fires, and lets a call skip a later run
// as sterile while both its context digest and the token are unchanged
// since its last merged answer. "" means unknown: the call fires. A token
// read before the evaluation it gates can only be older than the state the
// evaluation saw, so a racing external change makes the call re-fire,
// never skip. peer.RemoteService implements it for declarative remotes.
type Versioned interface {
	Version(ctx context.Context) string
}

// QueryService is a positive service: a service defined by a positive
// query, evaluated under its snapshot semantics at each invocation
// (Section 3.2). Positive services are monotone by Proposition 3.1.
type QueryService struct {
	Query *query.Query
}

// NewQueryService wraps a validated query as a service. The query's Name
// is the function name.
func NewQueryService(q *query.Query) (*QueryService, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if q.Name == "" {
		return nil, fmt.Errorf("core: query service needs a function name")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &QueryService{Query: q}, nil
}

// ServiceName implements Service.
func (s *QueryService) ServiceName() string { return s.Query.Name }

// Invoke evaluates the defining query's snapshot semantics on the binding.
// Evaluation is pure and never blocks, so the context is only consulted on
// entry: an already-cancelled invocation is skipped. When the binding
// carries a Since baseline, only the delta results are computed and
// returned (semi-naive evaluation); monotonicity (Proposition 3.1) makes
// the omitted old results redundant — they were merged at the baseline.
func (s *QueryService) Invoke(ctx context.Context, b Binding) (tree.Forest, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return query.SnapshotSince(s.Query, b.AllDocs(), b.Since, b.Indexes)
}

// IsSimple reports whether the defining query is simple (no tree
// variables).
func (s *QueryService) IsSimple() bool { return s.Query.IsSimple() }

// GoService is a black-box monotone service implemented by an arbitrary Go
// function, modelling remote Web services whose definitions are unknown
// (the "black-box" view of Section 2.2). The engine treats it as opaque:
// analyses that need declarative definitions (dependency graphs, regular
// representations) reject systems containing GoServices.
type GoService struct {
	// Name is the function name the service answers to.
	Name string
	// Fn computes the result forest. It must be monotone and must return
	// fresh trees; implementations that wait should honor ctx
	// cancellation. Under a parallel run Fn may be called concurrently,
	// so any state it captures must be synchronized.
	Fn func(ctx context.Context, b Binding) (tree.Forest, error)
}

// ServiceName implements Service.
func (s *GoService) ServiceName() string { return s.Name }

// Invoke implements Service.
func (s *GoService) Invoke(ctx context.Context, b Binding) (tree.Forest, error) {
	return s.Fn(ctx, b)
}

// ConstService returns a black-box service that always returns (a copy of)
// the given forest, the simplest monotone service. Useful in tests and as
// the paper's Example 2.1 service.
func ConstService(name string, result tree.Forest) *GoService {
	return &GoService{Name: name, Fn: func(context.Context, Binding) (tree.Forest, error) {
		return result.Copy(), nil
	}}
}
