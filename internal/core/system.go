package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"axml/internal/pattern"
	"axml/internal/query"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// System is a monotone AXML system (D, F, I) of Definition 2.3: a finite
// set of named documents and a finite set of named services. Documents are
// owned by the system and mutated by invocations; take Copy before running
// if the original state matters.
type System struct {
	docNames  []string
	docs      map[string]*tree.Document
	funcNames []string
	funcs     map[string]Service
	// docVersion counts the strictly-growing invocations applied to each
	// document. Services are deterministic monotone functions of the
	// documents they read, so a call whose relevant versions are
	// unchanged since its last attempt cannot bring anything new — the
	// engine uses this to skip provably-sterile attempts.
	docVersion map[string]uint64
	// onMutate observes every growth: appendAt (invocations, Append,
	// Restore) hands it the path and the fresh trees, Touch, Restore's
	// seed adoption and AddDocument report a whole-document change.
	// Durability layers register here to journal what grew without
	// reaching into the engine.
	onMutate func(doc string, path []GraftStep, fresh tree.Forest)
	// indexes holds one inverted index per document (see pattern.Index),
	// built by the first match that reads it, maintained incrementally by
	// appendAt (documents only grow) and replaced by an unbuilt one by
	// Touch and when Restore adopts a tree. A document without an entry
	// is matched by the naive walk, with identical results. retired holds
	// the counters of the replaced indexes, so IndexStats never goes back.
	indexes map[string]*pattern.Index
	retired struct{ hits, misses, builds uint64 }
	// engineMu is the version funnel: RunContext evaluates services under
	// the read side (any number of invocations in flight) and merges
	// results — the only tree mutations a run performs — under the write
	// side. It lives on the System so concurrent runs over the same
	// system serialize their merges against each other, not just within
	// one run. It is not a sync.RWMutex: each schedule acquires the read
	// side with the discipline it can afford (see rwLock). Code outside a
	// run joins the funnel through View and Update; the primitives —
	// Append, Restore, Touch, AddDocument, AddService, the accessors — take
	// no lock and, on a system other goroutines reach, run inside those.
	engineMu rwLock
	// gate is the committed sterile-call gate, shared by every run on the
	// system: call node → the gate of that call's last attempt whose merge
	// ran (engine.commit writes it there and nowhere else). A run's first
	// look at a call falls back to it, so a call whose read state has not
	// moved since its last merged answer is skipped across runs too, and
	// its first re-evaluation is already a delta. Only declarative calls
	// and Versioned calls with a known token have one. gateMu is a leaf
	// lock, never held across an evaluation.
	gateMu sync.Mutex
	gate   map[*tree.Node]gate
}

// View runs fn under the read side of the version funnel: fn may read the
// live trees and the document and service tables beside any number of
// views and evaluations; no merge or Update runs meanwhile. It acquires
// with reader preference (rwLock.RLock) — it waits out an ACTIVE writer,
// never a queued one — so a view is admitted while another reader sleeps
// on the network, even on a call that leads back here. fn must not mutate.
func (s *System) View(fn func()) {
	s.engineMu.RLock()
	defer s.engineMu.RUnlock()
	fn()
}

// Update runs fn under the write side, exclusive against every evaluation,
// view, merge and other Update: the place for Append, Restore, Touch,
// AddDocument and AddService on a live system. fn must not start a run or
// nest View or Update (the lock is not reentrant), nor wait on anything
// slower than local I/O: every reader queues behind it.
func (s *System) Update(fn func()) {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	fn()
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{
		docs:       make(map[string]*tree.Document),
		funcs:      make(map[string]Service),
		docVersion: make(map[string]uint64),
		indexes:    make(map[string]*pattern.Index),
		gate:       make(map[*tree.Node]gate),
	}
}

// AddDocument adds a named document. Reserved names and duplicates are
// rejected; the root must be a data node (Definition 2.1(ii)).
func (s *System) AddDocument(d *tree.Document) error {
	if d == nil || d.Root == nil {
		return fmt.Errorf("core: nil document")
	}
	if d.Name == tree.Input || d.Name == tree.Context {
		return tree.ErrReservedName
	}
	if _, dup := s.docs[d.Name]; dup {
		return fmt.Errorf("core: duplicate document %q", d.Name)
	}
	if err := d.Root.Validate(); err != nil {
		return err
	}
	if d.Root.Kind == tree.Func {
		return fmt.Errorf("core: document %q has a function node as root; roots carry labels or values", d.Name)
	}
	// Documents are identified with their reduced versions (Section 2.1);
	// the engine maintains reduction as an invariant from here on.
	subsume.ReduceInPlace(d.Root)
	s.docNames = append(s.docNames, d.Name)
	s.docs[d.Name] = d
	s.reindex(d.Name)
	if s.onMutate != nil { // a document added to a live system is news
		s.onMutate(d.Name, nil, nil)
	}
	return nil
}

// reindex installs a fresh, unbuilt index of the named document, folding
// the replaced one's counters into retired. Used on document addition,
// by Touch and when Restore adopts a root or a tree; appendAt maintains
// the index incrementally instead.
func (s *System) reindex(name string) {
	if doc := s.docs[name]; doc != nil {
		old := s.indexes[name] // nil for a new document: its counters are 0
		h, m := old.Stats()
		s.retired.hits += h
		s.retired.misses += m
		s.retired.builds += old.Builds()
		s.indexes[name] = pattern.NewIndex(doc.Root)
	}
}

// Index returns the named document's inverted index, or nil for an
// unknown name.
func (s *System) Index(name string) *pattern.Index { return s.indexes[name] }

// IndexStats sums the hit/miss counters across all document indexes,
// the replaced ones included: matches answered through an index versus
// matches that fell back to the naive walk on a present index. Monotone.
func (s *System) IndexStats() (hits, misses uint64) {
	hits, misses = s.retired.hits, s.retired.misses
	for _, ix := range s.indexes {
		h, m := ix.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// IndexBuilds counts the document indexes a match has built, the
// replaced ones included. Monotone.
func (s *System) IndexBuilds() uint64 {
	n := s.retired.builds
	for _, ix := range s.indexes {
		n += ix.Builds()
	}
	return n
}

// AddService registers a service under its function name.
func (s *System) AddService(svc Service) error {
	if svc == nil {
		return fmt.Errorf("core: nil service")
	}
	name := svc.ServiceName()
	if name == "" {
		return fmt.Errorf("core: service with empty name")
	}
	if _, dup := s.funcs[name]; dup {
		return fmt.Errorf("core: duplicate service %q", name)
	}
	s.funcNames = append(s.funcNames, name)
	s.funcs[name] = svc
	return nil
}

// AddQuery registers a positive service defined by the query (whose Name
// is the function name).
func (s *System) AddQuery(q *query.Query) error {
	svc, err := NewQueryService(q)
	if err != nil {
		return err
	}
	return s.AddService(svc)
}

// FromSpec builds a system from a parsed system file.
func FromSpec(spec *syntax.SystemSpec) (*System, error) {
	s := NewSystem()
	for _, d := range spec.Docs {
		if err := s.AddDocument(d); err != nil {
			return nil, err
		}
	}
	for _, q := range spec.Funcs {
		if err := s.AddQuery(q); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseSystem parses a system file and builds the system.
func ParseSystem(src string) (*System, error) {
	spec, err := syntax.ParseSystem(src)
	if err != nil {
		return nil, err
	}
	return FromSpec(spec)
}

// MustParseSystem is ParseSystem panicking on error, for tests.
func MustParseSystem(src string) *System {
	s, err := ParseSystem(src)
	if err != nil {
		panic(err)
	}
	return s
}

// DocNames returns the document names in insertion order.
func (s *System) DocNames() []string { return append([]string(nil), s.docNames...) }

// FuncNames returns the service names in insertion order.
func (s *System) FuncNames() []string { return append([]string(nil), s.funcNames...) }

// Document returns the named document, or nil.
func (s *System) Document(name string) *tree.Document { return s.docs[name] }

// Service returns the named service, or nil.
func (s *System) Service(name string) Service { return s.funcs[name] }

// Docs returns the current document binding (live trees; do not modify).
func (s *System) Docs() query.Docs {
	d := make(query.Docs, len(s.docs))
	for name, doc := range s.docs {
		d[name] = doc.Root
	}
	return d
}

// Touch records a by-hand edit of the named document's tree, bumping its
// version so the sterile-call gate re-examines services that read it.
// The whole document is restamped at the new version: a by-hand edit
// gives no delta bookkeeping, so the only sound baseline for later
// incremental evaluations is "everything here is new". It is the escape
// hatch for callers that write Children themselves; data arriving from
// elsewhere goes through Append or Restore, which keep the bookkeeping.
// The edit must leave the document reduced (the invariant every append
// relies on). Unknown names are ignored. On a live system both the edit
// and the Touch belong inside one Update.
func (s *System) Touch(name string) {
	doc, ok := s.docs[name]
	if !ok {
		return
	}
	s.bumpVersion(name)
	doc.Root.StampAll(s.docVersion[name])
	// A by-hand edit may have restructured the tree arbitrarily; the
	// incremental index maintenance only covers appendAt. Start afresh.
	s.reindex(name)
	if s.onMutate != nil {
		s.onMutate(name, nil, nil)
	}
}

// GraftStep names one node of a graft's path below the document root as
// it was before the graft: its marking and its subtree digest. In a
// reduced document no two siblings share a digest, so the steps resolve
// the path from the root one child at a time.
type GraftStep struct {
	Kind   tree.Kind
	Name   string
	Digest tree.Hash
}

// SetMutationHook registers fn to observe every growth of a document. A
// graft reports the steps of its path below the root (empty for a graft
// at the root) and the fresh trees it appended, which the document owns
// and later grafts may grow or detach. A nil fresh forest means the whole
// document changed: a by-hand edit (Touch), a seed adoption in Restore or
// a document added (AddDocument). One hook at a time; nil unregisters.
// The hook runs synchronously inside the mutating operation, so it must
// be cheap, must not keep the live trees and must not mutate the system.
func (s *System) SetMutationHook(fn func(doc string, path []GraftStep, fresh tree.Forest)) {
	s.onMutate = fn
}

// bumpVersion advances a document's version. Every mutating path funnels
// through here.
func (s *System) bumpVersion(name string) {
	s.docVersion[name]++
}

// Restore merges a recovered tree into the named document as the least
// upper bound of the two (Section 2.1), reporting whether the document
// grew. Monotonicity makes this the universally safe recovery primitive:
// replaying a journal record twice, applying records out of order, or
// restoring over a document that already advanced past the record can
// only re-add information, never lose or corrupt it (Theorem 2.1). It is
// appendAt at the root: only the trees the document did not hold are
// stamped new, and a changed document has its version bumped so the
// sterile-call gate re-examines services that read it. It takes no lock:
// on a live system call it inside Update.
//
// Restore takes ownership of root. Into a document that holds nothing
// yet — a childless root, as every recovery and replica seed is — the
// least upper bound is the reduced incoming tree (Proposition 2.1), so
// Restore adopts it: root is reduced in place, its children stamped with
// one new version and installed under the existing root node, an unbuilt
// index installed, and the hook told the growth appendAt would report.
func (s *System) Restore(name string, root *tree.Node) (changed bool, err error) {
	doc, ok := s.docs[name]
	if !ok {
		return false, fmt.Errorf("core: restore of unknown document %q", name)
	}
	if root == nil {
		return false, fmt.Errorf("core: restore of %q with nil tree", name)
	}
	if !doc.Root.SameMarking(root) {
		if doc.Root.Kind != tree.Label || root.Kind != tree.Label ||
			len(doc.Root.Children) != 0 {
			return false, fmt.Errorf("core: restore of %q: incomparable roots %q vs %q",
				name, doc.Root.Name, root.Name)
		}
		// A childless label root is a replica seed created before the
		// remote marking was known (peer.NewReplicaDoc with a guessed
		// label); it carries no information, so adopt the incoming
		// marking instead of refusing the restore — on the same node, so
		// whatever holds the root (a Subscriber's registration) keeps
		// it. The renamed root is itself new data: a pattern may match it
		// that did not match the guess.
		doc.Root.Name = root.Name
		doc.Root.InvalidateDigest()
		s.bumpVersion(name)
		doc.Root.Stamp = s.docVersion[name]
		s.reindex(name)
		if s.onMutate != nil {
			s.onMutate(name, nil, nil)
		}
		changed = true
	}
	if at := doc.Root; len(at.Children) == 0 {
		if subsume.ReduceInPlace(root); len(root.Children) == 0 {
			return changed, nil
		}
		s.bumpVersion(name)
		for _, c := range root.Children {
			c.Restamp(s.docVersion[name])
		}
		at.Children = root.Children
		at.InvalidateDigest()
		at.MarkReduced()
		s.reindex(name)
		if s.onMutate != nil {
			s.onMutate(name, nil, slices.Clone(at.Children))
		}
		return true, nil
	}
	fresh, _ := s.appendAt(name, []*tree.Node{doc.Root}, root.Children)
	return changed || len(fresh) > 0, nil
}

// RestoreAll is Restore of each document in order, after reducing every
// tree bound for a document that holds nothing yet (the bulk of a
// recovery's work) in parallel, by FanOut: Restore then finds them
// reduced. Like Restore it takes ownership of the trees and no lock.
func (s *System) RestoreAll(docs []*tree.Document) error {
	var adopt []*tree.Node
	seen := make(map[string]bool, len(docs))
	for _, d := range docs {
		if doc := s.docs[d.Name]; doc != nil && !seen[d.Name] && len(doc.Root.Children) == 0 {
			adopt = append(adopt, d.Root)
		}
		seen[d.Name] = true
	}
	FanOut(len(adopt), func(i int) { subsume.ReduceInPlace(adopt[i]) })
	for _, d := range docs {
		if _, err := s.Restore(d.Name, d.Root); err != nil {
			return err
		}
	}
	return nil
}

// LockContention reports how many version-funnel acquisitions had to
// wait since the system was built: readerWaits counts evaluations that
// found a merge in progress, writerWaits counts merges that queued
// behind evaluations or another merge. Monotone; the engine reports
// per-run deltas in RunResult.Stats.
func (s *System) LockContention() (readerWaits, writerWaits uint64) {
	return s.engineMu.contention()
}

// Size returns the total number of nodes across all documents.
func (s *System) Size() int {
	n := 0
	for _, d := range s.docs {
		n += d.Root.Size()
	}
	return n
}

// CountCalls returns the number of function nodes across all documents.
func (s *System) CountCalls() int {
	n := 0
	for _, d := range s.docs {
		n += d.Root.CountFunc()
	}
	return n
}

// Copy deep-copies the documents; services are shared (they are stateless
// by contract). The mutation hook and the committed gate do not carry
// over — they belong to one concrete system's nodes, not its forks.
func (s *System) Copy() *System {
	c := NewSystem()
	for _, name := range s.docNames {
		c.docNames = append(c.docNames, name)
		c.docs[name] = s.docs[name].Copy()
		c.docVersion[name] = s.docVersion[name]
		c.reindex(name) // indexes hold node pointers; never share across copies
	}
	for _, name := range s.funcNames {
		c.funcNames = append(c.funcNames, name)
		c.funcs[name] = s.funcs[name]
	}
	return c
}

// CanonicalString renders every document canonically, sorted by name. Two
// systems over the same names are equivalent (documents pairwise
// equivalent) iff the canonical strings of their reduced forms are equal.
func (s *System) CanonicalString() string {
	names := append([]string(nil), s.docNames...)
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(name)
		b.WriteByte('/')
		b.WriteString(s.docs[name].Root.CanonicalString())
	}
	return b.String()
}

// Validate checks cross-references: every function name used in a document
// or produced/queried by a positive service is defined, and positive
// services only read defined document names (or the reserved ones).
func (s *System) Validate() error {
	for _, name := range s.docNames {
		var err error
		s.docs[name].Root.Walk(func(n, _ *tree.Node) bool {
			if n.Kind == tree.Func {
				if _, ok := s.funcs[n.Name]; !ok {
					err = fmt.Errorf("core: document %q calls undefined service %q", name, n.Name)
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	for _, fname := range s.funcNames {
		qs, ok := s.funcs[fname].(*QueryService)
		if !ok {
			continue
		}
		for _, docName := range qs.Query.DocNames() {
			if docName == tree.Input || docName == tree.Context {
				continue
			}
			if _, ok := s.docs[docName]; !ok {
				return fmt.Errorf("core: service %q reads undefined document %q", fname, docName)
			}
		}
		for _, used := range queryFuncNames(qs.Query) {
			if _, ok := s.funcs[used]; !ok {
				return fmt.Errorf("core: service %q mentions undefined service %q", fname, used)
			}
		}
	}
	return nil
}

// IsPositive reports whether every service is a QueryService (a positive
// system, Section 3.2).
func (s *System) IsPositive() bool {
	for _, name := range s.funcNames {
		if _, ok := s.funcs[name].(*QueryService); !ok {
			return false
		}
	}
	return true
}

// IsSimple reports whether the system is positive and every service query
// is simple (a simple positive system).
func (s *System) IsSimple() bool {
	for _, name := range s.funcNames {
		qs, ok := s.funcs[name].(*QueryService)
		if !ok || !qs.IsSimple() {
			return false
		}
	}
	return true
}

// queryFuncNames collects constant function names mentioned anywhere in a
// query (head or body patterns), sorted.
func queryFuncNames(q *query.Query) []string {
	names := map[string]bool{}
	collectFuncNames(q.Head, names)
	for _, a := range q.Body {
		collectFuncNames(a.Pattern, names)
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func collectFuncNames(p *pattern.Node, dst map[string]bool) {
	if p == nil {
		return
	}
	if p.Kind == pattern.ConstFunc {
		dst[p.Name] = true
	}
	for _, c := range p.Children {
		collectFuncNames(c, dst)
	}
}
