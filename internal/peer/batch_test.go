package peer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/faults"
	"axml/internal/obs"
	"axml/internal/syntax"
	"axml/internal/tree"
	"axml/internal/workload"
)

// hosted serves a fixture's service under another name, so the fixture's
// own calls can reach it through a RemoteService of the original name.
type hosted struct {
	core.Service
	name string
}

func (h hosted) ServiceName() string  { return h.name }
func (h hosted) Unwrap() core.Service { return h.Service }

// single hides a service's InvokeBatch (it is no BatchService, so the
// stack is not batchable): its calls fire one request each.
type single struct{ core.Service }

func (s single) Unwrap() core.Service { return s.Service }

// loopback rebuilds fixture as a peer whose every call goes over HTTP to
// the peer itself: each service f is hosted as "host_f", and f is a
// RemoteService at the peer's own URL, wrapped by wrap.
func loopback(t *testing.T, fixture *core.System, wrap func(core.Service) core.Service) *Peer {
	t.Helper()
	s := core.NewSystem()
	for _, name := range fixture.DocNames() {
		if err := s.AddDocument(fixture.Document(name).Copy()); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range fixture.FuncNames() {
		if err := s.AddService(hosted{fixture.Service(name), "host_" + name}); err != nil {
			t.Fatal(err)
		}
	}
	p := mustOpen("loop", s)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	p.System(func(s *core.System) {
		for _, name := range fixture.FuncNames() {
			if err := s.AddService(wrap(&RemoteService{Name: name, Service: "host_" + name, URL: srv.URL})); err != nil {
				t.Fatal(err)
			}
		}
	})
	return p
}

// canonical is the canonical form of the peer's documents.
func canonical(p *Peer) (out string) {
	p.System(func(s *core.System) { out = s.CanonicalString() })
	return out
}

// The batched fixpoint is the unbatched one, and both are the single-site
// fixpoint: the engine fixtures (the jazz portal and terminating random
// simple systems) with every call a remote call on loopback, run under
// RoundRobin and seeded Random. Theorem 2.1 is what is being checked:
// batching only groups firings.
func TestBatchedFixpointMatchesUnbatched(t *testing.T) {
	fixtures := map[string]*core.System{
		"jazz": workload.JazzSystem(rand.New(rand.NewSource(1)), workload.JazzConfig{CDs: 8}),
	}
	for seed := int64(1); len(fixtures) < 5 && seed < 40; seed++ {
		s := workload.RandomSimpleSystem(rand.New(rand.NewSource(seed)), workload.SystemConfig{})
		if res := s.Copy().Run(core.RunOptions{Parallelism: 1, MaxSteps: 500}); res.Terminated && res.Steps > 0 {
			fixtures[fmt.Sprint("simple-", seed)] = s
		}
	}
	batches := 0
	for name, fixture := range fixtures {
		oracle := fixture.Copy()
		if res := oracle.Run(core.RunOptions{Parallelism: 1}); !res.Terminated {
			t.Fatalf("%s: the single-site run did not terminate", name)
		}
		want := oracle.CanonicalString()
		for sched, order := range map[string]func() core.Scheduler{
			"roundrobin": func() core.Scheduler { return core.RoundRobin{} },
			"random-1":   func() core.Scheduler { return core.NewRandom(1) },
			"random-2":   func() core.Scheduler { return core.NewRandom(2) },
		} {
			for _, batched := range []bool{true, false} {
				wrap := func(svc core.Service) core.Service { return single{svc} }
				if batched {
					wrap = func(svc core.Service) core.Service { return svc }
				}
				p := loopback(t, fixture, wrap)
				res := p.system.RunContext(context.Background(), core.RunOptions{Parallelism: 1, Scheduler: order()})
				if res.Err != nil || !res.Terminated {
					t.Fatalf("%s %s batched=%v: %+v", name, sched, batched, res)
				}
				if got := canonical(p); got != want {
					t.Fatalf("%s %s batched=%v: fixpoint\n%s\nwant the single-site\n%s", name, sched, batched, got, want)
				}
				if !batched && res.Stats.Batches != 0 {
					t.Fatalf("%s: an unbatchable stack sent %d batches", name, res.Stats.Batches)
				}
				if batched {
					batches += res.Stats.Batches
				}
			}
		}
	}
	if batches == 0 {
		t.Fatal("no fixture sent a batch")
	}
}

// The store + portal pair of the batch tests: three nodes on a cycle.
const (
	batchEdges  = `doc edges = g{e{from{"a"},to{"b"}},e{from{"b"},to{"c"}},e{from{"c"},to{"a"}}}` + "\n"
	batchPortal = `doc portal = p{node{name{"a"},!succ},node{name{"b"},!succ},node{name{"c"},!succ}}
doc view = v{!collect}
func collect = hop{from{$x},to{$y}} :- portal/p{node{name{$x},next{$y}}}
`
)

// batchFleet configures the store + portal pair: the store serves succ
// wrapped by storeSvc, behind handler wrap, opened with storeOpts; the
// portal binds succ through remote(url), opened with portalOpts. A nil
// function is the identity (remote: a plain RemoteService).
type batchFleet struct {
	storeSvc              func(core.Service) core.Service
	wrap                  func(http.Handler) http.Handler
	remote                func(url string) core.Service
	storeOpts, portalOpts []Option
}

func (f batchFleet) start(t *testing.T) (store, portal *Peer) {
	t.Helper()
	storeSys := core.MustParseSystem(batchEdges)
	succ := core.MustParseSystem(batchEdges + gateStoreSucc).Service("succ")
	if f.storeSvc != nil {
		succ = f.storeSvc(succ)
	}
	if err := storeSys.AddService(succ); err != nil {
		t.Fatal(err)
	}
	store = mustOpen("store", storeSys, f.storeOpts...)
	var h http.Handler = store.Handler()
	if f.wrap != nil {
		h = f.wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	spec, err := syntax.ParseSystem(batchPortal)
	if err != nil {
		t.Fatal(err)
	}
	portalSys := core.NewSystem()
	for _, d := range spec.Docs {
		if err := portalSys.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range spec.Funcs {
		if err := portalSys.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	var remote core.Service = &RemoteService{Name: "succ", URL: srv.URL}
	if f.remote != nil {
		remote = f.remote(srv.URL)
	}
	if err := portalSys.AddService(remote); err != nil {
		t.Fatal(err)
	}
	return store, mustOpen("portal", portalSys, f.portalOpts...)
}

// settle sweeps the portal until a sweep changes nothing and fails
// nothing; a sweep may fail on the way.
func settle(t *testing.T, portal *Peer) {
	t.Helper()
	for i := 0; ; i++ {
		if i == 10 {
			t.Fatal("portal did not settle")
		}
		if changed, err := portal.Sweep(); err == nil && !changed {
			return
		}
	}
}

// batchSingleSite is the portal's single-site fixpoint.
func batchSingleSite(t *testing.T) string {
	t.Helper()
	s := core.MustParseSystem(batchEdges + gateStoreSucc + batchPortal)
	if res := s.Run(core.RunOptions{Parallelism: 1}); !res.Terminated {
		t.Fatalf("single-site run: %+v", res)
	}
	return s.Document("portal").Root.CanonicalString() + "/" + s.Document("view").Root.CanonicalString()
}

// Under Degrade, members of a batch the store fails (a FaultService
// behind the store's succ) fail alone: the others merge in the same
// sweep, the failed ones are retried on the next, and the portal reaches
// the single-site fixpoint.
func TestBatchDegradeRetriesFailedMembers(t *testing.T) {
	_, portal := batchFleet{
		storeSvc:   func(svc core.Service) core.Service { return &faults.FaultService{Service: svc, ErrorEvery: 2} },
		portalOpts: []Option{WithErrorPolicy(core.Degrade)},
	}.start(t)
	changed, err := portal.Sweep()
	if err != nil || !changed {
		t.Fatalf("first sweep: changed %v, err %v", changed, err)
	}
	if st := portal.Stats(); st.Failures != 1 || st.CallsBatched != 3 {
		t.Fatalf("first sweep: %+v; want one batch of 3 calls, b's failed", st)
	}
	want := syntax.MustParseDocument(`p{node{name{"a"},!succ,next{"b"}},node{name{"b"},!succ},node{name{"c"},!succ,next{"a"}}}`)
	portal.System(func(s *core.System) {
		if got := s.Document("portal").Root; !tree.Isomorphic(got, want) {
			t.Fatalf("portal after a partly failed batch: %s", got.CanonicalString())
		}
	})
	settle(t, portal)
	if got, want := portalState(portal), batchSingleSite(t); got != want {
		t.Fatalf("portal:\n%s\nwant the single-site run\n%s", got, want)
	}
}

// Under FailFast the batch keeps the sweep's order semantics: the members
// before the first failing one merge, and none after it.
func TestBatchFailFastStopsAtFirstFailure(t *testing.T) {
	_, portal := batchFleet{
		storeSvc: func(svc core.Service) core.Service { return &faults.FaultService{Service: svc, ErrorEvery: 2} },
	}.start(t)
	if _, err := portal.Sweep(); err == nil || !strings.Contains(err.Error(), "invocation 2") {
		t.Fatalf("sweep error %v; want b's injected failure", err)
	}
	want := syntax.MustParseDocument(`p{node{name{"a"},!succ,next{"b"}},node{name{"b"},!succ},node{name{"c"},!succ}}`)
	portal.System(func(s *core.System) {
		if got := s.Document("portal").Root; !tree.Isomorphic(got, want) {
			t.Fatalf("portal after a fail-fast batch: %s", got.CanonicalString())
		}
	})
}

// A hardened remote (Breaker{Retry{RemoteService}}) is batchable: a
// sweep's three calls are one /axml/invoke request. Once the store fails
// every exchange — its /axml/hash probes too, so the calls are not
// sterile — each sweep's batch is retried as a whole and counts once
// against the breaker; the open breaker short-circuits a whole batch
// without a request.
func TestBatchThroughHardenedRemote(t *testing.T) {
	reg, portalReg := obs.NewRegistry(), obs.NewRegistry()
	var failing atomic.Bool
	requests := func() int64 { return reg.Counter("peer.http.requests.invoke").Value() }
	var hardened core.Service
	_, portal := batchFleet{
		wrap: func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !failing.Load() {
					h.ServeHTTP(w, r)
					return
				}
				if r.URL.Path == PathInvoke {
					reg.Counter("peer.http.requests.invoke").Inc()
				}
				http.Error(w, "down", http.StatusServiceUnavailable)
			})
		},
		remote: func(url string) core.Service {
			hardened = core.Harden(&RemoteService{Name: "succ", URL: url},
				core.HardenOptions{Attempts: 3, BaseDelay: time.Millisecond, BreakerOpensAt: 5})
			return hardened
		},
		storeOpts:  []Option{WithObservability(reg)},
		portalOpts: []Option{WithObservability(portalReg)},
	}.start(t)
	if _, err := portal.Sweep(); err != nil {
		t.Fatal(err)
	}
	if got := requests(); got != 1 {
		t.Fatalf("a sweep of three calls sent %d invoke requests; want one batch", got)
	}
	if b, c := portalReg.Counter("engine.batches").Value(), portalReg.Counter("engine.calls.batched").Value(); b != 1 || c != 3 {
		t.Fatalf("engine.batches %d, engine.calls.batched %d; want 1 and 3", b, c)
	}
	if st := portal.Status(); st.CallsBatched != 3 {
		t.Fatalf("status calls_batched %d, want 3", st.CallsBatched)
	}

	failing.Store(true)
	br := hardened.(*core.Breaker)
	for i := 0; br.State() != "open"; i++ {
		if i == 10 {
			t.Fatal("the breaker never opened")
		}
		before := requests()
		if _, err := portal.Sweep(); err == nil {
			t.Fatal("a sweep against a failing store succeeded")
		}
		if sent := requests() - before; sent != 3 {
			t.Fatalf("a retried batch sent %d requests; want one per attempt", sent)
		}
	}
	before, short := requests(), br.ShortCircuits()
	if _, err := portal.Sweep(); !errors.Is(err, core.ErrBreakerOpen) {
		t.Fatalf("sweep at an open breaker: %v", err)
	}
	if requests() != before || br.ShortCircuits() != short+3 {
		t.Fatalf("an open breaker sent %d requests and short-circuited %d calls; want 0 and 3",
			requests()-before, br.ShortCircuits()-short)
	}
}

// A batch over the store's WithLimits cap is refused with 413 and re-sent
// as halves: every call is answered, in more than one request.
func TestBatchOverLimitSplits(t *testing.T) {
	env, err := MarshalEnvelope(Envelope{Service: "succ", Input: tree.NewLabel(tree.Input),
		Context: syntax.MustParseDocument(`node{name{"a"},!succ}`)})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, portal := batchFleet{storeOpts: []Option{WithLimits(int64(2 * len(env))), WithObservability(reg)}}.start(t)
	changed, err := portal.Sweep()
	if err != nil || !changed {
		t.Fatalf("sweep over the limit: changed %v, err %v", changed, err)
	}
	if st := portal.Stats(); st.Failures != 0 || st.CallsBatched != 3 {
		t.Fatalf("%+v: every call of the batch must be answered", st)
	}
	if n := reg.Counter("peer.http.requests.invoke").Value(); n < 2 {
		t.Fatalf("%d invoke requests; the batch was not split", n)
	}
	(&gateFleet{portal: portal}).quiesce(t)
	if got, want := portalState(portal), batchSingleSite(t); got != want {
		t.Fatalf("portal:\n%s\nwant the single-site run\n%s", got, want)
	}
}

// A batch answered by a service the store cannot see into names no read
// set: one black box makes the whole answer a black box's. A declarative
// service's batch answer names its read set.
func TestBatchAnswerReadsOnlyWhenDeclarative(t *testing.T) {
	storeSys := core.MustParseSystem(batchEdges + gateStoreSucc)
	if err := storeSys.AddService(opaque{hosted{storeSys.Service("succ"), "box"}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mustOpen("store", storeSys).Handler())
	defer srv.Close()
	ctx := func(x string) *tree.Node { return syntax.MustParseDocument(`node{name{"` + x + `"}}`) }
	for _, c := range []struct {
		services []string
		want     []string
	}{
		{[]string{"succ", "succ"}, []string{"edges"}},
		{[]string{"box", "box"}, nil},
		{[]string{"succ", "box"}, nil},
	} {
		body, err := marshalBatch([]Envelope{{Service: c.services[0], Context: ctx("a")}, {Service: c.services[1], Context: ctx("b")}})
		if err != nil {
			t.Fatal(err)
		}
		data, hdr := rawCall(t, http.MethodPost, srv.URL+PathInvoke, body)
		if got := hdr.Values(headerReads); len(got) != len(c.want) || (len(got) > 0 && got[0] != c.want[0]) {
			t.Fatalf("%v: %s = %q, want %q", c.services, headerReads, got, c.want)
		}
		answers, err := UnmarshalAnswers(data)
		if err != nil || len(answers) != 2 || answers[0].Err != nil || answers[1].Err != nil {
			t.Fatalf("%v: answers %+v, %v", c.services, answers, err)
		}
	}
}

// A batch answer's bytes are the answers a lone invoke of each envelope
// gets, whether served from the memo or evaluated; an unknown service
// fails alone, as an ax:error in its place.
func TestBatchAnswersMatchLoneInvokes(t *testing.T) {
	p := mustOpen("memo", memoSystem(t))
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	envs := append(memoEnvelopes[:len(memoEnvelopes):len(memoEnvelopes)], Envelope{Service: "Nope"})
	body, err := marshalBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := rawCall(t, http.MethodPost, srv.URL+PathInvoke, body)
	answers, err := UnmarshalAnswers(data)
	if err != nil || len(answers) != len(envs) {
		t.Fatalf("answers %d, %v", len(answers), err)
	}
	for i, env := range envs[:len(envs)-1] {
		lone, _ := invokeRaw(t, srv.URL, env)
		if got := mustForest(t, answers[i].Forest); answers[i].Err != nil || !bytes.Equal(got, lone) {
			t.Fatalf("%s: batch answered %s (%v), a lone invoke %s", env.Service, got, answers[i].Err, lone)
		}
	}
	if err := answers[len(envs)-1].Err; err == nil || !strings.Contains(err.Error(), `unknown service "Nope"`) {
		t.Fatalf("unknown service answered %v", err)
	}
	if again, err := marshalAnswers(answers); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("served answers\n%s\nre-encode as\n%s (%v)", data, again, err)
	}
}

// The self-call and peer-cycle regressions, with two calls each: the
// sweep sends them as one batch, whose envelopes reach this peer again
// while the sweep's evaluation holds the read side.
func TestSelfCallBatchNoDeadlock(t *testing.T) {
	for _, timeout := range []bool{false, true} {
		sys := core.NewSystem()
		if err := sys.AddService(core.ConstService("echo", tree.Forest{tree.NewLabel("pong")})); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{!SelfEcho,b{!SelfEcho}}`))); err != nil {
			t.Fatal(err)
		}
		p := mustOpen("loop", sys)
		srv := httptest.NewServer(p.Handler())
		var svc core.Service = &RemoteService{Name: "SelfEcho", Service: "echo", URL: srv.URL}
		if timeout {
			svc = &core.Timeout{Service: svc, Limit: 2 * time.Second}
		}
		p.System(func(s *core.System) {
			if err := s.AddService(svc); err != nil {
				t.Fatal(err)
			}
		})
		if !sweepWithin(t, p, 15*time.Second) {
			t.Fatal("self-call sweep changed nothing")
		}
		if st := p.Stats(); st.CallsBatched != 2 || st.Served != 2 {
			t.Fatalf("timeout %v: %+v; want one batch of the two calls", timeout, st)
		}
		srv.Close()
	}
}

func TestPeerCycleBatchNoDeadlock(t *testing.T) {
	sysA := core.NewSystem()
	if err := sysA.AddService(core.ConstService("answer", tree.Forest{syntax.MustParseDocument(`deep{"42"}`)})); err != nil {
		t.Fatal(err)
	}
	if err := sysA.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`a{!AskB,b{!AskB}}`))); err != nil {
		t.Fatal(err)
	}
	pA := mustOpen("A", sysA)
	srvA := httptest.NewServer(pA.Handler())
	defer srvA.Close()
	pB := mustOpen("B", core.NewSystem())
	srvB := httptest.NewServer(pB.Handler())
	defer srvB.Close()
	pB.System(func(s *core.System) {
		if err := s.AddService(&RemoteService{Name: "relay", Service: "answer", URL: srvA.URL}); err != nil {
			t.Fatal(err)
		}
	})
	pA.System(func(s *core.System) {
		if err := s.AddService(&RemoteService{Name: "AskB", Service: "relay", URL: srvB.URL}); err != nil {
			t.Fatal(err)
		}
	})
	if !sweepWithin(t, pA, 15*time.Second) {
		t.Fatal("cycle sweep changed nothing")
	}
	want := syntax.MustParseDocument(`a{!AskB,deep{"42"},b{!AskB,deep{"42"}}}`)
	pA.System(func(s *core.System) {
		if !tree.Isomorphic(s.Document("d").Root, want) {
			t.Fatalf("doc = %s", s.Document("d").Root.CanonicalString())
		}
	})
	if pA.Stats().CallsBatched != 2 || pB.Stats().Served != 2 {
		t.Fatalf("A %+v, B %+v; want one batch of two calls", pA.Stats(), pB.Stats())
	}
}

// TestBatchWireGolden pins a batch request's bytes and the ratings peer's
// answer to it (testdata/batch.xml, testdata/answers.xml): the codec
// writes the request, the peer serves the answer — three forests, one
// empty, and an unknown service's ax:error — with the answered read set,
// and both decode and re-encode to the same bytes.
func TestBatchWireGolden(t *testing.T) {
	req, err := os.ReadFile(filepath.Join("testdata", "batch.xml"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "answers.xml"))
	if err != nil {
		t.Fatal(err)
	}
	envs := []Envelope{
		{Service: "GetRating", Input: syntax.MustParseDocument(`input{title{"Naima"}}`), Context: syntax.MustParseDocument(`cd{title{"Naima"}}`)},
		{Service: "GetRating", Input: syntax.MustParseDocument(`input{title{"Body and Soul"}}`)},
		{Service: "GetRating", Input: syntax.MustParseDocument(`input{title{"2 < 3 & z"}}`)},
		{Service: "Nope"},
	}
	if got, err := marshalBatch(envs); err != nil || !bytes.Equal(got, req) {
		t.Fatalf("batch request bytes changed (%v):\ngot  %s\nwant %s", err, got, req)
	}
	w := httptest.NewRecorder()
	newRatingsPeer(t).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, PathInvoke, bytes.NewReader(req)))
	if got := w.Body.Bytes(); w.Code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("served answer changed (%d):\ngot  %s\nwant %s", w.Code, got, want)
	}
	if got := w.Header().Values(headerReads); len(got) != 1 || got[0] != "ratings" {
		t.Fatalf("%s = %q, want the answered envelopes' read set", headerReads, got)
	}
	decoded, err := unmarshalBatch(req)
	if err != nil || len(decoded) != len(envs) {
		t.Fatalf("decode request: %d envelopes, %v", len(decoded), err)
	}
	for i := range envs {
		if !sameEnvelope(decoded[i], envs[i]) {
			t.Fatalf("envelope %d decodes as %+v", i, decoded[i])
		}
	}
	answers, err := UnmarshalAnswers(want)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := marshalAnswers(answers); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("answers do not re-encode to their bytes (%v):\n%s", err, again)
	}
}
