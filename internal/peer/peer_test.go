package peer

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/syntax"
	"axml/internal/tree"
)

func TestWireTreeRoundTrip(t *testing.T) {
	cases := []string{
		`a`,
		`"v"`,
		`a{b{"1"},!GetRating{"Body and Soul"},c}`,
		`directory{cd{title{"L'amour"},rating{"***"}},!FreeMusicDB{type{"Jazz"}}}`,
		`a{"x<y&z",b}`,
	}
	for _, src := range cases {
		n := syntax.MustParseDocument(src)
		data, err := MarshalTree(n)
		if err != nil {
			t.Fatalf("marshal %q: %v", src, err)
		}
		back, err := UnmarshalTree(data)
		if err != nil {
			t.Fatalf("unmarshal %q (%s): %v", src, data, err)
		}
		if !tree.Isomorphic(n, back) {
			t.Fatalf("round trip %q -> %s -> %s", src, data, back)
		}
	}
}

func TestWireForestAndEnvelopeRoundTrip(t *testing.T) {
	f := tree.Forest{
		syntax.MustParseDocument(`a{b}`),
		syntax.MustParseDocument(`!call{"p"}`),
	}
	data, err := MarshalForest(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalForest(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.CanonicalString() != back.CanonicalString() {
		t.Fatalf("forest round trip: %s vs %s", f.CanonicalString(), back.CanonicalString())
	}

	env := Envelope{
		Service: "GetRating",
		Input:   syntax.MustParseDocument(`input{"Body and Soul"}`),
		Context: syntax.MustParseDocument(`cd{title{"Body and Soul"}}`),
	}
	ed, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	envBack, err := UnmarshalEnvelope(ed)
	if err != nil {
		t.Fatal(err)
	}
	if envBack.Service != "GetRating" ||
		!tree.Isomorphic(envBack.Input, env.Input) ||
		!tree.Isomorphic(envBack.Context, env.Context) {
		t.Fatalf("envelope round trip: %+v", envBack)
	}
}

func TestWireErrors(t *testing.T) {
	if _, err := UnmarshalTree([]byte(``)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := UnmarshalTree([]byte(`<ax:call>x</ax:call>`)); err == nil {
		t.Error("call without service accepted")
	}
	if _, err := UnmarshalForest([]byte(`<wrong></wrong>`)); err == nil {
		t.Error("non-forest accepted")
	}
	if _, err := UnmarshalEnvelope([]byte(`<ax:envelope></ax:envelope>`)); err == nil {
		t.Error("envelope without invoke accepted")
	}
}

// A document name travels as a /axml/doc path segment, a /axml/hash
// entry and a replica's root element; Open refuses one the wire cannot
// carry instead of serving a hash list that fails every client's parse.
func TestOpenRejectsUnwireableDocName(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"", false}, {"a;b", false}, {"x y", false}, {"q?r", false}, {"a/b", false},
		{"inbox007", true},
	} {
		s := core.NewSystem()
		if err := s.AddDocument(NewReplicaDoc(c.name, "inbox")); err != nil {
			t.Fatalf("AddDocument(%q): %v", c.name, err)
		}
		_, _, err := Open("p", s)
		if c.ok && err != nil {
			t.Errorf("Open with document %q: %v", c.name, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), strconv.Quote(c.name))) {
			t.Errorf("Open with document %q: got %v, want an error naming it", c.name, err)
		}
	}
}

// mustOpen wraps a system as an in-memory peer; Open cannot fail without
// durability on a system whose document names the wire can carry.
func mustOpen(name string, s *core.System, opts ...Option) *Peer {
	p, _, err := Open(name, s, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// newRatingsPeer builds the server side of the jazz example: a peer whose
// GetRating service answers from its own ratings document.
func newRatingsPeer(t *testing.T, opts ...Option) *Peer {
	t.Helper()
	s := core.MustParseSystem(`
doc ratings = db{entry{title{"Body and Soul"},stars{"4"}},entry{title{"Naima"},stars{"5"}}}
func GetRating = rating{$s} :- input/input{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
`)
	return mustOpen("ratings", s, opts...)
}

func TestRemoteServicePullMode(t *testing.T) {
	server := httptest.NewServer(newRatingsPeer(t).Handler())
	defer server.Close()

	// Client peer: its portal document calls the remote GetRating.
	clientSys := core.NewSystem()
	portal := syntax.MustParseDocument(
		`directory{cd{title{"Body and Soul"},!GetRating{title{"Body and Soul"}}},cd{title{"Naima"},!GetRating{title{"Naima"}}}}`)
	if err := clientSys.AddDocument(tree.NewDocument("portal", portal)); err != nil {
		t.Fatal(err)
	}
	if err := clientSys.AddService(&RemoteService{Name: "GetRating", URL: server.URL}); err != nil {
		t.Fatal(err)
	}
	res := clientSys.Run(core.RunOptions{})
	if !res.Terminated {
		t.Fatalf("pull run: %+v", res)
	}
	want := syntax.MustParseDocument(
		`directory{cd{title{"Body and Soul"},!GetRating{title{"Body and Soul"}},rating{"4"}},cd{title{"Naima"},!GetRating{title{"Naima"}},rating{"5"}}}`)
	got := clientSys.Document("portal").Root
	if !tree.Isomorphic(got, want) {
		t.Fatalf("portal after pull:\n%s\nwant\n%s", got.CanonicalString(), want.CanonicalString())
	}
}

func TestIntensionalAnswersTravel(t *testing.T) {
	// A service returning a call: intensional data crosses the wire.
	s := core.MustParseSystem(`
doc menu = m{item{"jazz"}}
func List = found{$x,!Detail{$x}} :- menu/m{item{$x}}
func Detail = detail{"42"} :-
`)
	server := httptest.NewServer(mustOpen("src", s).Handler())
	defer server.Close()

	clientSys := core.NewSystem()
	if err := clientSys.AddDocument(tree.NewDocument("d", syntax.MustParseDocument(`root{!List}`))); err != nil {
		t.Fatal(err)
	}
	if err := clientSys.AddService(&RemoteService{Name: "List", URL: server.URL}); err != nil {
		t.Fatal(err)
	}
	if err := clientSys.AddService(&RemoteService{Name: "Detail", URL: server.URL}); err != nil {
		t.Fatal(err)
	}
	res := clientSys.Run(core.RunOptions{})
	if !res.Terminated {
		t.Fatalf("run: %+v", res)
	}
	want := syntax.MustParseDocument(`root{!List,found{"jazz",!Detail{"jazz"},detail{"42"}}}`)
	if !tree.Isomorphic(clientSys.Document("d").Root, want) {
		t.Fatalf("got %s", clientSys.Document("d").Root.CanonicalString())
	}
}

func TestFetchDoc(t *testing.T) {
	p := newRatingsPeer(t)
	server := httptest.NewServer(p.Handler())
	defer server.Close()
	n, err := NewClient(server.URL, nil).Doc(context.Background(), "ratings")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "db" || len(n.Children) != 2 {
		t.Fatalf("fetched %s", n)
	}
	if _, err := NewClient(server.URL, nil).Doc(context.Background(), "nope"); err == nil {
		t.Fatal("missing document fetched")
	}
}

func TestServeErrors(t *testing.T) {
	p := newRatingsPeer(t)
	if _, err := p.Serve(context.Background(), Envelope{Service: "nope"}); err == nil {
		t.Fatal("unknown service served")
	}
	server := httptest.NewServer(p.Handler())
	defer server.Close()
	resp, err := http.Get(server.URL + PathInvoke)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET invoke: %d", resp.StatusCode)
	}
	resp, err = http.Post(server.URL+PathInvoke, "application/xml", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk invoke: %d", resp.StatusCode)
	}
}

// Distributed fixpoint: two peers deriving a chain across each other must
// reach the same result as a single-site system, and the coordinator must
// detect termination.
func TestCoordinatorDistributedFixpoint(t *testing.T) {
	// Peer A holds edges {1->2}, peer B holds {2->3}; each peer's "hop"
	// service extends paths using its local edges and the caller's
	// frontier passed via input.
	sysA := core.MustParseSystem(`
doc edges = r{t{a{1},b{2}}}
func HopA = t{a{$x},b{$y}} :- input/input{t{a{$x},b{$z}}}, edges/r{t{a{$z},b{$y}}}
`)
	sysB := core.MustParseSystem(`
doc edges = r{t{a{2},b{3}}}
func HopB = t{a{$x},b{$y}} :- input/input{t{a{$x},b{$z}}}, edges/r{t{a{$z},b{$y}}}
`)
	peerA, peerB := mustOpen("A", sysA), mustOpen("B", sysB)
	srvA := httptest.NewServer(peerA.Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(peerB.Handler())
	defer srvB.Close()

	// A third peer assembles the closure: its document seeds the paths
	// and calls both hop services with the full current path set.
	sysC := core.MustParseSystem(`doc paths = r{t{a{0},b{1}}}`)
	// Local recursive service: feed current paths to the remote hops.
	root := sysC.Document("paths").Root
	root.Children = append(root.Children,
		tree.NewFunc("StepA"), tree.NewFunc("StepB"))
	if err := sysC.AddService(&contextForwardingService{name: "StepA", inner: &RemoteService{Name: "HopA", URL: srvA.URL}}); err != nil {
		t.Fatal(err)
	}
	if err := sysC.AddService(&contextForwardingService{name: "StepB", inner: &RemoteService{Name: "HopB", URL: srvB.URL}}); err != nil {
		t.Fatal(err)
	}
	peerC := mustOpen("C", sysC)
	srvC := httptest.NewServer(peerC.Handler())
	defer srvC.Close()

	coord := &Coordinator{URLs: []string{srvA.URL, srvB.URL, srvC.URL}}
	res, err := coord.RunToFixpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("coordinator did not detect termination: %+v", res)
	}
	got := peerC.hashableDoc(t)
	want := syntax.MustParseDocument(
		`r{t{a{0},b{1}},t{a{0},b{2}},t{a{0},b{3}},!StepA,!StepB}`)
	if !tree.Isomorphic(got, want) {
		t.Fatalf("distributed closure:\n%s\nwant\n%s", got.CanonicalString(), want.CanonicalString())
	}
	if peerA.Stats().Served == 0 || peerB.Stats().Served == 0 {
		t.Fatal("remote peers were never called")
	}
}

// contextForwardingService adapts a remote service: it forwards the
// caller's context (the document holding the paths) as the remote input.
type contextForwardingService struct {
	name  string
	inner core.Service
}

func (s *contextForwardingService) ServiceName() string { return s.name }

func (s *contextForwardingService) Invoke(ctx context.Context, b core.Binding) (tree.Forest, error) {
	input := tree.NewLabel(tree.Input)
	if b.Context != nil {
		for _, c := range b.Context.Children {
			if c.Kind != tree.Func {
				input.Children = append(input.Children, c.Copy())
			}
		}
	}
	return s.inner.Invoke(ctx, core.Binding{Input: input, Context: b.Context, Docs: b.Docs})
}

func (p *Peer) hashableDoc(t *testing.T) *tree.Node {
	t.Helper()
	var out *tree.Node
	p.System(func(s *core.System) {
		out = s.Document("paths").Root.Copy()
	})
	return out
}

func TestPushModeMatchesPull(t *testing.T) {
	// Publisher peer with a growing... here static ratings; subscriber
	// receives pushed ratings at the cd node.
	pub := NewPublisher(newRatingsPeer(t))
	pubSrv := httptest.NewServer(newRatingsPeer(t).Handler())
	defer pubSrv.Close()

	subSys := core.NewSystem()
	portal := syntax.MustParseDocument(`directory{cd{title{"Naima"}}}`)
	if err := subSys.AddDocument(tree.NewDocument("portal", portal)); err != nil {
		t.Fatal(err)
	}
	subPeer := mustOpen("client", subSys)
	sub := NewSubscriber(subPeer)
	subSrv := httptest.NewServer(sub.Handler())
	defer subSrv.Close()

	// Attach the subscription at the cd node.
	var cd *tree.Node
	subPeer.System(func(s *core.System) {
		cd = s.Document("portal").Root.Children[0]
	})
	sub.Register("sub1", "portal", cd)
	pub.Subscribe("sub1", Envelope{
		Service: "GetRating",
		Input:   syntax.MustParseDocument(`input{title{"Naima"}}`),
	}, subSrv.URL)

	pushed, err := pub.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 1 {
		t.Fatalf("pushed = %d", pushed)
	}
	// Flushing again pushes nothing new.
	pushed, err = pub.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 0 {
		t.Fatalf("re-push = %d", pushed)
	}
	want := syntax.MustParseDocument(`directory{cd{title{"Naima"},rating{"5"}}}`)
	got := func() *tree.Node {
		var out *tree.Node
		subPeer.System(func(s *core.System) { out = s.Document("portal").Root.Copy() })
		return out
	}()
	if !tree.Isomorphic(got, want) {
		t.Fatalf("push result %s, want %s", got.CanonicalString(), want.CanonicalString())
	}
}

func TestSubscriberUnknownID(t *testing.T) {
	subSys := core.MustParseSystem(`doc d = a`)
	sub := NewSubscriber(mustOpen("c", subSys))
	srv := httptest.NewServer(sub.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+PathPush+"nope", "application/xml", strings.NewReader("<ax:forest></ax:forest>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %d", resp.StatusCode)
	}
}
