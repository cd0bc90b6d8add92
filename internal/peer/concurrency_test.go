package peer

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// The peer has one concurrency model — core.System.View / Update, the
// engine's version funnel. These tests pin what that admits (reads beside
// sweeps beside pushes, with the sequential result) and what it costs (a
// write waits for a remote evaluation in flight).

const portalTitles = 8

// servePortalPair serves a store peer (the ratings, behind the given
// wrapper of its handler) and the peer under test: a portal document
// whose calls the store answers, a local view over it, and a push inbox,
// with the peer and subscriber endpoints on one mux.
func servePortalPair(t *testing.T, wrapStore func(http.Handler) http.Handler) (*Peer, *Client) {
	t.Helper()
	var ratings, portal strings.Builder
	for i := 0; i < portalTitles; i++ {
		fmt.Fprintf(&ratings, `entry{title{"t%d"},stars{"%d"}},`, i, i%5)
		fmt.Fprintf(&portal, `cd{title{"t%d"},!GetRating{title{"t%d"}}},`, i, i)
	}
	store := mustOpen("store", core.MustParseSystem(`
doc ratings = db{`+ratings.String()+`end}
func GetRating = rating{$s} :- input/input{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
`))
	storeSrv := httptest.NewServer(wrapStore(store.Handler()))
	t.Cleanup(storeSrv.Close)

	spec, err := syntax.ParseSystem(`
doc portal = directory{` + portal.String() + `end}
doc inbox = inbox
func Rated = rated{$t} :- portal/directory{cd{title{$t},rating{$s}}}
`)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := sys.AddService(&RemoteService{Name: "GetRating", URL: storeSrv.URL}); err != nil {
		t.Fatal(err)
	}
	for _, q := range spec.Funcs {
		if err := sys.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range spec.Docs {
		if err := sys.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	p := mustOpen("portal", sys)
	sb := NewSubscriber(p)
	p.System(func(s *core.System) { sb.Register("ingest", "inbox", s.Document("inbox").Root) })
	mux := http.NewServeMux()
	mux.Handle(PathPush, sb.Handler())
	mux.Handle("/", p.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return p, NewClient(srv.URL, nil)
}

func pushedEntry(k int) tree.Forest {
	return tree.Forest{syntax.MustParseDocument(fmt.Sprintf(`entry{"%d"}`, k))}
}

// sweepUntilQuiet sweeps until a sweep changes nothing.
func sweepUntilQuiet(t *testing.T, p *Peer) {
	t.Helper()
	for i := 0; i < 20; i++ {
		changed, err := p.Sweep()
		if err != nil {
			t.Errorf("sweep: %v", err)
			return
		}
		if !changed {
			return
		}
	}
	t.Error("no quiet sweep in 20")
}

// TestConcurrentServeSweepPushMatchesSequential (run under make race): 8
// readers over every read endpoint, 2 sweepers whose calls wait 3 ms on a
// second peer, and 40 pushes, all against one peer at once. Every read
// succeeds, every push lands, and the documents end equal to those of the
// same work done one step at a time (Theorem 2.1: the order of monotone
// firings does not matter — and neither does what reads beside them).
func TestConcurrentServeSweepPushMatchesSequential(t *testing.T) {
	const pushes = 40
	slow := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(3 * time.Millisecond)
			h.ServeHTTP(w, r)
		})
	}
	ctx := context.Background()

	seq, seqClient := servePortalPair(t, slow)
	sweepUntilQuiet(t, seq)
	for k := 0; k < pushes; k++ {
		if err := seqClient.Push(ctx, "ingest", pushedEntry(k)); err != nil {
			t.Fatal(err)
		}
	}

	p, cl := servePortalPair(t, slow)
	var writers, readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			sweepUntilQuiet(t, p)
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for k := 0; k < pushes; k++ {
			if err := cl.Push(ctx, "ingest", pushedEntry(k)); err != nil {
				t.Errorf("push %d: %v", k, err)
			}
		}
	}()
	stop := make(chan struct{})
	reads := make([]int, 8)
	for i := range reads {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			anchor := ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch (i + reads[i]) % 4 {
				case 0:
					_, err = cl.Doc(ctx, "portal")
				case 1:
					var d Delta
					if d, err = cl.Delta(ctx, "inbox", anchor); err == nil {
						anchor = d.To
					}
				case 2:
					_, err = cl.Hashes(ctx)
				case 3:
					_, err = cl.Invoke(ctx, Envelope{Service: "Rated"})
				}
				if err != nil {
					t.Errorf("reader %d, read %d: %v", i, reads[i], err)
					return
				}
				reads[i]++
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for i, n := range reads {
		if n == 0 {
			t.Errorf("reader %d completed no read", i)
		}
	}
	sweepUntilQuiet(t, p) // both sweepers may have gone quiet before the last merge

	var got, want string
	p.System(func(s *core.System) { got = s.CanonicalString() })
	seq.System(func(s *core.System) { want = s.CanonicalString() })
	if got != want {
		t.Errorf("concurrent run:\n%s\nsequential run:\n%s", got, want)
	}
	if n := len(portalDoc(p, "inbox").Children); n != pushes {
		t.Errorf("inbox holds %d entries, want %d", n, pushes)
	}
	if st := p.Stats(); st.Steps != portalTitles {
		t.Errorf("steps = %d, want one per call (%d)", st.Steps, portalTitles)
	}
	assertDigestsFresh(t, p)
}

// TestWriteWaitsForRemoteEvaluationReadsDoNot is the stated trade-off as
// a contract: while a sweep's remote call is on the wire the peer keeps
// serving reads — even with a writer queued — and a push issued meanwhile
// is acknowledged only after the evaluation returned.
func TestWriteWaitsForRemoteEvaluationReadsDoNot(t *testing.T) {
	entered, release := make(chan struct{}, portalTitles), make(chan struct{})
	p, cl := servePortalPair(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			entered <- struct{}{}
			<-release
			h.ServeHTTP(w, r)
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark) // a failed assertion must not leave the store's Close waiting

	swept := make(chan error, 1)
	go func() {
		_, err := p.Sweep()
		swept <- err
	}()
	<-entered // the sweep's first call is parked on the store

	reads := func(when string) {
		t.Helper()
		if _, err := cl.Doc(ctx, "portal"); err != nil {
			t.Fatalf("GET doc %s: %v", when, err)
		}
		if _, err := cl.Invoke(ctx, Envelope{Service: "Rated"}); err != nil {
			t.Fatalf("POST invoke %s: %v", when, err)
		}
	}
	reads("beside a parked evaluation")

	pushed := make(chan error, 1)
	go func() { pushed <- cl.Push(ctx, "ingest", pushedEntry(0)) }()
	for p.Status().LockWriterWaits == 0 { // until the push is queued on the write side
		if ctx.Err() != nil {
			t.Fatal("the push never reached the write side")
		}
		time.Sleep(time.Millisecond)
	}
	reads("past a queued writer")
	select {
	case err := <-pushed:
		t.Fatalf("push acknowledged (err=%v) while the evaluation it must wait for is parked", err)
	case <-time.After(50 * time.Millisecond):
	}

	unpark()
	if err := <-pushed; err != nil {
		t.Fatalf("push after the release: %v", err)
	}
	if err := <-swept; err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if n := len(portalDoc(p, "inbox").Children); n != 1 {
		t.Errorf("inbox holds %d entries, want 1", n)
	}
	if st := p.Stats(); st.Steps != portalTitles {
		t.Errorf("steps = %d, want %d", st.Steps, portalTitles)
	}
}
