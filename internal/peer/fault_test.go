package peer

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/faults"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// sweepWithin runs one sweep with a deadlock watchdog: a sweep that blocks
// on its own peer's lock would otherwise hang the whole test binary.
func sweepWithin(t *testing.T, p *Peer, d time.Duration) bool {
	t.Helper()
	type outcome struct {
		changed bool
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		changed, err := p.Sweep()
		done <- outcome{changed, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("sweep: %v", o.err)
		}
		return o.changed
	case <-time.After(d):
		t.Fatalf("sweep did not finish within %v (deadlock)", d)
		return false
	}
}

// Regression: a peer whose document (via HTTP) calls one of its own
// services used to deadlock — Sweep held the peer lock across the remote
// round trip, and the incoming self-invocation blocked on that same lock.
func TestSelfCallSweepNoDeadlock(t *testing.T) {
	sys := core.NewSystem()
	if err := sys.AddService(core.ConstService("echo",
		tree.Forest{tree.NewLabel("pong")})); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(tree.NewDocument("d",
		syntax.MustParseDocument(`a{!SelfEcho}`))); err != nil {
		t.Fatal(err)
	}
	p := mustOpen("loop", sys)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	// The remote binding can only be added once the server URL exists.
	p.System(func(s *core.System) {
		if err := s.AddService(&RemoteService{Name: "SelfEcho", Service: "echo", URL: srv.URL}); err != nil {
			t.Fatal(err)
		}
	})

	if !sweepWithin(t, p, 15*time.Second) {
		t.Fatal("self-call sweep changed nothing")
	}
	want := syntax.MustParseDocument(`a{!SelfEcho,pong}`)
	p.System(func(s *core.System) {
		if !tree.Isomorphic(s.Document("d").Root, want) {
			t.Fatalf("doc = %s", s.Document("d").Root.CanonicalString())
		}
	})
	if p.Stats().Served != 1 {
		t.Fatalf("served = %d", p.Stats().Served)
	}
}

// Regression: the same self-call through a core.Timeout stack. The lock
// hand-off this peer used to rely on could not gate a stack containing a
// Timeout, so the sweep held the peer for the whole round trip, the
// incoming self-invocation blocked and the sweep failed with "service
// invocation timed out". An evaluation now only holds the system's read
// side, whatever middleware wraps the remote call.
func TestSelfCallThroughTimeoutNoDeadlock(t *testing.T) {
	sys := core.NewSystem()
	if err := sys.AddService(core.ConstService("echo",
		tree.Forest{tree.NewLabel("pong")})); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(tree.NewDocument("d",
		syntax.MustParseDocument(`a{!SelfEcho}`))); err != nil {
		t.Fatal(err)
	}
	p := mustOpen("loop", sys)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	p.System(func(s *core.System) {
		if err := s.AddService(&core.Timeout{
			Service: &RemoteService{Name: "SelfEcho", Service: "echo", URL: srv.URL},
			Limit:   2 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	})

	if !sweepWithin(t, p, 15*time.Second) {
		t.Fatal("self-call sweep changed nothing")
	}
	want := syntax.MustParseDocument(`a{!SelfEcho,pong}`)
	p.System(func(s *core.System) {
		if !tree.Isomorphic(s.Document("d").Root, want) {
			t.Fatalf("doc = %s", s.Document("d").Root.CanonicalString())
		}
	})
}

// Regression: a cycle of peers (A sweeps a call served by B, whose
// implementation calls back into A) must make progress: each peer releases
// its lock while its own remote call is on the wire.
func TestPeerCycleSweepNoDeadlock(t *testing.T) {
	sysA := core.NewSystem()
	if err := sysA.AddService(core.ConstService("answer",
		tree.Forest{syntax.MustParseDocument(`deep{"42"}`)})); err != nil {
		t.Fatal(err)
	}
	if err := sysA.AddDocument(tree.NewDocument("d",
		syntax.MustParseDocument(`a{!AskB}`))); err != nil {
		t.Fatal(err)
	}
	pA := mustOpen("A", sysA)
	srvA := httptest.NewServer(pA.Handler())
	defer srvA.Close()

	pB := mustOpen("B", core.NewSystem())
	srvB := httptest.NewServer(pB.Handler())
	defer srvB.Close()

	// B's relay proxies to A's local answer; A's AskB goes to B's relay.
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
	want := syntax.MustParseDocument(`a{!AskB,deep{"42"}}`)
	pA.System(func(s *core.System) {
		if !tree.Isomorphic(s.Document("d").Root, want) {
			t.Fatalf("doc = %s", s.Document("d").Root.CanonicalString())
		}
	})
	if pB.Stats().Served != 1 || pA.Stats().Served != 1 {
		t.Fatalf("served: A=%d B=%d", pA.Stats().Served, pB.Stats().Served)
	}
}

// portalSystem builds the jazz-portal client over the given service.
func portalSystem(t *testing.T, svc core.Service) *core.System {
	t.Helper()
	sys := core.NewSystem()
	portal := syntax.MustParseDocument(
		`directory{cd{title{"Body and Soul"},!GetRating{title{"Body and Soul"}}},cd{title{"Naima"},!GetRating{title{"Naima"}}}}`)
	if err := sys.AddDocument(tree.NewDocument("portal", portal)); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddService(svc); err != nil {
		t.Fatal(err)
	}
	return sys
}

// Acceptance: a run over an httptest peer fleet with injected
// error-every-3 failures completes to the same canonical fixpoint as a
// failure-free run, with RunResult reporting the degraded invocations and
// zero aborts.
func TestFleetDegradedRunMatchesCleanFixpoint(t *testing.T) {
	cleanSrv := httptest.NewServer(newRatingsPeer(t).Handler())
	defer cleanSrv.Close()
	clean := portalSystem(t, &RemoteService{Name: "GetRating", URL: cleanSrv.URL})
	if res := clean.Run(core.RunOptions{}); !res.Terminated || res.Err != nil {
		t.Fatalf("clean run: %+v", res)
	}

	flakySrv := httptest.NewServer(faults.FlakyHandler(newRatingsPeer(t).Handler(), 3))
	defer flakySrv.Close()
	degraded := portalSystem(t, &RemoteService{Name: "GetRating", URL: flakySrv.URL})
	res := degraded.Run(core.RunOptions{ErrorPolicy: core.Degrade})
	if !res.Terminated {
		t.Fatalf("degraded run aborted: %+v", res)
	}
	if res.Failures == 0 || res.Errors["GetRating"] == 0 {
		t.Fatalf("injected failures not reported: %+v", res)
	}
	if degraded.CanonicalString() != clean.CanonicalString() {
		t.Fatalf("fixpoints differ:\n%s\nvs\n%s",
			degraded.CanonicalString(), clean.CanonicalString())
	}
}

// With a Retry layer the same flaky fleet converges with zero surfaced
// failures — the transient 502s are absorbed below the engine.
func TestFleetRetryAbsorbsInjectedFaults(t *testing.T) {
	cleanSrv := httptest.NewServer(newRatingsPeer(t).Handler())
	defer cleanSrv.Close()
	clean := portalSystem(t, &RemoteService{Name: "GetRating", URL: cleanSrv.URL})
	clean.Run(core.RunOptions{})

	flakySrv := httptest.NewServer(faults.FlakyHandler(newRatingsPeer(t).Handler(), 3))
	defer flakySrv.Close()
	retry := &core.Retry{
		Service:  &RemoteService{Name: "GetRating", URL: flakySrv.URL},
		Attempts: 3,
		Sleep:    func(time.Duration) {},
	}
	sys := portalSystem(t, retry)
	res := sys.Run(core.RunOptions{ErrorPolicy: core.Degrade})
	if !res.Terminated || res.Failures != 0 || res.Err != nil {
		t.Fatalf("retried run surfaced failures: %+v", res)
	}
	if retry.Retries() == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
	if sys.CanonicalString() != clean.CanonicalString() {
		t.Fatalf("fixpoints differ:\n%s\nvs\n%s",
			sys.CanonicalString(), clean.CanonicalString())
	}
}

// Hardened sweeps on a peer: the degrade policy plus failure stats.
func TestPeerSweepDegradeCountsFailures(t *testing.T) {
	flakySrv := httptest.NewServer(faults.FlakyHandler(newRatingsPeer(t).Handler(), 1)) // everything fails
	defer flakySrv.Close()
	sys := portalSystem(t, &RemoteService{Name: "GetRating", URL: flakySrv.URL})
	p := mustOpen("client", sys)
	p.ErrorPolicy = core.Degrade
	if _, err := p.Sweep(); err == nil {
		t.Fatal("all-failing sweep reported no error")
	}
	if p.Stats().Failures == 0 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestDocAndHashRejectNonGET(t *testing.T) {
	srv := httptest.NewServer(newRatingsPeer(t).Handler())
	defer srv.Close()
	for _, path := range []string{PathDoc + "ratings", PathHash} {
		resp, err := http.Post(srv.URL+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: %d, want 405", path, resp.StatusCode)
		}
		resp, err = http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
}
