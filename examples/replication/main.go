// Replication: a local peer mirrors a remote catalog whose content keeps
// growing through its own service calls (the dynamic-XML-with-replication
// scenario the paper's AXML line develops). Mirror syncs are least upper
// bounds (Section 2.1's ∪), so they are monotone and idempotent — replays
// and races can only add information.
//
//	go run ./examples/replication
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"time"

	"axml"
	"axml/internal/peer"
)

func main() {
	// Remote peer: a catalog that grows as its feed service fires.
	remoteSys := axml.MustParseSystem(`
doc catalog = cat{item{"bop"},!NewArrivals}
func NewArrivals = item{"cool-jazz"} :-
`)
	remotePeer, _, err := axml.OpenPeer("store", remoteSys)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(remotePeer.Handler())
	defer srv.Close()
	fmt.Println("remote store on", srv.URL)

	// Local peer: an empty replica plus local-only annotations.
	localSys := axml.MustParseSystem(`doc replica = cat{item{"local-note"}}`)
	local, _, err := axml.OpenPeer("cache", localSys)
	if err != nil {
		log.Fatal(err)
	}
	m := &peer.Mirror{Remote: srv.URL, RemoteDoc: "catalog", LocalDoc: "replica"}

	// Round 1: initial pull (a full tree — the mirror has no anchor yet).
	ctx := context.Background()
	if _, err := m.Sync(ctx, local); err != nil {
		log.Fatal(err)
	}
	show(local, "after first sync")

	// The remote evolves (its service fires), the replica catches up —
	// this time over a digest-anchored delta carrying only the growth.
	if _, err := remotePeer.Sweep(); err != nil {
		log.Fatal(err)
	}
	rounds, stable, err := m.SyncUntilStable(ctx, local, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconverged after %d round(s), stable=%v, %d syncs total\n",
		rounds, stable, m.Syncs)
	show(local, "after convergence")

	// Part 2: the same catalog pulled over an unreliable wire. Services
	// are deterministic monotone functions, so retrying a failed call is
	// always safe (Theorem 2.1: the final state is order-independent) —
	// the fault-tolerance layer exploits exactly that. We inject a
	// deterministic failure on every 2nd invocation, absorb it with a
	// retrying wrapper, and run with the Degrade policy so even an
	// exhausted retry budget would only defer the call, not kill the run.
	flaky := &axml.FaultService{
		Service:    &peer.RemoteService{Name: "NewArrivals", URL: srv.URL},
		ErrorEvery: 2,
	}
	hardened := &axml.Retry{
		Service:   flaky,
		Attempts:  4,
		BaseDelay: time.Millisecond,
		Rng:       rand.New(rand.NewSource(1)),
	}
	pullSys := axml.NewSystem()
	if err := pullSys.AddDocument(axml.NewDocument("shelf",
		axml.MustParseDocument(`cat{!NewArrivals}`))); err != nil {
		log.Fatal(err)
	}
	if err := pullSys.AddService(hardened); err != nil {
		log.Fatal(err)
	}
	res := pullSys.Run(axml.RunOptions{ErrorPolicy: axml.Degrade})
	fmt.Printf("\nflaky pull: terminated=%v steps=%d surfaced-failures=%d (injected=%d, retries=%d, recovered=%d)\n",
		res.Terminated, res.Steps, res.Failures,
		flaky.Injected(), hardened.Retries(), hardened.Recovered())
	fmt.Printf("shelf after flaky pull:\n%s", pullSys.Document("shelf").Root.Indent())
}

func show(p *axml.Peer, when string) {
	p.System(func(s *axml.System) {
		fmt.Printf("\nreplica %s:\n%s", when, s.Document("replica").Root.Indent())
	})
}
