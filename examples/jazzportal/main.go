// Jazz portal across two HTTP peers: the P2P data-management scenario of
// the paper's introduction. A ratings peer serves GetRating as an AXML
// Web service; a portal peer embeds calls to it inside its directory and
// materializes them lazily over the wire, using the XML wire format in
// which intensional data (calls) travels between peers.
//
//	go run ./examples/jazzportal
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"axml"
)

func main() {
	// --- Peer 1: the ratings service. Its answers are intensional: a
	// rating plus a call to a Reviews service for lazy follow-up.
	ratingsSys := axml.MustParseSystem(`
doc ratings = db{
  entry{title{"Body and Soul"},stars{"4"}},
  entry{title{"Naima"},stars{"5"}}}
doc reviews = rv{
  review{title{"Naima"},text{"timeless"}}}
func GetRating = rating{$s,!Reviews{title{$t}}} :- input/input{title{$t}}, ratings/db{entry{title{$t},stars{$s}}}
func Reviews   = review{$x} :- input/input{title{$t}}, reviews/rv{review{title{$t},text{$x}}}
`)
	ratingsPeer, _, err := axml.OpenPeer("ratings", ratingsSys)
	must(err)
	ratingsSrv := httptest.NewServer(ratingsPeer.Handler())
	defer ratingsSrv.Close()
	fmt.Println("ratings peer listening on", ratingsSrv.URL)

	// --- Peer 2: the portal. Its directory embeds calls to the remote
	// GetRating (and transitively receives calls to Reviews, which it
	// may or may not choose to invoke — intensional answers).
	portalSys := axml.NewSystem()
	portal := axml.MustParseDocument(`
directory{
  cd{title{"Body and Soul"},!GetRating{title{"Body and Soul"}}},
  cd{title{"Naima"},!GetRating{title{"Naima"}}}}`)
	must(portalSys.AddDocument(axml.NewDocument("portal", portal)))
	must(portalSys.AddService(&axml.RemoteService{Name: "GetRating", URL: ratingsSrv.URL}))
	must(portalSys.AddService(&axml.RemoteService{Name: "Reviews", URL: ratingsSrv.URL}))

	res := portalSys.Run(axml.RunOptions{})
	fmt.Printf("\nportal fixpoint: steps=%d terminated=%v\n", res.Steps, res.Terminated)
	fmt.Print(portalSys.Document("portal").Root.Indent())

	// Both the materialized rating and the (already expanded) review
	// arrived through the wire; the document is self-contained now.
	q := axml.MustParseQuery(
		`got{$t,$s} :- portal/directory{cd{title{$t},rating{$s}}}`)
	ans, err := portalSys.SnapshotQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nratings gathered over HTTP:")
	for _, t := range ans {
		fmt.Println(" ", t)
	}
	fmt.Printf("\nratings peer served %d invocations\n", ratingsPeer.Stats().Served)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
