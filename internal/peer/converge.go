package peer

import (
	"sync"
	"time"

	"axml/internal/obs"
)

// Convergence telemetry: how far behind its origin is each replicated
// document, and how long does an origin write take to land here?
//
// Every replication path reports what it learned to the peer's
// convergence tracker:
//
//   - Mirror.Sync and AntiEntropy learn the origin's digest from the
//     delta negotiation (Delta.To) and the local digest after merging;
//   - push delivery learns the local digest after appending a batch
//     (the publisher's chain anchor is its origin digest).
//
// The tracker derives, per document: the last origin digest observed,
// the local digest last reached, whether they agree (converged), when
// the local digest last advanced, and the replication lag — measured
// entirely on the local clock as the interval from first observing a
// divergent origin digest to the local digest catching up to the
// origin, so cross-host clock skew never pollutes the histogram.
//
// Metrics (registered by Open when the peer has a registry):
//
//	peer.converge.docs     gauge fn  documents with a watermark
//	peer.converge.behind   gauge fn  documents whose local digest trails the origin
//	peer.converge.advances counter   local digest advances via replication
//	peer.converge.lag_ns   histogram one observation per divergence → convergence interval

// watermark is one document's convergence state as seen by this peer.
type watermark struct {
	origin      string    // last origin digest observed ("" = never learned)
	local       string    // last local digest recorded
	lastAdvance time.Time // when the local digest last moved
	originMoved time.Time // when a divergent origin digest was first observed (zero = in sync)
	lastLag     time.Duration
}

// convergence tracks watermarks for every replicated document on one
// peer. Guarded by its own mutex so the registry's gauge functions can
// read it without touching the system's lock.
type convergence struct {
	mu   sync.Mutex
	docs map[string]*watermark
	now  func() time.Time // test seam
}

func newConvergence() *convergence {
	return &convergence{docs: map[string]*watermark{}, now: time.Now}
}

func (cv *convergence) get(doc string) *watermark {
	w := cv.docs[doc]
	if w == nil {
		w = &watermark{}
		cv.docs[doc] = w
	}
	return w
}

// observe records the outcome of one replication exchange for doc:
// origin is the origin digest learned (empty when the exchange did not
// reveal one, e.g. a push delivery), local the local digest afterwards,
// advanced whether the exchange changed the local document. Convergence
// — the local digest reaching the last known origin digest — closes any
// open divergence interval and reports its duration to the lag
// histogram.
func (cv *convergence) observe(m *obs.Registry, doc, origin, local string, advanced bool) {
	if cv == nil {
		return
	}
	now := cv.now()
	cv.mu.Lock()
	defer cv.mu.Unlock()
	w := cv.get(doc)
	if origin != "" && origin != w.origin {
		w.origin = origin
		if origin != local && w.originMoved.IsZero() {
			// The origin is ahead of us as of now: the lag clock starts.
			w.originMoved = now
		}
	}
	w.local = local
	if advanced {
		w.lastAdvance = now
		m.Counter("peer.converge.advances").Inc()
	}
	if w.origin != "" && w.local == w.origin {
		if !w.originMoved.IsZero() {
			w.lastLag = now.Sub(w.originMoved)
			w.originMoved = time.Time{}
			m.Histogram("peer.converge.lag_ns").Observe(int64(w.lastLag))
		}
	}
}

// docsTracked is the peer.converge.docs gauge function.
func (cv *convergence) docsTracked() int64 {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	return int64(len(cv.docs))
}

// docsBehind is the peer.converge.behind gauge function: documents whose
// last observed origin digest differs from the local one.
func (cv *convergence) docsBehind() int64 {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	var n int64
	for _, w := range cv.docs {
		if w.origin != "" && w.local != w.origin {
			n++
		}
	}
	return n
}

// snapshot copies every watermark for the status surface.
func (cv *convergence) snapshot() map[string]watermark {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	out := make(map[string]watermark, len(cv.docs))
	for doc, w := range cv.docs {
		out[doc] = *w
	}
	return out
}
