package peer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// Push mode (pub/sub): the paper notes that repeated call activation
// captures both a pull mode, where clients keep asking, and a push mode,
// where servers keep sending new data (Section 2.2 and the conclusion).
// Publisher implements the server side: subscribers register a service
// invocation plus a callback URL, and Flush re-evaluates each
// subscription, POSTing only the new trees to the callback. Subscriber
// implements the client side, appending pushed forests under the
// subscribed call's parent — exactly where a pull-mode invocation would
// have appended them, so both modes converge to the same documents.
//
// Deliveries are anchored by digest, like a mirror's syncs: each
// subscription keeps a private view, the reduced union of every answer
// served to it (grown by subsume.Graft), and the digest of the view its
// subscriber acknowledged. A delivery of Graft's fresh trees names that
// digest as its anchor; a subscriber holding another view (it restarted,
// or a delivery was lost or duplicated) answers 409 Conflict. The first
// delivery, one after an unacknowledged delivery and one after a 409
// send the whole view with no anchor — monotone merge makes over-delivery
// safe, so the fallback can only repair, never corrupt.

// PathPush is the subscriber's callback endpoint.
const PathPush = "/axml/push/"

// Push headers, both view digests. Anchor is the view the subscriber must
// hold for the delivery to apply (empty for a whole view); Ack is the
// view after accepting it. A request without an Ack (Client.Push) is
// appended without negotiation and leaves the subscriber's view as it
// was.
const (
	headerPushAnchor = "X-Axml-Push-Anchor"
	headerPushAck    = "X-Axml-Push-Ack"
)

// Publisher manages subscriptions on top of a Peer. Deliveries leave
// through the peer's Client (Peer.remote: its WithClient transport, its
// WithLimits cap) and are retried under core's one backoff policy
// (core.Retry.Backoff, without jitter). Flushes may overlap: one
// subscription's deliveries run one at a time.
type Publisher struct {
	peer *Peer

	// Retries is the number of re-attempts per failed delivery (after
	// the first try). Zero means core.DefaultRetryAttempts-1; negative
	// disables retrying.
	Retries int
	// RetryBase is the first backoff delay; it doubles per attempt up to
	// core.DefaultRetryMax, without jitter. Zero means
	// core.DefaultRetryBase.
	RetryBase time.Duration
	// Sleep is the backoff clock, for tests; nil means a timer (a
	// cancelled ctx cuts the wait short either way).
	Sleep func(time.Duration)

	mu       sync.Mutex
	subs     []*subscription
	failures map[string]int
}

type subscription struct {
	id       string
	env      Envelope
	callback string

	// mu serializes the subscription's deliveries, which read and write
	// view and acked.
	mu sync.Mutex
	// view is the reduced union of every answer served so far. It is the
	// subscription's own tree, not a document of the peer's System: no
	// sweep fires its calls, and no digest, journal or snapshot sees it.
	view *tree.Node
	// acked is the view digest the subscriber acknowledged last; a
	// delivery is anchored only while it is the pre-graft view's.
	acked string
}

// NewPublisher wraps a peer.
func NewPublisher(p *Peer) *Publisher { return &Publisher{peer: p} }

// Subscribe registers a subscription: the envelope will be re-evaluated
// on every Flush, and new results POSTed to callbackURL+PathPush+id.
func (pb *Publisher) Subscribe(id string, env Envelope, callbackURL string) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	pb.subs = append(pb.subs, &subscription{id: id, env: env, callback: callbackURL,
		view: tree.NewLabel("view")})
}

// Failures returns a snapshot of the per-subscription count of failed
// delivery attempts (each exhausted retry sequence counts once per
// attempt). The same counts land in the peer's registry as
// peer.push.fail.<id>.
func (pb *Publisher) Failures() map[string]int {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	out := make(map[string]int, len(pb.failures))
	for id, n := range pb.failures {
		out[id] = n
	}
	return out
}

func (pb *Publisher) recordFailure(id string) {
	pb.mu.Lock()
	if pb.failures == nil {
		pb.failures = make(map[string]int)
	}
	pb.failures[id]++
	pb.mu.Unlock()
	pb.peer.metrics.Counter("peer.push.fail." + id).Inc()
}

// Flush re-evaluates every subscription and pushes the trees its view
// did not hold. It returns the number of trees pushed. A failed delivery
// is retried with capped exponential backoff (Retries/RetryBase); a
// subscription whose retries are exhausted is skipped — its error is
// joined into the returned error and its failure count recorded
// (Failures, peer.push.fail.<id>) — so one dead subscriber does not
// starve the rest, and its next delivery is its whole view. A 409 from
// the subscriber (it holds another view than the anchor) triggers a push
// of the whole view. Deliveries record into the publishing peer's
// registry (peer.push.flushes/pushed/errors/conflicts) and emit one
// "push" span per delivering subscription.
func (pb *Publisher) Flush(ctx context.Context) (int, error) {
	pb.mu.Lock()
	subs := append([]*subscription(nil), pb.subs...)
	pb.mu.Unlock()
	pb.peer.metrics.Counter("peer.push.flushes").Inc()
	pushed := 0
	var errs []error
	for _, sub := range subs {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		n, err := pb.flushOne(ctx, sub)
		pushed += n
		if err != nil {
			pb.peer.metrics.Counter("peer.push.errors").Inc()
			pb.recordFailure(sub.id)
			errs = append(errs, fmt.Errorf("push %s: %w", sub.id, err))
		}
	}
	return pushed, errors.Join(errs...)
}

func (pb *Publisher) flushOne(ctx context.Context, sub *subscription) (int, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	forest, err := pb.peer.Serve(ctx, sub.env)
	if err != nil {
		return 0, err
	}
	anchor := digestHex(sub.view)
	fresh, _ := subsume.Graft([]*tree.Node{sub.view}, forest)
	ack := digestHex(sub.view)
	if sub.acked != anchor {
		// The subscriber's view is unknown: the first delivery, or the
		// last one failed or was refused.
		fresh, anchor = sub.view.Children, ""
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	data, err := MarshalForest(fresh)
	if err != nil {
		return 0, err
	}
	// The push span parents the delivery: its context rides ctx into the
	// client call, so the subscriber's "http" span joins the same trace.
	parent := obs.SpanFromContext(ctx)
	var pushSC obs.SpanContext
	if parent.Valid() || pb.peer.tracer.Enabled() {
		pushSC = parent.NewChild()
		ctx = obs.ContextWithSpan(ctx, pushSC)
	}
	start := time.Now()
	startTS := pb.peer.tracer.Now()
	attempts := core.DefaultRetryAttempts
	if pb.Retries != 0 {
		attempts = max(pb.Retries, 0) + 1
	}
	client := pb.peer.remote(sub.callback, nil)
	retry := &core.Retry{BaseDelay: pb.RetryBase, Jitter: -1, Sleep: pb.Sleep}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := retry.Backoff(ctx, attempt); err != nil {
				return 0, err
			}
			pb.peer.metrics.Counter("peer.push.retries").Inc()
		}
		_, _, err := client.call(ctx, "push to "+sub.callback, http.MethodPost, PathPush+sub.id, "application/xml", data,
			headerPushAnchor, anchor, headerPushAck, ack)
		if err == nil {
			sub.acked = ack
			pb.peer.metrics.Counter("peer.push.pushed").Add(int64(len(fresh)))
			if tr := pb.peer.tracer; tr.Enabled() {
				tr.Emit(obs.Span{Kind: "push", Name: sub.id, TSUs: startTS,
					DurUs: time.Since(start).Microseconds(),
					Attrs: map[string]int64{"trees": int64(len(fresh))}}.WithContext(pushSC, parent))
			}
			return len(fresh), nil
		}
		lastErr = err
		var refused *statusError
		if anchor != "" && errors.As(err, &refused) && refused.code == http.StatusConflict {
			// The subscriber holds another view (it restarted, or a
			// delivery was lost or duplicated): push the whole view,
			// unanchored; the monotone merge dedups anything it still
			// had. The conflict answer consumed an attempt; the whole view
			// goes after the next backoff.
			pb.peer.metrics.Counter("peer.push.conflicts").Inc()
			fresh, anchor = sub.view.Children, ""
			if data, err = MarshalForest(fresh); err != nil {
				return 0, err
			}
		}
	}
	return 0, lastErr
}

// Subscriber receives pushed forests and appends them into a document of
// its local system, at a registered attachment point.
type Subscriber struct {
	peer *Peer

	mu      sync.Mutex
	targets map[string]pushTarget
}

type pushTarget struct {
	doc  string
	node *tree.Node // attachment parent inside the document
	// view is the publisher's view digest the last negotiated delivery
	// acknowledged: what an anchored delivery must name.
	view string
}

// NewSubscriber wraps a peer.
func NewSubscriber(p *Peer) *Subscriber {
	return &Subscriber{peer: p, targets: map[string]pushTarget{}}
}

// Register binds a subscription id to an attachment parent inside a
// document: pushed trees are merged in as children of that node
// (System.Append) — the same effect as a pull-mode invocation at a call
// under that parent. A delivery whose document or attachment node is gone
// is refused, not acknowledged. The node holds no view yet, so the next
// anchored delivery is refused and the publisher sends its whole view.
func (sb *Subscriber) Register(id, doc string, parent *tree.Node) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.targets[id] = pushTarget{doc: doc, node: parent}
}

// Handler returns the subscriber's HTTP handler (mount alongside or
// instead of the peer handler). Like the peer endpoints, it reports
// peer.http.*.push metrics when the peer carries a registry.
func (sb *Subscriber) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPush, sb.peer.instrument("push", http.MethodPost, sb.handlePush))
	return mux
}

func (sb *Subscriber) handlePush(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Path[len(PathPush):]
	sb.mu.Lock()
	target, ok := sb.targets[id]
	sb.mu.Unlock()
	if !ok {
		http.Error(w, "unknown subscription", http.StatusNotFound)
		return
	}
	// An anchored delivery carries only the growth of the view we
	// acknowledged. Holding another view — we restarted, or deliveries
	// were lost or duplicated — is answered 409 so the publisher sends
	// its whole view instead.
	if anchor := r.Header.Get(headerPushAnchor); anchor != "" && anchor != target.view {
		sb.peer.metrics.Counter("peer.push.rejected").Inc()
		http.Error(w, "push anchor mismatch", http.StatusConflict)
		return
	}
	body, ok := sb.peer.readBody(w, r)
	if !ok {
		return
	}
	forest, err := UnmarshalForest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var changed bool
	var localDigest string
	sb.peer.System(func(s *core.System) {
		if changed, err = s.Append(target.doc, target.node, forest); err == nil {
			localDigest = digestHex(s.Document(target.doc).Root)
		}
	})
	if err != nil {
		// The document is gone, or the registered attachment node no longer
		// belongs to it: nothing was applied, so nothing may be acknowledged
		// — the view stays where it was and the publisher sends its whole
		// view next. Not a 409: sending it now would not help.
		sb.peer.metrics.Counter("peer.push.rejected").Inc()
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	// Convergence watermark: a push reveals no origin digest (the view is
	// the publisher's, not a document's), but it does advance the local
	// replica — record the movement.
	sb.peer.converge.observe(sb.peer.metrics, target.doc, "", localDigest, changed)
	if ack := r.Header.Get(headerPushAck); ack != "" {
		sb.mu.Lock()
		if t, ok := sb.targets[id]; ok && t.node == target.node {
			t.view = ack
			sb.targets[id] = t
		}
		sb.mu.Unlock()
	}
	sb.peer.metrics.Counter("peer.push.delivered").Add(int64(len(forest)))
	io.WriteString(w, "ok")
}
