package peer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"axml/internal/obs"
	"axml/internal/tree"
)

// Client is the typed client-side surface of a peer's HTTP API: one value
// per target peer, carrying the base URL, the transport client and the
// wire-size cap that every request shares. Every method is a codec around
// call, the one place a request to a peer endpoint is built, sent,
// bounded and its status judged — so mirror syncs, anti-entropy probes and
// push deliveries (through Peer.remote), coordinator rounds, remote
// service invocations and the benchmark's callers all leave the same way. The
// zero value is not useful; set BaseURL (or use NewClient). A Client is
// safe for concurrent use: it holds no mutable state beyond the pooled
// *http.Client.
type Client struct {
	// BaseURL is the peer's base URL, e.g. "http://host:8080" (no
	// trailing slash; the endpoint paths under /axml/ are appended).
	BaseURL string
	// HTTP is the transport client; nil means one shared package default
	// (10s timeout, pooled keep-alive connections).
	HTTP *http.Client
	// MaxWire caps every response body this client reads; 0 means
	// MaxWireBytes. Bodies over the cap fail with ErrResponseTooLarge.
	MaxWire int64
}

// NewClient wraps a peer base URL. A nil httpClient means the shared
// package default.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/"), HTTP: httpClient}
}

// defaultClient is what a Client with no transport of its own sends on:
// shared so repeated calls to the same peer reuse pooled keep-alive
// connections instead of re-dialing per request.
var defaultClient = &http.Client{Timeout: 10 * time.Second}

// statusError is a non-200 answer: the status and a bounded prefix of the
// body (error bodies carry a short message).
type statusError struct {
	code   int
	status string
	body   string
}

func (e *statusError) Error() string {
	if e.body == "" {
		return e.status
	}
	return e.status + ": " + e.body
}

// call is the one way out to a peer endpoint: it sends method path (under
// BaseURL) with an optional body and hdr (key, value pairs) and returns
// the answer's body and response, its body read and closed. It stamps
// the W3C traceparent header from the span context riding ctx (none
// attached → no header): every outbound request in this package is built
// and sent here, so trace propagation has exactly one choke point, which
// is why scripts/lint-obs.sh bans bare http.Get/http.Post in internal/
// code and http.NewRequest or .Do( anywhere else in this package. An
// answer is a 200, or to a request that sent If-None-Match (the
// conditional read, Client.Delta) a 304, or a 226 when it also sent
// A-IM. Every failure is wrapped as "peer: <what>: …": a transport error
// that was really a context cancellation is mapped back to the context's
// error so callers can match it, any other status is a *statusError, and
// a body over the wire cap is ErrResponseTooLarge.
func (c *Client) call(ctx context.Context, what, method, path, contentType string, body []byte, hdr ...string) (_ []byte, _ *http.Response, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("peer: %s: %w", what, err)
		}
	}()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if tp := obs.SpanFromContext(ctx).Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if len(hdr)%2 != 0 {
		panic("peer: call: hdr is key, value pairs")
	}
	for i := 0; i < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	hc := c.HTTP
	if hc == nil {
		hc = defaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		if cause := ctx.Err(); cause != nil && !errors.Is(err, cause) {
			err = fmt.Errorf("%w (%v)", cause, err)
		}
		return nil, nil, err
	}
	defer resp.Body.Close()
	cond := req.Header.Get(headerIfNoneMatch) != ""
	switch code := resp.StatusCode; {
	case code == http.StatusOK, code == http.StatusNotModified && cond,
		code == http.StatusIMUsed && cond && req.Header.Get(headerAIM) != "":
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, nil, &statusError{code, resp.Status, strings.TrimSpace(string(msg))}
	}
	data, err := readAllLimited(resp.Body, resp.ContentLength, c.MaxWire)
	return data, resp, err
}

// Doc pulls a document's current state. Cancel via ctx.
func (c *Client) Doc(ctx context.Context, name string) (*tree.Node, error) {
	body, _, err := c.call(ctx, "fetch "+name, http.MethodGet, PathDoc+name, "", nil)
	if err != nil {
		return nil, err
	}
	return UnmarshalTree(body)
}

// Delta asks the peer what changed in a document since the state digest
// from, as a conditional read of PathDoc that accepts the graft log
// (A-IM: axml-log, and If-None-Match naming from unless from is empty).
// A 304 is DeltaSame, a 226 DeltaLog (the graft records since from) and a
// 200 DeltaFull (the whole tree). To is the answer's ETag; an answer
// without one is an error.
func (c *Client) Delta(ctx context.Context, name, from string) (d Delta, err error) {
	hdr := []string{headerAIM, imLog}
	if from != "" {
		hdr = append(hdr, headerIfNoneMatch, `"`+from+`"`)
	}
	body, resp, err := c.call(ctx, "delta "+name, http.MethodGet, PathDoc+name, "", nil, hdr...)
	if err != nil {
		return d, err
	}
	d = Delta{Doc: name, To: etagDigest(resp.Header.Get(headerETag))}
	if d.To == "" {
		return d, fmt.Errorf("peer: delta %s: answer without an ETag", name)
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		d.Mode = DeltaSame
		if d.To != from {
			err = fmt.Errorf("not modified since %s, yet at %s", from, d.To)
		}
	case http.StatusIMUsed:
		d.Mode, d.From = DeltaLog, from
		d.Log, err = unmarshalFrames(body, name)
	default:
		d.Mode = DeltaFull
		d.Full, err = UnmarshalTree(body)
	}
	if err != nil {
		err = fmt.Errorf("peer: delta %s: %w", name, err)
	}
	return d, err
}

// Hashes pulls the peer's per-document digests ("name=digest;..." from
// PathHash) as a map — the anti-entropy probe.
func (c *Client) Hashes(ctx context.Context) (map[string]string, error) {
	body, _, err := c.call(ctx, "hash "+c.BaseURL, http.MethodGet, PathHash, "", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, entry := range strings.Split(string(body), ";") {
		if entry == "" {
			continue
		}
		name, digest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("peer: hash %s: malformed entry %q", c.BaseURL, entry)
		}
		out[name] = digest
	}
	return out, nil
}

// Invoke evaluates a service on the peer: the envelope's input and
// context travel, the service runs against the peer's own documents, and
// the returned forest may itself contain calls (an intensional answer).
func (c *Client) Invoke(ctx context.Context, env Envelope) (tree.Forest, error) {
	data, err := MarshalEnvelope(env)
	if err != nil {
		return nil, err
	}
	forest, _, err := c.invokeEnvelope(ctx, "remote "+env.Service, data)
	return forest, err
}

// invokeEnvelope sends one encoded envelope and decodes its answer; the
// answer's header carries headerReads when the service is declarative.
func (c *Client) invokeEnvelope(ctx context.Context, what string, data []byte) (tree.Forest, http.Header, error) {
	body, resp, err := c.call(ctx, what, http.MethodPost, PathInvoke, "application/xml", data)
	if err != nil {
		return nil, nil, err
	}
	forest, err := UnmarshalForest(body)
	return forest, resp.Header, err
}

// maxBatchBytes bounds one ax:batch request.
const maxBatchBytes = 1 << 20

// invokeBatch evaluates envelopes on the peer, one forest or error per
// envelope, in order: consecutive envelopes travel as ax:batch requests
// of at most maxBatchBytes. A request refused with 413, or whose answer
// is over the cap, is re-sent as halves, down to lone envelopes, which
// fail as Invoke fails. hdr is the last answering response's header.
func (c *Client) invokeBatch(ctx context.Context, envs []Envelope) (fs []tree.Forest, errs []error, hdr http.Header) {
	fs, errs = make([]tree.Forest, len(envs)), make([]error, len(envs))
	var idx []int
	var bodies [][]byte
	for i, env := range envs {
		body, err := MarshalEnvelope(env)
		if errs[i] = err; err == nil {
			idx, bodies = append(idx, i), append(bodies, body)
		}
	}
	var send func(idx []int, bodies [][]byte)
	send = func(idx []int, bodies [][]byte) {
		what := "remote " + envs[idx[0]].Service
		if len(idx) == 1 {
			forest, h, err := c.invokeEnvelope(ctx, what, bodies[0])
			if fs[idx[0]], errs[idx[0]] = forest, err; err == nil {
				hdr = h
			}
			return
		}
		data, resp, err := c.call(ctx, what, http.MethodPost, PathInvoke, "application/xml", batchBody(bodies))
		var se *statusError
		if errors.Is(err, ErrResponseTooLarge) || errors.As(err, &se) && se.code == http.StatusRequestEntityTooLarge {
			half := len(idx) / 2
			send(idx[:half], bodies[:half])
			send(idx[half:], bodies[half:])
			return
		}
		var answers []Answer
		if err == nil {
			if answers, err = UnmarshalAnswers(data); err == nil && len(answers) != len(idx) {
				err = fmt.Errorf("peer: %s: %d answers to %d envelopes", what, len(answers), len(idx))
			}
		}
		for k, i := range idx {
			switch {
			case err != nil:
				errs[i] = err
			case answers[k].Err != nil:
				errs[i] = fmt.Errorf("peer: %s: %w", what, answers[k].Err)
			default:
				fs[i], hdr = answers[k].Forest, resp.Header
			}
		}
	}
	const wrap = len("<" + elemBatch + "></" + elemBatch + ">")
	for lo := 0; lo < len(idx); {
		hi, size := lo+1, wrap+len(bodies[lo])
		for ; hi < len(idx) && size+len(bodies[hi]) <= maxBatchBytes; hi++ {
			size += len(bodies[hi])
		}
		send(idx[lo:hi], bodies[lo:hi])
		lo = hi
	}
	return fs, errs, hdr
}

// Sweep asks the peer for one fair local sweep and reports whether it
// changed anything — the coordinator's per-round probe.
func (c *Client) Sweep(ctx context.Context) (changed bool, err error) {
	body, _, err := c.call(ctx, "sweep "+c.BaseURL, http.MethodPost, PathSweep, "text/plain", nil)
	if err != nil {
		return false, err
	}
	return strings.TrimSpace(string(body)) == "changed", nil
}

// Push delivers a forest to a subscriber's callback endpoint
// (PathPush+id) with no anchor and no acknowledgement: the subscriber
// appends it unconditionally and its record of the publisher's view is
// left as it was. The benchmark's writes use it; Publisher.Flush sends to
// the same endpoint with the view digests in X-Axml-Push-Anchor and
// X-Axml-Push-Ack.
func (c *Client) Push(ctx context.Context, id string, f tree.Forest) error {
	data, err := MarshalForest(f)
	if err != nil {
		return err
	}
	_, _, err = c.call(ctx, "push "+id, http.MethodPost, PathPush+id, "application/xml", data)
	return err
}
