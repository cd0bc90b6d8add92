package peer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"axml/internal/obs"
	"axml/internal/tree"
)

// Client is the typed client-side surface of a peer's HTTP API: one value
// per target peer, carrying the base URL, the transport client and the
// wire-size cap that every request shares. Mirror syncs, coordinator
// rounds, anti-entropy probes, remote service invocations and the load
// generator all route through it — it is the single place outbound peer
// HTTP is shaped, bounded and decoded. The zero value is not useful;
// set BaseURL (or use NewClient). A Client is safe for concurrent use:
// it holds no mutable state beyond the pooled *http.Client.
type Client struct {
	// BaseURL is the peer's base URL, e.g. "http://host:8080" (no
	// trailing slash; the endpoint paths under /axml/ are appended).
	BaseURL string
	// HTTP is the transport client; nil means the shared DefaultClient
	// (10s timeout, pooled keep-alive connections).
	HTTP *http.Client
	// MaxWire caps every response body this client reads; 0 means the
	// package-wide MaxWireBytes. Bodies over the cap fail with
	// ErrResponseTooLarge.
	MaxWire int64
}

// NewClient wraps a peer base URL. A nil httpClient means the shared
// DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/"), HTTP: httpClient}
}

// httpc resolves the transport client.
func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return DefaultClient
}

// newRequest builds one outbound request, stamping the W3C traceparent
// header from the span context riding ctx (none attached → no header).
// Every Client method funnels through here — outbound trace propagation
// has exactly one choke point, which is why scripts/lint-obs.sh bans
// bare http.Get/http.Post in internal/ code.
func newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if tp := obs.SpanFromContext(ctx).Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	return req, nil
}

// do issues req and returns the response, mapping transport errors that
// were really a context cancellation back to the context's error so
// callers can match it.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	resp, err := c.httpc().Do(req)
	if err != nil {
		if cause := req.Context().Err(); cause != nil && !errors.Is(err, cause) {
			err = fmt.Errorf("%w (%v)", cause, err)
		}
		return nil, err
	}
	return resp, nil
}

// Doc pulls a document's current state. Bodies over the client's wire
// cap fail with ErrResponseTooLarge. Cancel via ctx.
func (c *Client) Doc(ctx context.Context, name string) (*tree.Node, error) {
	req, err := newRequest(ctx, http.MethodGet, c.BaseURL+PathDoc+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer: fetch %s: %s", name, resp.Status)
	}
	body, err := readAllLimited(resp.Body, c.MaxWire)
	if err != nil {
		return nil, fmt.Errorf("peer: fetch %s: %w", name, err)
	}
	return UnmarshalTree(body)
}

// Delta asks the peer what changed in a document since the anchor digest
// from (empty means no anchor — expect a full answer). The answer is
// DeltaSame, a digest-anchored patch, or the full tree (see Delta).
func (c *Client) Delta(ctx context.Context, name, from string) (Delta, error) {
	u := c.BaseURL + PathDelta + name
	if from != "" {
		u += "?from=" + url.QueryEscape(from)
	}
	req, err := newRequest(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Delta{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return Delta{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Delta{}, fmt.Errorf("peer: delta %s: %s", name, resp.Status)
	}
	body, err := readAllLimited(resp.Body, c.MaxWire)
	if err != nil {
		return Delta{}, fmt.Errorf("peer: delta %s: %w", name, err)
	}
	return UnmarshalDelta(body)
}

// Hashes pulls the peer's per-document digests ("name=digest;..." from
// PathHash) as a map — the anti-entropy probe.
func (c *Client) Hashes(ctx context.Context) (map[string]string, error) {
	req, err := newRequest(ctx, http.MethodGet, c.BaseURL+PathHash, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer: hash %s: %s", c.BaseURL, resp.Status)
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
	req, err := newRequest(ctx, http.MethodPost, c.BaseURL+PathInvoke,
		bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("peer: remote %s: %w", env.Service, err)
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := c.do(req)
	if err != nil {
		return nil, fmt.Errorf("peer: remote %s: %w", env.Service, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Error bodies carry a short message; read a bounded prefix.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("peer: remote %s: %s: %s", env.Service, resp.Status, string(msg))
	}
	body, err := readAllLimited(resp.Body, c.MaxWire)
	if err != nil {
		return nil, fmt.Errorf("peer: remote %s: %w", env.Service, err)
	}
	return UnmarshalForest(body)
}

// Sweep asks the peer for one fair local sweep and reports whether it
// changed anything — the coordinator's per-round probe.
func (c *Client) Sweep(ctx context.Context) (changed bool, err error) {
	req, err := newRequest(ctx, http.MethodPost, c.BaseURL+PathSweep,
		strings.NewReader(""))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("peer: sweep %s: %s: %s", c.BaseURL, resp.Status, string(body))
	}
	return strings.TrimSpace(string(body)) == "changed", nil
}

// Push delivers a forest to a subscriber's callback endpoint
// (PathPush+id) without delta negotiation — the "legacy sender" mode
// subscribers accept unconditionally. The load generator uses it to
// model push-ingest traffic; Publisher.Flush keeps its own negotiated
// delivery path on top of the same endpoint.
func (c *Client) Push(ctx context.Context, id string, f tree.Forest) error {
	data, err := MarshalForest(f)
	if err != nil {
		return err
	}
	req, err := newRequest(ctx, http.MethodPost, c.BaseURL+PathPush+id,
		bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("peer: push %s: %s: %s", id, resp.Status, string(msg))
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return nil
}
