package peer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"axml/internal/tree"
)

// clientMethods is every Client method behind one signature.
var clientMethods = []struct {
	name, what string
	call       func(context.Context, *Client) error
}{
	{"Doc", "fetch d", func(ctx context.Context, c *Client) error { _, err := c.Doc(ctx, "d"); return err }},
	{"Delta", "delta d", func(ctx context.Context, c *Client) error { _, err := c.Delta(ctx, "d", "0123"); return err }},
	{"Hashes", "hash ", func(ctx context.Context, c *Client) error { _, err := c.Hashes(ctx); return err }},
	{"Invoke", "remote f", func(ctx context.Context, c *Client) error {
		_, err := c.Invoke(ctx, Envelope{Service: "f"})
		return err
	}},
	{"Sweep", "sweep ", func(ctx context.Context, c *Client) error { _, err := c.Sweep(ctx); return err }},
	{"Push", "push s1", func(ctx context.Context, c *Client) error {
		return c.Push(ctx, "s1", tree.Forest{tree.NewLabel("x")})
	}},
	{"Status", "status ", func(ctx context.Context, c *Client) error { _, err := c.Status(ctx); return err }},
}

// TestClientCallFailureModes: all seven Client methods leave through
// Client.call, so each fails the same three ways — a non-200 names the
// operation, the status and the body prefix; a body over MaxWire is
// ErrResponseTooLarge; a cancellation mid-flight is the context's error.
func TestClientCallFailureModes(t *testing.T) {
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream on fire", http.StatusBadGateway)
	}))
	defer refuse.Close()
	flood := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 4096))
	}))
	defer flood.Close()
	arrived := make(chan struct{}, len(clientMethods))
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-release
	}))
	defer hang.Close()
	defer close(release)

	for _, m := range clientMethods {
		t.Run(m.name, func(t *testing.T) {
			err := m.call(context.Background(), NewClient(refuse.URL, nil))
			if err == nil {
				t.Fatal("502: no error")
			}
			for _, want := range []string{"peer: " + m.what, "502 Bad Gateway", "upstream on fire"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("502: error %q does not name %q", err, want)
				}
			}

			err = m.call(context.Background(), &Client{BaseURL: flood.URL, MaxWire: 1024})
			if !errors.Is(err, ErrResponseTooLarge) {
				t.Errorf("body over MaxWire: want ErrResponseTooLarge, got %v", err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				<-arrived
				cancel()
			}()
			if err = m.call(ctx, NewClient(hang.URL, nil)); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled mid-flight: want context.Canceled, got %v", err)
			}
		})
	}

	// A non-200 without a body ends at the status, not at a separator.
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer bare.Close()
	_, err := NewClient(bare.URL, nil).Doc(context.Background(), "d")
	if err == nil || err.Error() != "peer: fetch d: 404 Not Found" {
		t.Errorf("empty error body: got %v", err)
	}
}

// TestClientHashesOverOneMiB: a hash list past 1 MiB used to be cut there
// without an error — a wrong last digest or a shorter map the coordinator
// would compare equal across rounds. It is read whole under the default
// cap, and is ErrResponseTooLarge under a smaller one.
func TestClientHashesOverOneMiB(t *testing.T) {
	var body strings.Builder
	docs := 0
	for body.Len() < 1<<20+4096 {
		fmt.Fprintf(&body, "doc%d=%016x;", docs, docs)
		docs++
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body.String())
	}))
	defer srv.Close()

	hashes, err := NewClient(srv.URL, nil).Hashes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	last := fmt.Sprintf("doc%d", docs-1)
	if len(hashes) != docs || hashes[last] != fmt.Sprintf("%016x", docs-1) {
		t.Errorf("got %d digests (%s=%q), want %d", len(hashes), last, hashes[last], docs)
	}
	_, err = (&Client{BaseURL: srv.URL, MaxWire: 1 << 20}).Hashes(context.Background())
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("under MaxWire 1 MiB: want ErrResponseTooLarge, got %v", err)
	}
}

// A declared length sizes the one buffer a body is read into, up to
// sizedReadMax; past it the buffer grows with the data. What a body reads
// as does not depend on the declaration: one shorter than declared reads
// as what arrived, one longer grows past it, and one declaring more than
// sizedReadMax is read to its end or fails at the cap.
func TestReadAllLimitedDeclaredLengths(t *testing.T) {
	body := func(n int) []byte { return []byte(strings.Repeat("x", n)) }
	for _, c := range []struct {
		name            string
		n               int
		declared, limit int64
		err             error
	}{
		{"shorter than declared", 10, 100, 0, nil},
		{"longer than declared", 5000, 10, 0, nil},
		{"declared past sizedReadMax", 100 << 10, 1 << 30, 0, nil},
		{"declared past sizedReadMax, over the cap", 100 << 10, 1 << 30, 80 << 10, ErrResponseTooLarge},
		{"declared within the cap, longer than it", 2000, 100, 1000, ErrResponseTooLarge},
	} {
		got, err := readAllLimited(bytes.NewReader(body(c.n)), c.declared, c.limit)
		if !errors.Is(err, c.err) || (err == nil && !bytes.Equal(got, body(c.n))) {
			t.Errorf("%s: %d bytes, %v", c.name, len(got), err)
		}
	}
	data := body(10 << 10)
	r := bytes.NewReader(data)
	if allocs := testing.AllocsPerRun(50, func() {
		r.Reset(data)
		readAllLimited(r, int64(len(data)), 0)
	}); allocs > 1 {
		t.Errorf("a body of its declared length took %v allocations, want 1", allocs)
	}

	// Over HTTP the transport judges the declaration: a short body fails,
	// a long one is cut at the declared length.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, _ := w.(http.Hijacker).Hijack()
		defer conn.Close()
		declared, sent := "100", "<a></a>"
		if r.URL.Path == PathDoc+"long" {
			declared, sent = "7", "<a></a><b></b>"
		}
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s", declared, sent)
		buf.Flush()
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	if _, err := c.Doc(context.Background(), "short"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: %v", err)
	}
	if root, err := c.Doc(context.Background(), "long"); err != nil || root.Name != "a" {
		t.Errorf("long body: %v %v", root, err)
	}
}
