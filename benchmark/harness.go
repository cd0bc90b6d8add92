package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// server is one in-process peer endpoint on real loopback TCP.
type server struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

// listen serves h on 127.0.0.1:0. On the traced pass the handler is
// wrapped in the server-span middleware.
func listen(rec *recorder, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: rec.middleware(h), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
		close(s.done)
	}()
	return s, nil
}

// Close drops the listener and every connection and waits for the
// accept loop to end.
func (s *server) Close() {
	s.srv.Close()
	<-s.done
}

// newHTTPClient is the one client shape the benchmark uses: a single
// connection per target, so two callers never hold more than two
// connections.
func newHTTPClient(rec *recorder) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	if rec != nil {
		rt = transport{base: rt, rec: rec}
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}
}

// buildSystem parses a system file and registers its services, each
// decorated with a service span on the traced pass. extra services
// (remote ones) are decorated the same way.
func buildSystem(rec *recorder, src string, extra ...core.Service) (*core.System, error) {
	spec, err := syntax.ParseSystem(src)
	if err != nil {
		return nil, err
	}
	s := core.NewSystem()
	for _, d := range spec.Docs {
		if err := s.AddDocument(d); err != nil {
			return nil, err
		}
	}
	for _, q := range spec.Funcs {
		svc, err := core.NewQueryService(q)
		if err != nil {
			return nil, err
		}
		if err := s.AddService(rec.wrapService(svc)); err != nil {
			return nil, err
		}
	}
	for _, svc := range extra {
		if err := s.AddService(rec.wrapService(svc)); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// openPeer opens an in-memory (or, with more options, durable) peer
// with its own registry.
func openPeer(name string, sys *core.System, opts ...peer.Option) (*peer.Peer, *obs.Registry, error) {
	reg := obs.NewRegistry()
	p, _, err := peer.Open(name, sys, append(opts, peer.WithObservability(reg))...)
	return p, reg, err
}

// names returns n distinct fixed-width identifiers drawn from rng, so
// inputs differ with the seed while every size and byte count stays
// the same.
func names(rng *rand.Rand, prefix string, n int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		s := fmt.Sprintf("%s%06x", prefix, rng.Intn(1<<24))
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// registryTotals flattens the registries' metrics, summed by name. Two
// of them bracket a phase; obs.DiffVars gives what moved in between.
func registryTotals(regs ...*obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range regs {
		for name, v := range obs.FlattenSnapshot(reg) {
			out[name] += v
		}
	}
	return out
}

// bytesOut is the response body bytes the peers' endpoints wrote, in a
// window of registryTotals.
func bytesOut(window map[string]float64) float64 {
	var t float64
	for name, v := range window {
		if strings.HasPrefix(name, "peer.http.bytes_out.") {
			t += v
		}
	}
	return t
}

// totalAllocMB is MemStats.TotalAlloc in megabytes.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// timeKernel is the median wall time in milliseconds of n calls of fn.
func timeKernel(n int, fn func() error) (float64, error) {
	return timePrepared(n, func() func() error { return fn })
}

// timePrepared is timeKernel for calls that consume their input:
// prepare (copying it) runs before every call and is not timed.
func timePrepared(n int, prepare func() func() error) (float64, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		fn := prepare()
		t0 := time.Now()
		err := fn()
		ds[i] = time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return median(ms(ds)), nil
}

// wireKernels times the tree wire codec on one document.
func wireKernels(doc *tree.Node) (map[string]float64, error) {
	data, err := peer.MarshalTree(doc)
	if err != nil {
		return nil, err
	}
	marshal, _ := timeKernel(25, func() error {
		_, err := peer.MarshalTree(doc)
		return err
	})
	unmarshal, err := timeKernel(25, func() error {
		_, err := peer.UnmarshalTree(data)
		return err
	})
	return map[string]float64{"peer.wire.marshal_tree_ms": marshal, "peer.wire.unmarshal_tree_ms": unmarshal}, err
}
