package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/tree"
)

// portal-sweep: two peers over HTTP. store holds a random graph in
// edges and serves succ; portal holds portalNodes node{name,!succ}
// entries whose succ is a RemoteService at store, and a local collect
// view over them. A Coordinator drives both to the distributed
// fixpoint. Primary operation: a one-edge change on a warm fleet, to
// the fixpoint again (refresh). Secondary: a fresh fleet to its
// fixpoint (cold).
const (
	portalNodes  = 96
	portalDegree = 2 // every node has exactly this many successors, whatever the seed
)

// Reference counts for a 10-second run (≈95 ms per refresh, ≈75 ms per
// cold fixpoint plus its untimed fleet start). Every refresh adds a
// hop to the view, and merging into the view is quadratic in its hops,
// so refreshes get slower as they go: the count is part of the metric.
const (
	portalRefreshes = 60
	portalColds     = 32
)

const portalFuncs = `
doc view = v{!collect}
func collect = hop{from{$x},to{$y}} :- portal/p{node{name{$x},next{$y}}}
`

const storeFunc = `
func succ = next{$y} :- context/node{name{$x}}, edges/g{e{from{$x},to{$y}}}
`

type portalFleet struct {
	store, portal       *peer.Peer
	storeReg, portalReg *obs.Registry
	servers             []*server
	httpc               *http.Client
	coord               *peer.Coordinator
}

func (f *portalFleet) Close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.httpc.CloseIdleConnections()
}

type portalInst struct {
	cfg       runConfig
	rec       *recorder
	chk       *checker
	storeSrc  string
	portalSrc string
	refresh   [][2]string // the edges the refreshes append, in order
	warm      *portalFleet
	oracle    *core.System // the same system on one site, Parallelism 1
	coldState string       // oracle digest at the cold fixpoint
	refreshed int          // refresh edges already applied to warm and oracle
}

func setupPortal(cfg runConfig, rec *recorder, chk *checker) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	nodes := names(rng, "n", portalNodes)
	succ := make([]map[int]bool, portalNodes)
	var edges strings.Builder
	for i := range nodes {
		succ[i] = map[int]bool{}
		for len(succ[i]) < portalDegree {
			if j := rng.Intn(portalNodes); j != i && !succ[i][j] {
				succ[i][j] = true
				fmt.Fprintf(&edges, `e{from{"%s"},to{"%s"}},`, nodes[i], nodes[j])
			}
		}
	}
	in := &portalInst{cfg: cfg, rec: rec, chk: chk}
	in.storeSrc = "doc edges = g{" + strings.TrimSuffix(edges.String(), ",") + "}\n" + storeFunc
	var entries []string
	for _, n := range nodes {
		entries = append(entries, fmt.Sprintf(`node{name{"%s"},!succ}`, n))
	}
	in.portalSrc = "doc portal = p{" + strings.Join(entries, ",") + "}\n" + portalFuncs
	// Refresh edges: each a new successor for a random node, enough for
	// the warm-up and the longest measured phase.
	for len(in.refresh) < cfg.ops(portalRefreshes, 1)+1 {
		i, j := rng.Intn(portalNodes), rng.Intn(portalNodes)
		if i != j && !succ[i][j] {
			succ[i][j] = true
			in.refresh = append(in.refresh, [2]string{nodes[i], nodes[j]})
		}
	}

	var err error
	if in.oracle, err = buildSystem(nil, in.storeSrc+in.portalSrc); err != nil {
		return nil, err
	}
	if res := in.oracle.Run(core.RunOptions{Parallelism: 1}); !res.Terminated {
		return nil, fmt.Errorf("portal oracle did not terminate: %v", res.Err)
	}
	in.coldState = portalState(in.oracle)
	if in.warm, err = in.startFleet(); err != nil {
		return nil, err
	}
	// Warm-up: the warm fleet's cold fixpoint and one refresh.
	if _, err := in.fixpoint(in.warm, "cold"); err != nil {
		in.Close()
		return nil, err
	}
	if _, err := in.refreshOnce(); err != nil {
		in.Close()
		return nil, err
	}
	return in, nil
}

// portalState digests the two documents the portal materialises.
func portalState(s *core.System) string {
	return fmt.Sprintf("%x/%x", s.Document("portal").Root.CanonicalHash(), s.Document("view").Root.CanonicalHash())
}

func portalPeerState(p *peer.Peer) (out string) {
	p.System(func(s *core.System) { out = portalState(s) })
	return out
}

func (in *portalInst) startFleet() (*portalFleet, error) {
	f := &portalFleet{httpc: newHTTPClient(in.rec)}
	storeSys, err := buildSystem(in.rec, in.storeSrc)
	if err != nil {
		return nil, err
	}
	if f.store, f.storeReg, err = openPeer("store", storeSys); err != nil {
		return nil, err
	}
	storeSrv, err := listen(in.rec, f.store.Handler())
	if err != nil {
		return nil, err
	}
	f.servers = append(f.servers, storeSrv)
	portalSys, err := buildSystem(in.rec, in.portalSrc,
		&peer.RemoteService{Name: "succ", URL: storeSrv.URL, Client: f.httpc})
	if err == nil {
		f.portal, f.portalReg, err = openPeer("portal", portalSys)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	portalSrv, err := listen(in.rec, f.portal.Handler())
	if err != nil {
		f.Close()
		return nil, err
	}
	f.servers = append(f.servers, portalSrv)
	f.coord = &peer.Coordinator{URLs: []string{storeSrv.URL, portalSrv.URL}, Client: f.httpc}
	return f, nil
}

// fixpoint drives the fleet to the distributed fixpoint under a root
// span of the given name.
func (in *portalInst) fixpoint(f *portalFleet, root string) (peer.FixpointResult, error) {
	ctx, end := in.rec.start(context.Background(), root)
	defer end()
	res, err := f.coord.RunToFixpoint(ctx)
	if err == nil && !res.Terminated {
		err = fmt.Errorf("no fixpoint after %d rounds", res.Rounds)
	}
	return res, err
}

// refreshOnce appends the next refresh edge to store and drives the
// warm fleet to the fixpoint again; both are timed. The oracle gets
// the same edge, untimed.
func (in *portalInst) refreshOnce() (time.Duration, error) {
	e := in.refresh[in.refreshed]
	in.refreshed++
	edge := func() *tree.Node {
		return tree.NewLabel("e", tree.NewLabel("from", tree.NewValue(e[0])), tree.NewLabel("to", tree.NewValue(e[1])))
	}
	in.oracle.Document("edges").Root.Add(edge())
	in.oracle.Touch("edges")

	ctx, end := in.rec.start(context.Background(), "refresh")
	t0 := time.Now()
	in.warm.store.System(func(s *core.System) {
		s.Document("edges").Root.Add(edge())
		s.Touch("edges")
	})
	res, err := in.warm.coord.RunToFixpoint(ctx)
	d := time.Since(t0)
	end()
	if err == nil && !res.Terminated {
		err = fmt.Errorf("no fixpoint after %d rounds", res.Rounds)
	}
	if err != nil {
		return d, err
	}
	// The new hop must have reached the portal's view.
	hop := tree.NewLabel("hop", tree.NewLabel("from", tree.NewValue(e[0])), tree.NewLabel("to", tree.NewValue(e[1])))
	found := false
	in.warm.portal.System(func(s *core.System) {
		for _, c := range s.Document("view").Root.Children {
			if c.CanonicalHash() == hop.CanonicalHash() {
				found = true
			}
		}
	})
	if !found {
		err = fmt.Errorf("hop %s→%s missing from the view", e[0], e[1])
	}
	return d, err
}

// totals is the fleet's registry metrics plus the systems' pattern-index
// counters, summed over both peers.
func (f *portalFleet) totals() map[string]float64 {
	out := registryTotals(f.storeReg, f.portalReg)
	for _, p := range []*peer.Peer{f.store, f.portal} {
		p.System(func(s *core.System) {
			h, m := s.IndexStats()
			out["index.hits"] += float64(h)
			out["index.misses"] += float64(m)
		})
	}
	return out
}

func (in *portalInst) measure(share float64) phase {
	ph := phase{layer: map[string]float64{}}
	var rounds []float64
	before := in.warm.totals()
	for i, n := 0, in.cfg.ops(portalRefreshes, share); i < n; i++ {
		in.chk.op()
		d, err := in.refreshOnce()
		if in.chk.err(err, "refresh") {
			continue
		}
		ph.primary = append(ph.primary, d)
	}
	moved := obs.DiffVars(before, in.warm.totals())
	if res := in.oracle.Run(core.RunOptions{Parallelism: 1}); !res.Terminated {
		in.chk.fail("portal oracle did not terminate after the refreshes")
	}
	ph.state = portalState(in.oracle)
	got := portalPeerState(in.warm.portal)
	in.chk.check(got == ph.state, "warm portal %s differs from the single-site run %s", got, ph.state)

	for i, n := 0, in.cfg.ops(portalColds, share); i < n; i++ {
		in.chk.op()
		f, err := in.startFleet()
		if in.chk.err(err, "cold fleet") {
			continue
		}
		t0 := time.Now()
		res, err := in.fixpoint(f, "cold")
		d := time.Since(t0)
		if !in.chk.err(err, "cold fixpoint") {
			ph.secondary = append(ph.secondary, d)
			rounds = append(rounds, float64(res.Rounds))
			got := portalPeerState(f.portal)
			in.chk.check(got == in.coldState, "cold portal %s differs from the single-site run %s", got, in.coldState)
		}
		f.Close()
	}
	ph.ops = len(ph.primary) + len(ph.secondary)
	ph.wall = sum(ph.primary) + sum(ph.secondary)

	// Per refresh; peer sweeps are sequential, so these repeat exactly.
	per := func(name string) float64 { return ratio(moved[name], float64(len(ph.primary))) }
	ph.layer["core.calls_fired"] = per("engine.calls.fired")
	ph.layer["core.calls_sterile"] = per("engine.calls.sterile")
	ph.layer["core.delta_evals"] = per("engine.delta_evals")
	ph.layer["core.useful_call_ratio"] = ratio(per("engine.steps"), per("engine.calls.fired"))
	ph.layer["core.rounds"] = median(rounds)
	ph.layer["pattern.index_hits"] = per("index.hits")
	ph.layer["pattern.index_misses"] = per("index.misses")
	return ph
}

func (in *portalInst) layers(v traceView) map[string]float64 {
	out := map[string]float64{
		// Top-level service spans on the portal hold the remote round
		// trips; their self time is what the services themselves cost.
		"core.service_ms":     median(v.perOp("refresh", "service.")),
		"core.engine_self_ms": median(v.perOp("refresh", "server.sweep")),
	}
	serverLayers(v, out)
	return out
}

// serverLayers fills the peer.http, peer.client and net metrics every
// served workload shares: per-request medians of span self times.
func serverLayers(v traceView, out map[string]float64) {
	for _, ep := range []string{"doc", "delta", "invoke", "hash", "push", "sweep"} {
		out["peer.http."+ep+"_ms"] = median(v.perSpan("server."+ep, true))
	}
	var codec []float64
	for _, m := range []string{"doc", "delta", "invoke", "hashes", "push", "sweep"} {
		codec = append(codec, v.perSpan("client."+m, true)...)
	}
	out["peer.client.codec_ms"] = median(codec)
	out["net.roundtrip_self_ms"] = median(v.perSpan("http.roundtrip", true))
}

func (in *portalInst) kernels() (map[string]float64, error) {
	var env peer.Envelope
	in.warm.portal.System(func(s *core.System) {
		node := s.Document("portal").Root.Children[0]
		env = peer.Envelope{Service: "succ", Input: tree.NewLabel(tree.Input), Context: node.Copy()}
	})
	d, err := timeKernel(200, func() error {
		data, err := peer.MarshalEnvelope(env)
		if err == nil {
			_, err = peer.UnmarshalEnvelope(data)
		}
		return err
	})
	return map[string]float64{"peer.wire.envelope_us": 1000 * d}, err
}

func (in *portalInst) Close() {
	if in.warm != nil {
		in.warm.Close()
	}
}
