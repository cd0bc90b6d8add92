package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/subsume"
	"axml/internal/tree"
)

// append-replicate: an origin peer holds log{entry × k}, a replica
// mirrors it. One operation pushes one new entry into origin and syncs
// the mirror until the replica's digest equals the origin's. Primary:
// k = appendLargeK; secondary: the same at k = appendSmallK, the same
// layer at a quarter of the siblings.
const (
	appendLargeK = 600
	appendSmallK = 150
)

// Reference counts for a 10-second run (≈0.52 s per append at k=600,
// ≈30 ms at k=150; both grow with the log, so the counts are part of
// what the medians mean).
const (
	appendLarge = 14
	appendSmall = 64
)

// replicaPair is one origin/replica pair at one size.
type replicaPair struct {
	size            string // "large" or "small": names the pair's root spans
	origin, replica *peer.Peer
	originReg       *obs.Registry
	replicaReg      *obs.Registry
	srv             *server
	client          *peer.Client
	mirror          *peer.Mirror
	entries         []*tree.Node // the appends, in order
	next            int
}

type appendInst struct {
	cfg          runConfig
	rec          *recorder
	chk          *checker
	httpc        *http.Client
	large, small *replicaPair
}

func setupAppend(cfg runConfig, rec *recorder, chk *checker) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &appendInst{cfg: cfg, rec: rec, chk: chk, httpc: newHTTPClient(rec)}
	largeK, smallK := appendLargeK, appendSmallK
	if cfg.quick {
		largeK, smallK = largeK/5, smallK/5
	}
	var err error
	if in.large, err = in.startPair(rng, "large", largeK, cfg.ops(appendLarge, 1)+1); err == nil {
		in.small, err = in.startPair(rng, "small", smallK, cfg.ops(appendSmall, 1)+1)
	}
	if err != nil {
		in.Close()
		return nil, err
	}
	// Warm-up: one append through each pair.
	for _, pr := range []*replicaPair{in.large, in.small} {
		if _, err := in.propagate(pr); err != nil {
			in.Close()
			return nil, err
		}
	}
	return in, nil
}

// logEntries builds n entries of one fixed wire size.
func logEntries(rng *rand.Rand, n int) []*tree.Node {
	ids, bodies := names(rng, "e", n), names(rng, "payload-", n)
	out := make([]*tree.Node, n)
	for i := range out {
		out[i] = tree.NewLabel("entry",
			tree.NewLabel("id", tree.NewValue(ids[i])), tree.NewLabel("body", tree.NewValue(bodies[i])))
	}
	return out
}

// startPair builds an origin with k entries and a replica synced to it.
func (in *appendInst) startPair(rng *rand.Rand, size string, k, appends int) (*replicaPair, error) {
	all := logEntries(rng, k+appends)
	pr := &replicaPair{size: size, entries: all[k:]}
	originSys, replicaSys := core.NewSystem(), core.NewSystem()
	// The root gets its own slice: pushes append to it in place.
	root := tree.NewLabel("log", append([]*tree.Node(nil), all[:k]...)...)
	err := originSys.AddDocument(tree.NewDocument("log", root))
	if err == nil {
		err = replicaSys.AddDocument(peer.NewReplicaDoc("log", "log"))
	}
	if err == nil {
		pr.origin, pr.originReg, err = openPeer("origin", originSys)
	}
	if err == nil {
		pr.replica, pr.replicaReg, err = openPeer("replica", replicaSys)
	}
	if err != nil {
		return nil, err
	}
	sub := peer.NewSubscriber(pr.origin)
	pr.origin.System(func(s *core.System) { sub.Register("append", "log", s.Document("log").Root) })
	mux := http.NewServeMux()
	mux.Handle(peer.PathPush, sub.Handler())
	mux.Handle("/", pr.origin.Handler())
	if pr.srv, err = listen(in.rec, mux); err != nil {
		return nil, err
	}
	pr.client = peer.NewClient(pr.srv.URL, in.httpc)
	pr.mirror = &peer.Mirror{Remote: pr.srv.URL, RemoteDoc: "log", LocalDoc: "log", Client: in.httpc}
	// The seeding sync is a full pull.
	_, err = pr.mirror.Sync(context.Background(), pr.replica)
	if err == nil && pr.origin.Hash() != pr.replica.Hash() {
		err = fmt.Errorf("%s replica did not reach the origin's digest on the seeding sync", size)
	}
	if err != nil {
		pr.srv.Close()
		return nil, err
	}
	return pr, nil
}

// propagate pushes the pair's next entry into origin and syncs the
// mirror until the digests agree — the stop condition is the check.
func (in *appendInst) propagate(pr *replicaPair) (time.Duration, error) {
	entry := pr.entries[pr.next]
	pr.next++
	ctx, end := in.rec.start(context.Background(), "propagate."+pr.size)
	defer end()
	t0 := time.Now()
	pctx, pend := in.rec.start(ctx, "client.push")
	err := pr.client.Push(pctx, "append", tree.Forest{entry})
	pend()
	if err != nil {
		return 0, err
	}
	for round := 0; ; round++ {
		if round == 4 {
			return 0, fmt.Errorf("%s replica still behind after %d syncs", pr.size, round)
		}
		sctx, send := in.rec.start(ctx, "mirror.sync")
		_, err := pr.mirror.Sync(sctx, pr.replica)
		send()
		if err != nil {
			return 0, err
		}
		if pr.origin.Hash() == pr.replica.Hash() {
			return time.Since(t0), nil
		}
	}
}

func (in *appendInst) measure(share float64) phase {
	ph := phase{layer: map[string]float64{}}
	run := func(pr *replicaPair, n int) []time.Duration {
		var out []time.Duration
		for i := 0; i < n; i++ {
			in.chk.op()
			d, err := in.propagate(pr)
			if !in.chk.err(err, "propagate "+pr.size) {
				out = append(out, d)
			}
		}
		return out
	}
	before := registryTotals(in.large.originReg)
	ph.primary = run(in.large, in.cfg.ops(appendLarge, share))
	moved := obs.DiffVars(before, registryTotals(in.large.originReg))
	ph.layer["e2e.wire_bytes_per_append"] = ratio(bytesOut(moved), float64(len(ph.primary)))
	ph.layer["peer.http.bytes_out_per_op"] = ph.layer["e2e.wire_bytes_per_append"]
	ph.layer["peer.delta.served_same"] = moved["peer.delta.served.same"]
	ph.layer["peer.delta.served_patch"] = moved["peer.delta.served.delta"]
	ph.layer["peer.delta.served_full"] = moved["peer.delta.served.full"]
	ph.secondary = run(in.small, in.cfg.ops(appendSmall, share))
	ph.ops = len(ph.primary) + len(ph.secondary)
	ph.wall = sum(ph.primary) + sum(ph.secondary)

	var fallbacks float64
	for _, pr := range []*replicaPair{in.large, in.small} {
		fallbacks += float64(pr.replicaReg.Counter("peer.mirror.delta_fallbacks").Value())
	}
	in.chk.check(fallbacks == 0, "%v mirror syncs fell back to a full pull", fallbacks)
	ph.layer["peer.mirror.delta_fallbacks"] = fallbacks
	ph.state = in.large.replica.Hash() + in.small.replica.Hash()
	return ph
}

func (in *appendInst) layers(v traceView) map[string]float64 {
	out := map[string]float64{}
	serverLayers(v, out)
	// The mirror, push and handler figures are the k=600 operations'
	// alone.
	var large traceView
	for _, o := range v {
		if o.root.name == "propagate.large" {
			large = append(large, o)
		}
	}
	out["peer.mirror.sync_ms"] = median(large.perSpan("mirror.sync", false))
	out["peer.mirror.apply_self_ms"] = median(large.perSpan("mirror.sync", true))
	out["peer.push.ack_ms"] = median(large.perSpan("client.push", false))
	out["peer.http.push_ms"] = median(large.perSpan("server.push", true))
	out["peer.http.delta_ms"] = median(large.perSpan("server.delta", true))
	return out
}

// kernels times the append path's layers in isolation on copies of the
// live logs, in the memo state an operation finds them in. Every
// iteration works on fresh copies, made outside the timed call: the
// functions memoize digests and reduced flags in the nodes they visit.
func (in *appendInst) kernels() (map[string]float64, error) {
	live := func(p *peer.Peer) (root *tree.Node) {
		p.System(func(s *core.System) { root = s.Document("log").Root.Copy() })
		return root
	}
	extra := logEntries(rand.New(rand.NewSource(in.cfg.seed^0x5eed)), 1)[0]
	appendOne := func(c *tree.Node) {
		c.Children = append(c.Children, extra.Copy())
		tree.InvalidateDigestAll(c)
		subsume.ReduceInPlace(c)
	}
	rounds := 5
	if in.cfg.quick {
		rounds = 1
	}
	appendReduce := func(base *tree.Node) float64 {
		d, _ := timePrepared(rounds, func() func() error {
			c := base.Copy()
			return func() error { appendOne(c); return nil }
		})
		return d
	}
	origin, replica := live(in.large.origin), live(in.large.replica)
	// grown is the log with one more entry, reduced, as the origin holds
	// it after a push.
	grown := origin.Copy()
	appendOne(grown)

	out, err := wireKernels(origin)
	if err != nil {
		return nil, err
	}
	out["subsume.append_reduce_ms"] = appendReduce(origin)
	out["subsume.append_reduce_small_ms"] = appendReduce(live(in.small.origin))
	out["subsume.append_growth"] = ratio(out["subsume.append_reduce_ms"], out["subsume.append_reduce_small_ms"])
	out["subsume.union_ms"], _ = timePrepared(rounds, func() func() error {
		a, b := replica.Copy(), grown.Copy()
		return func() error { subsume.Union(a, b); return nil }
	})
	out["tree.digest_ms"], _ = timePrepared(rounds, func() func() error {
		c := origin.Copy()
		return func() error {
			tree.InvalidateDigestAll(c)
			c.CanonicalHash()
			return nil
		}
	})
	out["peer.delta.prune_since_ms"], _ = timePrepared(rounds, func() func() error {
		cur, anchor := grown.Copy(), origin.Copy()
		return func() error { peer.PruneSince(cur, anchor); return nil }
	})
	out["peer.delta.apply_patch_ms"], err = timePrepared(rounds, func() func() error {
		patch, local := peer.PruneSince(grown.Copy(), origin.Copy()), replica.Copy()
		return func() error {
			_, err := peer.ApplyPatch(local, patch)
			return err
		}
	})
	return out, err
}

func (in *appendInst) Close() {
	for _, pr := range []*replicaPair{in.large, in.small} {
		if pr != nil {
			pr.srv.Close()
		}
	}
	in.httpc.CloseIdleConnections()
}
