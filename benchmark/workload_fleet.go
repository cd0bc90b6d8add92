package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/loadgen"
	"axml/internal/obs"
	"axml/internal/pattern"
	"axml/internal/peer"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// fleet-serve: two in-memory peers, each with fleetDocs store
// documents of fleetItems items, an inbox fed by a Subscriber and a
// view of fleetSlots Lookup slots that makes a sweep hold the peer for
// several milliseconds. A closed loop of fleetCallers callers without
// think time runs a seeded plan of reads (doc, delta, invoke, hashes:
// primary) and writes (push, sweep: secondary). Push keys come from a
// fixed universe loaded in the warm-up, so the run is stationary.
const (
	fleetPeers   = 2
	fleetDocs    = 8
	fleetItems   = 64
	fleetKeys    = 32
	fleetSlots   = 4
	fleetCallers = 2
)

// Reference counts for a 10-second run (≈1100 ops/s closed loop).
const (
	fleetOps     = 10000
	fleetWarmOps = 500
	// The open-loop phase of the traced run: arrivals per second and
	// horizon (the horizon scales with the run, the rate does not).
	fleetOpenRate    = 150.0
	fleetOpenHorizon = 8 * time.Second
)

type opKind int

const (
	opDoc opKind = iota
	opDelta
	opInvoke
	opHashes
	opPush
	opSweep
)

var opNames = [...]string{"doc", "delta", "invoke", "hashes", "push", "sweep"}

// opShares is the mix in percent, in opKind order: 80 % reads, 20 %
// writes.
var opShares = [...]int{30, 30, 10, 10, 15, 5}

func (k opKind) write() bool { return k == opPush || k == opSweep }

// plannedOp is one operation of the seeded plan.
type plannedOp struct {
	kind             opKind
	target, doc, key int
}

// planner expands a seed into an operation stream: mix by opShares,
// uniform target and key, zipf(1.2) document popularity.
type planner struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newPlanner(seed int64) *planner {
	rng := rand.New(rand.NewSource(seed))
	return &planner{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, fleetDocs-1)}
}

func (p *planner) next() plannedOp {
	op := plannedOp{target: p.rng.Intn(fleetPeers), doc: int(p.zipf.Uint64()), key: p.rng.Intn(fleetKeys)}
	x := p.rng.Intn(100)
	for k, share := range opShares {
		if x < share {
			op.kind = opKind(k)
			break
		}
		x -= share
	}
	return op
}

func (p *planner) plan(n int) []plannedOp {
	out := make([]plannedOp, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

type fleetInst struct {
	cfg     runConfig
	rec     *recorder
	chk     *checker
	chkMu   sync.Mutex // the callers share chk
	peers   []*peer.Peer
	regs    []*obs.Registry
	servers []*server
	httpc   *http.Client
	clients []*peer.Client
	keys    []string
	docs    []string
	lookup  *pattern.Node // Lookup's body pattern, for the kernel
	// planners are the callers' streams; anchors their last
	// acknowledged delta digests per (target, doc).
	planners []*planner
	anchors  []map[[2]int]string
}

func setupFleet(cfg runConfig, rec *recorder, chk *checker) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &fleetInst{cfg: cfg, rec: rec, chk: chk, httpc: newHTTPClient(rec), keys: names(rng, "k", fleetKeys)}
	var src strings.Builder
	for d := 0; d < fleetDocs; d++ {
		in.docs = append(in.docs, fmt.Sprintf("d%02d", d))
		ids, vals := names(rng, "i", fleetItems), names(rng, "v", fleetItems)
		fmt.Fprintf(&src, "doc d%02d = store{", d)
		for i := range ids {
			if i > 0 {
				src.WriteByte(',')
			}
			fmt.Fprintf(&src, `item{id{"%s"},val{"%s"}}`, ids[i], vals[i])
		}
		src.WriteString("}\n")
	}
	src.WriteString("doc inbox = inbox\ndoc view = v{")
	for i := 0; i < fleetSlots; i++ {
		if i > 0 {
			src.WriteByte(',')
		}
		fmt.Fprintf(&src, `slot{n{"%d"},!Lookup}`, i)
	}
	src.WriteString("}\n")
	src.WriteString(`func Lookup = hit{id{$k},val{$v}} :- d00/store{item{id{$k},val{$v}}}` + "\n")
	spec, err := syntax.ParseSystem(src.String())
	if err != nil {
		return nil, err
	}
	in.lookup = spec.Funcs[0].Body[0].Pattern

	for i := 0; i < fleetPeers; i++ {
		sys, err := buildSystem(rec, src.String())
		if err != nil {
			in.Close()
			return nil, err
		}
		p, reg, err := openPeer(fmt.Sprintf("fleet%d", i), sys)
		if err != nil {
			in.Close()
			return nil, err
		}
		sub := peer.NewSubscriber(p)
		p.System(func(s *core.System) { sub.Register("ingest", "inbox", s.Document("inbox").Root) })
		mux := http.NewServeMux()
		mux.Handle(peer.PathPush, sub.Handler())
		mux.Handle("/", p.Handler())
		srv, err := listen(rec, mux)
		if err != nil {
			in.Close()
			return nil, err
		}
		in.peers, in.regs, in.servers = append(in.peers, p), append(in.regs, reg), append(in.servers, srv)
		in.clients = append(in.clients, peer.NewClient(srv.URL, in.httpc))
	}
	for c := 0; c < fleetCallers; c++ {
		in.planners = append(in.planners, newPlanner(cfg.seed*7919+int64(c)))
		in.anchors = append(in.anchors, map[[2]int]string{})
	}

	// Warm-up: load the whole key universe into both inboxes, sweep the
	// views to their fixpoint, then a stretch of the plan itself.
	ctx := context.Background()
	for t := range in.clients {
		for k := range in.keys {
			if err := in.exec(ctx, 0, plannedOp{kind: opPush, target: t, key: k}); err != nil {
				in.Close()
				return nil, err
			}
		}
		if err := in.exec(ctx, 0, plannedOp{kind: opSweep, target: t}); err != nil {
			in.Close()
			return nil, err
		}
	}
	warm := &checker{}
	if in.closedLoop(cfg.ops(fleetWarmOps, 1), warm); warm.failed > 0 {
		in.Close()
		return nil, fmt.Errorf("fleet warm-up: %s", warm.msgs[0])
	}
	return in, nil
}

// exec performs one planned operation through peer.Client and checks
// that the response decodes to what the peer must hold.
func (in *fleetInst) exec(ctx context.Context, caller int, op plannedOp) error {
	cl := in.clients[op.target]
	ctx, end := in.rec.start(ctx, "client."+opNames[op.kind])
	defer end()
	switch op.kind {
	case opDoc:
		root, err := cl.Doc(ctx, in.docs[op.doc])
		if err == nil && len(root.Children) != fleetItems {
			err = fmt.Errorf("doc %s: %d items", in.docs[op.doc], len(root.Children))
		}
		return err
	case opDelta:
		at := [2]int{op.target, op.doc}
		d, err := cl.Delta(ctx, in.docs[op.doc], in.anchors[caller][at])
		if err != nil {
			return err
		}
		if d.Mode == peer.DeltaFull && (d.Full == nil || len(d.Full.Children) != fleetItems) {
			return fmt.Errorf("delta %s: malformed full answer", in.docs[op.doc])
		}
		in.anchors[caller][at] = d.To
		return nil
	case opInvoke:
		hits, err := cl.Invoke(ctx, peer.Envelope{Service: "Lookup"})
		if err == nil && len(hits) != fleetItems {
			err = fmt.Errorf("invoke Lookup: %d hits", len(hits))
		}
		return err
	case opHashes:
		hashes, err := cl.Hashes(ctx)
		if err == nil && len(hashes) != fleetDocs+2 {
			err = fmt.Errorf("hashes: %d documents", len(hashes))
		}
		return err
	case opPush:
		return cl.Push(ctx, "ingest", tree.Forest{in.pushed(op.key)})
	default:
		_, err := cl.Sweep(ctx)
		return err
	}
}

func (in *fleetInst) pushed(key int) *tree.Node {
	return tree.NewLabel("got", tree.NewLabel("key", tree.NewValue(in.keys[key])))
}

// fleetLatencies are the raw latencies of one loop.
type fleetLatencies struct {
	reads, writes []time.Duration
	byKind        [len(opNames)]int
}

// closedLoop has every caller run the next n/fleetCallers operations of
// its stream back to back.
func (in *fleetInst) closedLoop(n int, chk *checker) (fleetLatencies, time.Duration) {
	per := make([]fleetLatencies, fleetCallers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < fleetCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, op := range in.planners[c].plan(n / fleetCallers) {
				in.timed(c, op, time.Now(), &per[c], chk)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all fleetLatencies
	for _, l := range per {
		all.reads = append(all.reads, l.reads...)
		all.writes = append(all.writes, l.writes...)
		for k, n := range l.byKind {
			all.byKind[k] += n
		}
	}
	return all, wall
}

// timed runs one operation under a root span and files its latency,
// measured from the given origin (its start in the closed loop, its due
// time in the open loop).
func (in *fleetInst) timed(caller int, op plannedOp, from time.Time, into *fleetLatencies, chk *checker) {
	root := "read"
	if op.kind.write() {
		root = "write"
	}
	ctx, end := in.rec.start(context.Background(), root)
	err := in.exec(ctx, caller, op)
	d := time.Since(from)
	end()
	in.chkMu.Lock()
	chk.op()
	chk.err(err, opNames[op.kind])
	in.chkMu.Unlock()
	if err != nil {
		return
	}
	into.byKind[op.kind]++
	if op.kind.write() {
		into.writes = append(into.writes, d)
	} else {
		into.reads = append(into.reads, d)
	}
}

func (in *fleetInst) measure(share float64) phase {
	ph := phase{layer: map[string]float64{}}
	before := registryTotals(in.regs...)
	lat, wall := in.closedLoop(in.cfg.ops(fleetOps, share), in.chk)
	ph.primary, ph.secondary, ph.wall = lat.reads, lat.writes, wall
	ph.ops = len(lat.reads) + len(lat.writes)

	// The inboxes hold exactly the key universe, and the peers agree.
	var states []string
	for _, p := range in.peers {
		p.System(func(s *core.System) {
			inbox := s.Document("inbox").Root
			have := map[tree.Hash]bool{}
			for _, c := range inbox.Children {
				have[c.CanonicalHash()] = true
			}
			ok := len(inbox.Children) == fleetKeys
			for k := range in.keys {
				ok = ok && have[in.pushed(k).CanonicalHash()]
			}
			in.chk.check(ok, "%s: inbox holds %d entries, want exactly the %d keys", p.Name, len(inbox.Children), fleetKeys)
		})
		states = append(states, p.Hash())
	}
	in.chk.check(states[0] == states[1], "the two peers diverged")
	ph.state = states[0]

	moved := obs.DiffVars(before, registryTotals(in.regs...))
	sweeps := float64(lat.byKind[opSweep])
	ph.layer["core.calls_fired"] = ratio(moved["engine.calls.fired"], sweeps)
	ph.layer["core.calls_sterile"] = ratio(moved["engine.calls.sterile"], sweeps)
	ph.layer["core.delta_evals"] = ratio(moved["engine.delta_evals"], sweeps)
	ph.layer["peer.delta.served_same"] = moved["peer.delta.served.same"]
	ph.layer["peer.delta.served_patch"] = moved["peer.delta.served.delta"]
	ph.layer["peer.delta.served_full"] = moved["peer.delta.served.full"]
	ph.layer["peer.http.bytes_out_per_op"] = ratio(bytesOut(moved), float64(ph.ops))
	return ph
}

// openLoop replays a seeded Poisson schedule against the same callers:
// a generator hands each operation over at its due time, latency runs
// from the due time, and the generator's own lateness is reported.
func (in *fleetInst) openLoop(share float64) map[string]float64 {
	horizon := time.Duration(float64(fleetOpenHorizon) * in.cfg.seconds / 10 * share)
	schedule := loadgen.PoissonSchedule(in.cfg.seed, fleetOpenRate, horizon)
	plan := newPlanner(in.cfg.seed*7919 + fleetCallers).plan(len(schedule))
	type due struct {
		op plannedOp
		at time.Time
	}
	// Sized to the number of sends: the generator never blocks on busy
	// callers, so its lateness is its own.
	queue := make(chan due, len(schedule))
	late := make([]time.Duration, len(schedule))
	per := make([]fleetLatencies, fleetCallers)
	var wg sync.WaitGroup
	for c := 0; c < fleetCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for d := range queue {
				in.timed(c, d.op, d.at, &per[c], in.chk)
			}
		}(c)
	}
	t0 := time.Now()
	for i, offset := range schedule {
		at := t0.Add(offset)
		time.Sleep(time.Until(at))
		late[i] = time.Since(at)
		queue <- due{plan[i], at}
	}
	close(queue)
	wg.Wait()
	wall := time.Since(t0)
	var reads, writes []time.Duration
	for _, l := range per {
		reads, writes = append(reads, l.reads...), append(writes, l.writes...)
	}
	return map[string]float64{
		"loadgen.open_read_p50_ms":  median(ms(reads)),
		"loadgen.open_read_p99_ms":  percentile(ms(reads), 99),
		"loadgen.open_write_p99_ms": percentile(ms(writes), 99),
		"loadgen.open_late_p95_ms":  percentile(ms(late), 95),
		"loadgen.open_achieved_rps": ratio(float64(len(reads)+len(writes)), wall.Seconds()),
	}
}

func (in *fleetInst) layers(v traceView) map[string]float64 {
	out := map[string]float64{
		"core.service_ms":     median(v.perOp("write", "service.")),
		"core.engine_self_ms": median(v.perSpan("server.sweep", true)),
	}
	serverLayers(v, out)
	return out
}

func (in *fleetInst) kernels() (map[string]float64, error) {
	var d00 *tree.Node
	in.peers[0].System(func(s *core.System) { d00 = s.Document("d00").Root.Copy() })
	out, err := wireKernels(d00)
	if err != nil {
		return nil, err
	}
	match, err := timeKernel(200, func() error {
		if n := len(pattern.Match(in.lookup, d00)); n != fleetItems {
			return fmt.Errorf("Lookup's body matches %d of %d items", n, fleetItems)
		}
		return nil
	})
	out["pattern.match_us"] = 1000 * match
	// The open-loop phase rides the per-layer run, untraced: its numbers
	// are informational and ungated.
	for k, v := range in.openLoop(tracedShare) {
		out[k] = v
	}
	return out, err
}

func (in *fleetInst) Close() {
	for _, s := range in.servers {
		s.Close()
	}
	in.httpc.CloseIdleConnections()
}
