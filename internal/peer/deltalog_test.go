package peer

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/subsume"
	"axml/internal/syntax"
	"axml/internal/tree"
)

// logSyncScenario is one seed's configuration of the log-sync property.
type logSyncScenario struct {
	anchors int  // the origin's anchors per document
	logCap  int  // the origin's log byte cap (0: deltaLogBytes)
	adopt   bool // the origin starts as a replica seed and adopts a marking
	strict  bool // no eviction and no cap: every anchored sync after growth answers log
}

func logSyncScenarioFor(seed int64) logSyncScenario {
	switch seed % 4 {
	case 0:
		return logSyncScenario{anchors: 64, strict: true}
	case 1:
		return logSyncScenario{anchors: 1} // window misses
	case 2:
		return logSyncScenario{anchors: 64, logCap: 400} // the cap trims
	default:
		return logSyncScenario{anchors: 4, adopt: true}
	}
}

// TestLogSyncMatchesFullSync is the differential property of log mode:
// two replicas of one origin, kept by the origin's graft records, must
// stay digest-equal to references that merge a full copy of the origin at
// the same moments, whatever the growth sequence. The sequences graft at
// the root and below it, graft trees that prune earlier records' fresh
// trees, edit by hand (Touch), adopt a seed marking, evict anchors, trim
// the log at its cap and grow one replica locally on a record's path.
// Replica a never grows locally, so after every sync it equals the origin;
// replica b's local growth keeps it ⊒ the origin, and a record whose path
// runs through it is a counted fallback.
func TestLogSyncMatchesFullSync(t *testing.T) {
	var served = map[string]int64{}
	var fallbacks int64
	for seed := int64(0); seed < 48; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, f := runLogSync(t, seed, logSyncScenarioFor(seed))
			for mode, n := range s {
				served[mode] += n
			}
			fallbacks += f
		})
	}
	if served[DeltaLog] == 0 || served[DeltaFull] == 0 || fallbacks == 0 {
		t.Fatalf("the property never exercised a path: served %v, fallbacks %d", served, fallbacks)
	}
}

func runLogSync(t *testing.T, seed int64, sc logSyncScenario) (served map[string]int64, fallbacks int64) {
	rng := rand.New(rand.NewSource(seed))
	src := `doc log = log{sec{x}}`
	if sc.adopt {
		src = `doc log = seed`
	}
	reg := obs.NewRegistry()
	origin := mustOpen("origin", core.MustParseSystem(src), WithObservability(reg))
	origin.anchors.max = sc.anchors
	if sc.logCap > 0 {
		origin.anchors.logCap = sc.logCap
	}
	srv := httptest.NewServer(origin.Handler())
	defer srv.Close()
	ctx := context.Background()

	type replica struct {
		p, ref *Peer
		reg    *obs.Registry
		m      *Mirror
		// Since the last sync: a whole-document change of the state
		// (reset), or any whole-document event, which drops the log (touched).
		reset, touched bool
	}
	newReplica := func(name string) *replica {
		r := &replica{reg: obs.NewRegistry(), m: &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}}
		r.p = mustOpen(name, core.MustParseSystem(`doc log = seed`), WithObservability(r.reg))
		r.ref = mustOpen(name+"-ref", core.MustParseSystem(`doc log = seed`))
		return r
	}
	a, b := newReplica("a"), newReplica("b")
	originRoot := func() (root *tree.Node) {
		origin.System(func(s *core.System) { root = s.Document("log").Root.Copy() })
		return root
	}
	syncR := func(r *replica) {
		t.Helper()
		before := map[string]int64{}
		for _, mode := range []string{DeltaLog, DeltaFull} {
			before[mode] = reg.Counter("peer.delta.served." + mode).Value()
		}
		anchored, grown := r.m.acked() != "", r.m.acked() != docHash(origin, "log")
		if _, err := r.m.Sync(ctx, r.p); err != nil {
			t.Fatal(err)
		}
		cur := originRoot()
		r.ref.System(func(s *core.System) {
			if _, err := s.Restore("log", cur.Copy()); err != nil {
				t.Fatal(err)
			}
		})
		if got, want := docHash(r.p, "log"), docHash(r.ref, "log"); got != want {
			t.Fatalf("replica %s at %s, a full sync reaches %s", r.p.Name, got, want)
		}
		r.p.System(func(s *core.System) {
			local := s.Document("log").Root
			if !subsume.Subsumed(cur, local) || r == a && !subsume.Subsumed(local, cur) {
				t.Fatalf("replica %s %s against origin %s", r.p.Name, local.CanonicalString(), cur.CanonicalString())
			}
		})
		logs := reg.Counter("peer.delta.served."+DeltaLog).Value() - before[DeltaLog]
		switch {
		case r.reset && logs != 0:
			t.Fatalf("replica %s got a log answer across a whole-document change", r.p.Name)
		case sc.strict && anchored && grown && !r.touched && logs != 1:
			t.Fatalf("replica %s: an anchored sync after growth answered no log", r.p.Name)
		}
		r.reset, r.touched = false, false
	}
	// growLocal grows replica b and its reference alike, under the root
	// or under one of its children picked by digest (the two may order
	// children differently).
	growLocal := func() {
		add := randomTree(rng, 2)
		var h tree.Hash
		if rng.Intn(3) > 0 {
			b.p.System(func(s *core.System) {
				if cs := s.Document("log").Root.Children; len(cs) > 0 {
					if c := cs[rng.Intn(len(cs))]; c.Kind != tree.Value {
						h = c.Digest()
					}
				}
			})
		}
		for _, p := range []*Peer{b.p, b.ref} {
			p.System(func(s *core.System) {
				at := s.Document("log").Root
				for _, c := range at.Children {
					if c.Digest() == h {
						at = c
						break
					}
				}
				if _, err := s.Append("log", at, tree.Forest{add.Copy()}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	syncR(a)
	syncR(b)
	if sc.adopt {
		origin.System(func(s *core.System) {
			if _, err := s.Restore("log", syntax.MustParseDocument(`log{sec{x}}`)); err != nil {
				t.Fatal(err)
			}
		})
		a.reset, b.reset, a.touched, b.touched = true, true, true, true
		syncR(a) // b's local growth needs the adopted marking
		syncR(b)
	}
	for step := 0; step < 30; step++ {
		origin.System(func(s *core.System) {
			root := s.Document("log").Root
			var pick *tree.Node // a random child that can hold children
			if cs := root.Children; len(cs) > 0 {
				if c := cs[rng.Intn(len(cs))]; c.Kind != tree.Value {
					pick = c
				}
			}
			switch k := rng.Intn(10); {
			case k == 0: // by hand: the log resets (an edit that adds nothing keeps the state)
				before := root.Digest()
				root.Children = append(root.Children, randomTree(rng, 2))
				tree.InvalidateDigestAll(root)
				subsume.ReduceInPlace(root)
				s.Touch("log")
				a.touched, b.touched = true, true
				if root.Digest() != before {
					a.reset, b.reset = true, true
				}
			case k <= 3 && pick != nil: // a graft whose reduction prunes pick
				grown := pick.Copy()
				grown.Children = append(grown.Children, randomTree(rng, 1))
				_, err := s.Append("log", root, tree.Forest{grown})
				if err != nil {
					t.Fatal(err)
				}
			case k <= 6 && pick != nil: // below the root
				if _, err := s.Append("log", pick, tree.Forest{randomTree(rng, 2)}); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := s.Append("log", root, tree.Forest{randomTree(rng, 3)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		if rng.Intn(4) == 0 {
			growLocal()
		}
		if rng.Intn(3) > 0 {
			syncR(a)
		}
		if rng.Intn(3) > 0 {
			syncR(b)
		}
	}
	syncR(a)
	syncR(b)
	served = map[string]int64{}
	for _, mode := range []string{DeltaSame, DeltaLog, DeltaFull} {
		served[mode] = reg.Counter("peer.delta.served." + mode).Value()
	}
	if a.reg.Counter("peer.mirror.delta_fallbacks").Value() != 0 {
		t.Fatal("replica a, which never grows locally, fell back")
	}
	return served, b.reg.Counter("peer.mirror.delta_fallbacks").Value()
}

// TestDeltaLogWindow pins the window rule on the cache itself: the log
// keeps every record after the oldest live anchor, answers an anchor
// with exactly the records since it, strands anchors whose records the
// cap dropped, and a whole-document change drops the log and anchors.
func TestDeltaLogWindow(t *testing.T) {
	da := newDeltaAnchors()
	da.max = 2
	records := func(from string) int {
		frames := da.since("d", from)
		if frames == nil {
			return -1
		}
		recs, err := unmarshalFrames(frames, "d")
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	rec := func(i int) []byte {
		b, err := marshalGraftRecord("d", nil, tree.Forest{tree.NewLabel(fmt.Sprintf("e%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	da.grew("d", rec(0)) // no anchor yet: not logged
	da.remember("d", "s0")
	da.grew("d", rec(1))
	da.grew("d", rec(2))
	da.remember("d", "s2")
	da.grew("d", rec(3))
	if got := records("s0"); got != 3 {
		t.Fatalf("from s0: %d records, want 3", got)
	}
	if got := records("s2"); got != 1 {
		t.Fatalf("from s2: %d records, want 1", got)
	}
	da.remember("d", "s3") // evicts s0; the next growth trims its records
	da.grew("d", rec(4))
	if n, _ := da.size("d"); n != 2 || records("s0") != -1 || records("s2") != 2 {
		t.Fatalf("after eviction: %d records held, s0 %d, s2 %d", n, records("s0"), records("s2"))
	}
	da.logCap = 2 * len(rec(5)) // room for two records: s2 is stranded, s3 answered
	da.grew("d", rec(5))
	if records("s2") != -1 || records("s3") != 2 {
		t.Fatalf("at the cap: s2 %d, s3 %d", records("s2"), records("s3"))
	}
	da.grew("d", nil)
	if da.logging("d") || records("s3") != -1 {
		t.Fatal("a whole-document change left the log")
	}
}

// TestMirrorSyncSerialized: one goroutine syncs a mirror in a loop while
// another grows the origin and runs anti-entropy over the same mirror.
// The two syncs and the anti-entropy read of the acknowledged digest must
// not race, and every sync leaves the replica exactly at the state it
// acknowledged: a record missed or replayed twice would show there.
func TestMirrorSyncSerialized(t *testing.T) {
	origin := mustOpen("origin", core.MustParseSystem(`doc log = log{s0}`))
	srv := httptest.NewServer(origin.Handler())
	defer srv.Close()
	local := mustOpen("local", core.MustParseSystem(`doc log = log`))
	m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
	local.AddMirror(m)
	ctx := context.Background()

	const rounds = 150
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := m.Sync(ctx, local); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			growDoc(origin, "log", fmt.Sprintf(`e%d{"v"}`, i))
			if _, err := local.AntiEntropy(ctx); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := docHash(local, "log"); got != m.acked() {
		t.Fatalf("replica at %s, acknowledged %s", got, m.acked())
	}
	if _, err := m.Sync(ctx, local); err != nil {
		t.Fatal(err)
	}
	if got, want := docHash(local, "log"), docHash(origin, "log"); got != want {
		t.Fatalf("replica at %s after a final sync, origin at %s", got, want)
	}
}

// TestMirrorSyncMatchesAckUnderGrowth: syncs race growths at the
// origin, and each must leave the replica exactly at the digest it
// acknowledged. An anchor paired with a growth count read after its
// state was served would skip the growth that landed in between.
func TestMirrorSyncMatchesAckUnderGrowth(t *testing.T) {
	origin := mustOpen("origin", core.MustParseSystem(`doc log = log{s0}`))
	srv := httptest.NewServer(origin.Handler())
	defer srv.Close()
	local := mustOpen("local", core.MustParseSystem(`doc log = log`))
	m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
	ctx := context.Background()
	// The grower spends one token per growth; each sync hands out two, so
	// growths keep landing while syncs are served, and the log stays small.
	tokens := make(chan struct{}, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			if _, ok := <-tokens; !ok {
				return
			}
			growDoc(origin, "log", fmt.Sprintf(`e%d`, i))
			runtime.Gosched()
		}
	}()
	defer func() { close(tokens); wg.Wait() }()
	for i := 0; i < 400; i++ {
		for len(tokens) < cap(tokens) {
			tokens <- struct{}{}
		}
		if _, err := m.Sync(ctx, local); err != nil {
			t.Fatal(err)
		}
		if got := local.localDigest("log"); got != m.acked() {
			t.Fatalf("sync %d: replica at %s, acknowledged %s", i, got, m.acked())
		}
	}
}

// TestClientDeltaRejectsBadLog: a log answer without an anchor or
// records, with a frame past the body, or with a record of another
// document is refused by Client.Delta, and a mirror fed one grafts
// nothing, into its own document or any other.
func TestClientDeltaRejectsBadLog(t *testing.T) {
	rec := func(doc string) []byte {
		b, err := marshalGraftRecord(doc, nil, tree.Forest{tree.NewLabel("x")})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	head := func(doc, from string) string {
		if from == "" {
			return `<ax:delta name="` + doc + `" mode="log" to="00112233aabbccdd"></ax:delta>`
		}
		return `<ax:delta name="` + doc + `" mode="log" from="` + from + `" to="00112233aabbccdd"></ax:delta>`
	}
	const from = "deadbeefdeadbeef"
	var body string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	}))
	defer srv.Close()
	good := head("log", from) + string(appendFrame(nil, rec("log")))
	bad := map[string]string{
		"no from":          head("log", "") + string(appendFrame(nil, rec("log"))),
		"no records":       head("log", from),
		"frame past body":  head("log", from) + string(appendFrame(nil, rec("log"))[:8]),
		"length past body": head("log", from) + "\x7f" + string(rec("log")),
		"other document":   head("log", from) + string(appendFrame(appendFrame(nil, rec("log")), rec("other"))),
		"answer for other": head("other", from) + string(appendFrame(nil, rec("other"))),
	}
	ctx := context.Background()
	body = good
	if d, err := NewClient(srv.URL, nil).Delta(ctx, "log", from); err != nil || len(d.Log) != 1 {
		t.Fatalf("well-formed log answer: %+v, %v", d, err)
	}
	local := mustOpen("local", core.MustParseSystem("doc log = log\ndoc other = log"))
	before := local.Hash()
	for what, b := range bad {
		body = b
		if _, err := NewClient(srv.URL, nil).Delta(ctx, "log", from); err == nil {
			t.Errorf("%s: accepted", what)
		}
		m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log", lastRemote: from}
		if _, err := m.Sync(ctx, local); err == nil {
			t.Errorf("%s: mirror synced", what)
		}
		if local.Hash() != before {
			t.Fatalf("%s: a rejected answer changed the peer", what)
		}
	}
}

// TestDeltaLogStatus: after one log sync the origin's registry and
// /axml/status show the log, and the replica counts the sync a delta.
func TestDeltaLogStatus(t *testing.T) {
	reg, replicaReg := obs.NewRegistry(), obs.NewRegistry()
	origin := mustOpen("origin", core.MustParseSystem(`doc log = log{s0}`), WithObservability(reg))
	srv := httptest.NewServer(origin.Handler())
	defer srv.Close()
	local := mustOpen("local", core.MustParseSystem(`doc log = log`), WithObservability(replicaReg))
	m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
	ctx := context.Background()
	if _, err := m.Sync(ctx, local); err != nil {
		t.Fatal(err)
	}
	growDoc(origin, "log", `s1`)
	if _, err := m.Sync(ctx, local); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("peer.delta.served.log").Value(); n != 1 {
		t.Fatalf("peer.delta.served.log = %d, want 1", n)
	}
	if n := replicaReg.Counter("peer.mirror.deltas").Value(); n != 1 {
		t.Fatalf("peer.mirror.deltas = %d, want 1", n)
	}
	snap := reg.Snapshot()
	if snap["peer.delta.log_records"] != int64(1) || snap["peer.delta.log_bytes"] == int64(0) {
		t.Fatalf("log gauges: records %v, bytes %v", snap["peer.delta.log_records"], snap["peer.delta.log_bytes"])
	}
	rep, err := NewClient(srv.URL, nil).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Docs) != 1 || rep.Docs[0].LogRecords != 1 || rep.Docs[0].LogBytes == 0 {
		t.Fatalf("status docs: %+v", rep.Docs)
	}
}

// BenchmarkDeltaSync times one append at a 600-entry origin plus one
// mirror sync of a replica that holds the origin's previous state — the
// log answer and its replay — with the replica's digest checked after
// each sync.
func BenchmarkDeltaSync(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`doc log = log{`)
	for i := 0; i < 600; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `entry{id{"e%d"},body{"payload-%d"}}`, i, i)
	}
	sb.WriteString(`}`)
	origin := mustOpen("origin", core.MustParseSystem(sb.String()))
	srv := httptest.NewServer(origin.Handler())
	defer srv.Close()
	local := mustOpen("local", core.MustParseSystem(`doc log = log`))
	m := &Mirror{Remote: srv.URL, RemoteDoc: "log", LocalDoc: "log"}
	ctx := context.Background()
	if _, err := m.Sync(ctx, local); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		growDoc(origin, "log", fmt.Sprintf(`entry{id{"n%d"},body{"payload-n%d"}}`, i, i))
		if _, err := m.Sync(ctx, local); err != nil {
			b.Fatal(err)
		}
		if local.localDigest("log") != m.acked() {
			b.Fatal("replica diverged from the acknowledged state")
		}
	}
}
