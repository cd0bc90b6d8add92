package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"axml/internal/core"
	"axml/internal/journal"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/tree"
)

// durable-ingest: one durable peer (SyncEvery 1: every acknowledged
// push was fsynced; SnapshotEvery left at its default 64) with
// durableDocs inbox documents, fed single-entry pushes round-robin by
// one caller. Documents stay small so the journal and its fsync, not
// sibling reduction, are the cost. Primary: one durable push
// acknowledged. Secondary: peer.Open on a crash image — a copy of the
// data directory taken without Close, its journal cut to the size it
// had at the last acknowledged push.
const durableDocs = 128

// Reference counts for a 10-second run (≈1 ms per push as the inboxes
// fill to 50 entries). Warm-up plus pushes stop 32 records past a
// snapshot at both the full and the quarter count, so recovery replays
// a half-full journal on top of the snapshot, never the snapshot alone.
const (
	durablePushes   = 6400
	durableWarm     = 96 // not scaled
	durableRecovers = 15 // not scaled: a recovery's time swings ±20 % with where collections fall
)

type durableInst struct {
	cfg     runConfig
	rec     *recorder
	chk     *checker
	dir     string // this instance's scratch directory, removed on Close
	peer    *peer.Peer
	reg     *obs.Registry
	srv     *server
	httpc   *http.Client
	client  *peer.Client
	entries []*tree.Node
	next    int
}

func durableDocName(i int) string { return fmt.Sprintf("inbox%03d", i) }

// durableSystem is the definition a durable peer is (re)opened with:
// the empty inboxes; their contents come from the journal.
func durableSystem() (*core.System, error) {
	s := core.NewSystem()
	for i := 0; i < durableDocs; i++ {
		if err := s.AddDocument(tree.NewDocument(durableDocName(i), tree.NewLabel("inbox"))); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func setupDurable(cfg runConfig, rec *recorder, chk *checker) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &durableInst{cfg: cfg, rec: rec, chk: chk, httpc: newHTTPClient(rec)}
	in.entries = logEntries(rng, durableWarm+cfg.ops(durablePushes, 1))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if in.dir, err = os.MkdirTemp(cfg.outDir, "data-durable-"); err != nil {
		return nil, err
	}
	sys, err := durableSystem()
	if err != nil {
		in.Close()
		return nil, err
	}
	d := peer.Durability{Dir: filepath.Join(in.dir, "live"), SyncEvery: 1}
	if rec != nil {
		d.WrapWriter = rec.journalWriter
	}
	if in.peer, in.reg, err = openPeer("durable", sys, peer.WithDurability(d)); err != nil {
		in.Close()
		return nil, err
	}
	sub := peer.NewSubscriber(in.peer)
	in.peer.System(func(s *core.System) {
		for i := 0; i < durableDocs; i++ {
			sub.Register(durableDocName(i), durableDocName(i), s.Document(durableDocName(i)).Root)
		}
	})
	mux := http.NewServeMux()
	mux.Handle(peer.PathPush, sub.Handler())
	mux.Handle("/", in.peer.Handler())
	if in.srv, err = listen(rec, mux); err != nil {
		in.Close()
		return nil, err
	}
	in.client = peer.NewClient(in.srv.URL, in.httpc)
	for i := 0; i < durableWarm; i++ {
		if _, _, err := in.push(); err != nil {
			in.Close()
			return nil, err
		}
	}
	return in, nil
}

// push delivers the next entry to the next inbox, round-robin, and
// returns the latency to the acknowledgement and the user bytes sent.
func (in *durableInst) push() (time.Duration, int, error) {
	entry, doc := in.entries[in.next], durableDocName(in.next%durableDocs)
	in.next++
	body, err := peer.MarshalForest(tree.Forest{entry})
	if err != nil {
		return 0, 0, err
	}
	ctx, end := in.rec.start(context.Background(), "write")
	defer end()
	t0 := time.Now()
	cctx, cend := in.rec.start(ctx, "client.push")
	err = in.client.Push(cctx, doc, tree.Forest{entry})
	cend()
	return time.Since(t0), len(body), err
}

// crashImage copies a durable peer's data directory as a crash would
// leave it: the files as they are, without Close, and the journal cut
// back to ackedLen bytes — the test discards what was written after
// the last acknowledgement itself, since killing a process would leave
// it in the operating system's cache.
func crashImage(src, dst string, ackedLen int64) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	files, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, f := range files {
		if !f.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, f.Name()), filepath.Join(dst, f.Name())); err != nil {
			return err
		}
	}
	wal := filepath.Join(dst, peer.JournalFile)
	if st, err := os.Stat(wal); err == nil && st.Size() > ackedLen {
		return os.Truncate(wal, ackedLen)
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// journalLen is the live journal's current size: with SyncEvery 1 and
// one caller, everything in it has been acknowledged.
func (in *durableInst) journalLen() (int64, error) {
	st, err := os.Stat(filepath.Join(in.dir, "live", peer.JournalFile))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// recoverOnce opens a fresh crash image and checks that the recovered
// peer holds exactly what the live one acknowledged.
func (in *durableInst) recoverOnce(i int, acked int64, want string) (time.Duration, int, error) {
	dir := filepath.Join(in.dir, fmt.Sprintf("crash%d", i))
	defer os.RemoveAll(dir)
	if err := crashImage(filepath.Join(in.dir, "live"), dir, acked); err != nil {
		return 0, 0, err
	}
	sys, err := durableSystem()
	if err != nil {
		return 0, 0, err
	}
	_, end := in.rec.start(context.Background(), "recover")
	t0 := time.Now()
	p, info, err := peer.Open("recovered", sys, peer.WithDurability(peer.Durability{Dir: dir, SyncEvery: 1}))
	d := time.Since(t0)
	end()
	if err != nil {
		return 0, 0, err
	}
	defer p.Close()
	if got := p.Hash(); got != want {
		return d, info.Replayed, fmt.Errorf("recovered digest differs from the live peer's")
	}
	return d, info.Replayed, nil
}

func (in *durableInst) measure(share float64) phase {
	ph := phase{layer: map[string]float64{}}
	before := registryTotals(in.reg)
	var userBytes float64
	t0 := time.Now()
	for i, n := 0, in.cfg.ops(durablePushes, share); i < n; i++ {
		in.chk.op()
		d, sent, err := in.push()
		if in.chk.err(err, "push") {
			continue
		}
		ph.primary = append(ph.primary, d)
		userBytes += float64(sent)
	}
	ph.wall = time.Since(t0)
	ph.ops = len(ph.primary)
	in.chk.err(in.peer.StoreErr(), "journal")
	moved := obs.DiffVars(before, registryTotals(in.reg))
	writes := float64(len(ph.primary))
	ph.layer["journal.bytes_per_write"] = ratio(moved["journal.bytes"], writes)
	ph.layer["journal.fsyncs_per_write"] = ratio(moved["journal.fsyncs"], writes)
	ph.layer["journal.snapshots"] = moved["journal.snapshots"]
	ph.layer["journal.snapshot_bytes"] = moved["journal.snapshot_bytes"]
	ph.layer["e2e.journal_bytes_per_user_byte"] = ratio(moved["journal.bytes"], userBytes)
	ph.layer["e2e.write_p99_ms"] = percentile(ms(ph.primary), 99)

	// Every acknowledged entry is in the live peer, once.
	held := 0
	in.peer.System(func(s *core.System) {
		for i := 0; i < durableDocs; i++ {
			held += len(s.Document(durableDocName(i)).Root.Children)
		}
	})
	in.chk.check(held == in.next, "live peer holds %d entries, %d were acknowledged", held, in.next)
	ph.state = in.peer.Hash()

	acked, err := in.journalLen()
	if in.chk.err(err, "journal size") {
		return ph
	}
	var replayed []float64
	for i := 0; i < durableRecovers; i++ {
		in.chk.op()
		d, n, err := in.recoverOnce(i, acked, ph.state)
		if in.chk.err(err, "recover") {
			continue
		}
		ph.secondary = append(ph.secondary, d)
		replayed = append(replayed, float64(n))
	}
	ph.layer["journal.replayed_records"] = median(replayed)
	return ph
}

func (in *durableInst) layers(v traceView) map[string]float64 {
	out := map[string]float64{}
	serverLayers(v, out)
	// One push journals one record: the write spans of an operation
	// are that record's frame.
	out["journal.write_us"] = 1000 * median(v.perOp("write", "journal.write"))
	return out
}

func (in *durableInst) kernels() (map[string]float64, error) {
	// One typical record: an inbox as it stands after the run.
	var payload []byte
	var err error
	in.peer.System(func(s *core.System) {
		payload, err = peer.MarshalDocRecord(durableDocName(0), s.Document(durableDocName(0)).Root)
	})
	if err != nil {
		return nil, err
	}
	j, err := journal.Open(filepath.Join(in.dir, "kernel.wal"), journal.Info{}, journal.Options{SyncEvery: 1})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	d, err := timeKernel(50, func() error {
		_, err := j.Append(1, payload)
		return err
	})
	return map[string]float64{"journal.append_sync_us": 1000 * d}, err
}

func (in *durableInst) Close() {
	if in.srv != nil {
		in.srv.Close()
	}
	if in.peer != nil {
		in.peer.Close()
	}
	in.httpc.CloseIdleConnections()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}
