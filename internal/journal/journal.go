// Package journal implements the durability substrate for AXML peers: an
// append-only write-ahead log of CRC-framed records plus atomically
// written snapshots that allow log compaction.
//
// The package is payload-agnostic — records carry opaque bytes with a
// one-byte type tag; the peer layer encodes in them what grew (a document,
// the digest path of the node it grew under, the fresh trees in the XML
// wire form) or, after a by-hand edit, a whole document state.
// Durability leans on the paper's semantics rather than on heavyweight
// log machinery: documents only grow (Prop 3.1), so replay is a least
// upper bound merge over a state that already holds everything before
// the record. Replaying a record twice, replaying records already covered
// by a snapshot, or losing a torn suffix are all safe — merges are
// idempotent and a lost suffix is re-derived by re-sweeping.
//
// On-disk record frame (little-endian):
//
//	magic(4) type(1) seq(8) len(4) crc32(4) payload(len)
//
// The CRC covers type, seq, len and payload. Replay stops cleanly at the
// first frame that is short, mis-magicked or fails its CRC — the torn
// tail a crash mid-append leaves behind — and Open truncates the file back
// to the intact prefix so later appends never sit beyond garbage.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"axml/internal/obs"
)

// Frame constants.
const (
	recordMagic   = 0x4158574a // "AXWJ"
	snapshotMagic = 0x4158534e // "AXSN"
	headerSize    = 4 + 1 + 8 + 4 + 4
)

// MaxPayload bounds a single record (and snapshot) payload, so a corrupt
// length field cannot make replay attempt a multi-gigabyte allocation.
const MaxPayload = 1 << 28 // 256 MiB

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrCorruptSnapshot is returned when a snapshot file exists but fails its
// frame or checksum validation. Unlike a torn log tail — which is expected
// after a crash and recovered from silently — a bad snapshot means the
// compacted history is gone, so the caller must decide (the peer refuses
// to start rather than silently serving a truncated past).
var ErrCorruptSnapshot = errors.New("journal: corrupt snapshot")

// Record is one journal entry.
type Record struct {
	// Seq is the record's strictly increasing sequence number (from 1).
	Seq uint64
	// Type tags the payload encoding; the journal does not interpret it.
	Type byte
	// Payload is the opaque record body.
	Payload []byte
}

// Info summarizes a replay: where the intact prefix of the log ends.
type Info struct {
	// LastSeq is the sequence number of the last intact record (0 when
	// the log is empty or missing).
	LastSeq uint64
	// GoodLen is the byte length of the intact prefix; Open truncates the
	// file to it.
	GoodLen int64
	// Records counts the intact records replayed.
	Records int
	// Torn reports that bytes beyond the intact prefix were present and
	// discarded — the signature of a crash mid-append.
	Torn bool
}

// Replay scans the log at path, calling fn (if non-nil) for each intact
// record in order. A missing file replays as empty. A torn or corrupt
// tail ends the scan without error (Info.Torn is set); an error from fn
// aborts the scan and is returned. The payload passed to fn is a private
// copy the callback may keep.
func Replay(path string, fn func(Record) error) (Info, error) {
	var info Info
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return info, nil
	}
	if err != nil {
		return info, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return info, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return info, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		rec, frameLen, ok := readFrame(r, info.LastSeq)
		if !ok {
			info.Torn = info.GoodLen < size
			return info, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return info, err
			}
		}
		info.LastSeq = rec.Seq
		info.GoodLen += frameLen
		info.Records++
	}
}

// readFrame decodes one record frame. ok=false means the remaining bytes
// do not form an intact next record (short read, bad magic, out-of-order
// sequence, oversized length or CRC mismatch) — replay treats all of these
// as the torn tail and stops.
func readFrame(r io.Reader, prevSeq uint64) (rec Record, frameLen int64, ok bool) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return rec, 0, false
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic {
		return rec, 0, false
	}
	rec.Type = hdr[4]
	rec.Seq = binary.LittleEndian.Uint64(hdr[5:13])
	n := binary.LittleEndian.Uint32(hdr[13:17])
	want := binary.LittleEndian.Uint32(hdr[17:21])
	if rec.Seq <= prevSeq || n > MaxPayload {
		return rec, 0, false
	}
	rec.Payload = make([]byte, n)
	if _, err := io.ReadFull(r, rec.Payload); err != nil {
		return rec, 0, false
	}
	if frameCRC(rec.Type, rec.Seq, rec.Payload) != want {
		return rec, 0, false
	}
	return rec, int64(headerSize) + int64(n), true
}

func frameCRC(typ byte, seq uint64, payload []byte) uint32 {
	var hdr [9]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:9], seq)
	c := crc32.ChecksumIEEE(hdr[:])
	return crc32.Update(c, crc32.IEEETable, payload)
}

// Options configures a journal.
type Options struct {
	// SyncEvery fsyncs the log after every n appended records: 1 syncs
	// each append (safest), larger values batch syncs (a crash can lose
	// at most n-1 synced-but-unflushed records, which re-sweeping
	// re-derives), 0 never syncs explicitly (the OS decides).
	SyncEvery int
	// WrapWriter, when non-nil, wraps the log file's writer — the fault
	// injection hook used to deliver torn or failed writes in tests (see
	// internal/faults). Appends go through the wrapper; fsync still goes
	// to the file.
	WrapWriter func(io.Writer) io.Writer
	// Metrics, when non-nil, receives the journal's counters and
	// latencies: journal.appends / journal.bytes (records and payload+
	// frame bytes appended), journal.fsync_ns (fsync latency histogram),
	// journal.fsyncs and journal.resets (compactions). Durable peers
	// thread their registry here so journal cost shows up at /debug/vars
	// next to the sweep latencies it taxes.
	Metrics *obs.Registry
	// Tracer, when non-nil, gets one "fsync" span per fsync batch
	// (attrs: records = appends the batch made durable).
	Tracer *obs.Tracer
}

// Journal is an open write-ahead log. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	w      io.Writer
	seq    uint64
	dirty  int // appended records not yet fsynced
	opts   Options
	closed bool
}

// Open opens (creating if necessary) the log at path for appending,
// truncating any torn tail beyond info.GoodLen first. info should come
// from a Replay of the same path; appended records continue from
// info.LastSeq+1.
func Open(path string, info Info, opts Options) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(info.GoodLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(info.GoodLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{f: f, seq: info.LastSeq, opts: opts}
	j.w = io.Writer(f)
	if opts.WrapWriter != nil {
		j.w = opts.WrapWriter(f)
	}
	return j, nil
}

// LastSeq returns the sequence number of the last appended (or replayed)
// record.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Append writes one record and returns its sequence number. The frame is
// written in a single Write call; per Options.SyncEvery the file may be
// fsynced before returning. A failed or short write leaves a torn tail
// that the next Open truncates away.
func (j *Journal) Append(typ byte, payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("journal: payload %d bytes exceeds cap %d", len(payload), MaxPayload)
	}
	seq := j.seq + 1
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], recordMagic)
	frame[4] = typ
	binary.LittleEndian.PutUint64(frame[5:13], seq)
	binary.LittleEndian.PutUint32(frame[13:17], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[17:21], frameCRC(typ, seq, payload))
	copy(frame[headerSize:], payload)
	if _, err := j.w.Write(frame); err != nil {
		return 0, err
	}
	j.seq = seq
	j.dirty++
	if m := j.opts.Metrics; m != nil {
		m.Counter("journal.appends").Inc()
		m.Counter("journal.bytes").Add(int64(len(frame)))
	}
	if j.opts.SyncEvery > 0 && j.dirty >= j.opts.SyncEvery {
		if err := j.syncLocked(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// Sync flushes outstanding appends to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.dirty == 0 {
		return nil
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return err
	}
	if m := j.opts.Metrics; m != nil {
		m.Histogram("journal.fsync_ns").ObserveSince(start)
		m.Counter("journal.fsyncs").Inc()
	}
	if tr := j.opts.Tracer; tr.Enabled() {
		tr.Emit(obs.Span{Kind: "fsync", TSUs: tr.Now(),
			DurUs: time.Since(start).Microseconds(),
			Attrs: map[string]int64{"records": int64(j.dirty)}})
	}
	j.dirty = 0
	return nil
}

// Reset empties the log after a snapshot has made its records redundant
// (compaction). Sequence numbers keep increasing across a reset, so a
// snapshot's sequence number still orders it against later records.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	j.dirty = 0
	if m := j.opts.Metrics; m != nil {
		m.Counter("journal.resets").Inc()
	}
	return j.f.Sync()
}

// Close syncs and closes the log.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// WriteSnapshot atomically replaces the snapshot at path with one carrying
// the given payload, stamped with the journal sequence number it covers
// (every record with Seq <= seq is reflected in the payload). The write
// goes to a temp file in the same directory, is fsynced, then renamed over
// path — a crash at any point leaves either the old snapshot or the new
// one, never a torn hybrid.
func WriteSnapshot(path string, seq uint64, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("journal: snapshot payload %d bytes exceeds cap %d", len(payload), MaxPayload)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	// Header, then the payload as it is: the temp file and the rename keep
	// the pair atomic, so the payload need not be copied into one frame.
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapshotMagic)
	binary.LittleEndian.PutUint64(hdr[5:13], seq)
	binary.LittleEndian.PutUint32(hdr[13:17], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[17:21], frameCRC(0, seq, payload))
	if _, err := tmp.Write(hdr[:]); err != nil {
		cleanup()
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Persist the rename itself (best-effort: some filesystems do not
	// support fsync on directories).
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadSnapshot reads the snapshot at path, returning the journal sequence
// number it covers and its payload. A missing file returns os.ErrNotExist;
// a present-but-invalid file returns ErrCorruptSnapshot.
func ReadSnapshot(path string) (seq uint64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < headerSize {
		return 0, nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrCorruptSnapshot, len(data), headerSize)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != snapshotMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrCorruptSnapshot)
	}
	seq = binary.LittleEndian.Uint64(data[5:13])
	n := binary.LittleEndian.Uint32(data[13:17])
	want := binary.LittleEndian.Uint32(data[17:21])
	if n > MaxPayload || int(n) != len(data)-headerSize {
		return 0, nil, fmt.Errorf("%w: payload length %d vs %d bytes on disk", ErrCorruptSnapshot, n, len(data)-headerSize)
	}
	payload = data[headerSize:]
	if frameCRC(data[4], seq, payload) != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptSnapshot)
	}
	return seq, payload, nil
}
