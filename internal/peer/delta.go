package peer

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"

	"axml/internal/tree"
)

// Delta replication. Prop 3.1 monotonicity means a peer's documents only
// grow by least-upper-bound merge, so replication never needs to ship a
// whole tree: the growth since the last acknowledged digest is a sound
// CRDT-style update. Every growth already leaves core as one graft record
// (the path by marking and pre-graft digest, and the fresh trees), and
// replayed in order from a digest-equal pre-state the records reproduce
// the post-state exactly (Prop 2.1, Thm 2.1). So the server keeps, per
// document, the states it served (the anchors: digest → growth count)
// and the records written since the oldest of them (the log). A receiver
// asks "what changed since digest D?" as a conditional read of the
// document (If-None-Match: "D", A-IM: axml-log). When D is current the
// answer is 304; when D is an anchor the log still covers, it is 226 and
// the records since it, which the receiver replays through System.Append;
// otherwise (no anchor, evicted, a by-hand edit reset the log) it is 200
// and the full tree. A record whose path does not
// resolve at the receiver (local-only growth on its path) stops the
// replay, and the receiver falls back to a full pull: the records already
// applied were exact origin growths. Every fallback is safe: the delta
// path is an optimization over the same LUB merge, never a different
// semantics.

// Delta response modes: the answers of a conditional read (handleDoc).
const (
	// DeltaSame (304): the receiver's anchor is the current state.
	DeltaSame = "same"
	// DeltaLog (226): the payload is the graft records since the anchor.
	DeltaLog = "log"
	// DeltaFull (200): the payload is the full tree.
	DeltaFull = "full"
)

// Delta is one decoded conditional read (Client.Delta): the answer to
// "what changed in document Doc since state From".
type Delta struct {
	// Doc is the document name.
	Doc string
	// Mode is DeltaSame, DeltaLog or DeltaFull.
	Mode string
	// From is the anchor digest the records start from (DeltaLog only;
	// empty otherwise).
	From string
	// To is the digest of the document state this answer brings the
	// receiver up to (its ETag) — the receiver's next anchor.
	To string
	// Full carries the whole tree in DeltaFull mode.
	Full *tree.Node
	// Log carries the graft records since From in DeltaLog mode, oldest
	// first, each of document Doc.
	Log []GraftRecord
}

// digestHex is the one wire name of a tree's state: the memoized
// structural digest, truncated to 8 bytes (16 hex characters) — what
// PathHash and PathStatus advertise per document, what a document
// answer's ETag carries and what names a push subscription's view. tree.CanonicalHash renders the same bytes
// without the memo; it is the reference tests compare against.
func digestHex(n *tree.Node) string {
	h := n.Digest()
	return hex.EncodeToString(h[:8])
}

// ---------------------------------------------------------------------
// Anchor cache and graft log (server side).

// deltaAnchors remembers, per document, the states receivers were last
// served (the anchors: digest → growth count at serve time, max of them,
// LRU) and the graft records since the oldest (the log, at most logCap
// bytes). A receiver whose anchor the log does not cover gets the full
// tree, so the cache is purely an optimization. Only the mutation hook
// (grew) writes the log; the handlers, which overlap, remember anchors.
type deltaAnchors struct {
	max, logCap int
	mu          sync.Mutex
	docs        map[string]*docLog // the documents with a live anchor
}

// docLog is one document's anchors and log: seq counts its growths, recs
// holds records base+1..seq, and no anchor's seq is below base.
type docLog struct {
	anchors   []anchor // newest last
	seq, base uint64
	recs      [][]byte
	bytes     int
}

type anchor struct {
	digest string
	seq    uint64
}

// deltaAnchorsPerDoc bounds the anchors kept per document, and so the
// log window: a receiver whose anchor rotated out gets the full tree.
const deltaAnchorsPerDoc = 4

// deltaLogBytes caps one document's log: past it, a log answer would
// outweigh most full trees.
const deltaLogBytes = 256 << 10

func newDeltaAnchors() *deltaAnchors {
	return &deltaAnchors{max: deltaAnchorsPerDoc, logCap: deltaLogBytes, docs: make(map[string]*docLog)}
}

// remember records that a receiver now holds the document's current
// state, at the growth count it is at: the caller holds the system's
// read side, so no growth lands in between. A digest already remembered
// moves to the back.
func (da *deltaAnchors) remember(doc, digest string) {
	da.mu.Lock()
	defer da.mu.Unlock()
	l := da.docs[doc]
	if l == nil {
		l = &docLog{}
		da.docs[doc] = l
	}
	if i := slices.IndexFunc(l.anchors, func(a anchor) bool { return a.digest == digest }); i >= 0 {
		a := l.anchors[i]
		l.anchors = append(slices.Delete(l.anchors, i, i+1), a)
		return
	}
	l.anchors = append(l.anchors, anchor{digest, l.seq})
	l.anchors = l.anchors[max(len(l.anchors)-da.max, 0):]
}

// logging reports whether the document's growths are logged.
func (da *deltaAnchors) logging(doc string) bool {
	da.mu.Lock()
	defer da.mu.Unlock()
	return da.docs[doc] != nil
}

// grew logs one growth's record. A nil rec (a whole-document change, or a
// growth that did not encode) drops the document's log and anchors: no
// record leads from their states to the new one. Then the records before
// the oldest anchor go, and the oldest ones past logCap with the anchors
// they strand; a document left without anchors stops logging.
func (da *deltaAnchors) grew(doc string, rec []byte) {
	da.mu.Lock()
	defer da.mu.Unlock()
	l := da.docs[doc]
	if l == nil || rec == nil {
		delete(da.docs, doc)
		return
	}
	l.seq++
	l.recs, l.bytes = append(l.recs, rec), l.bytes+len(rec)
	oldest := l.seq
	for _, a := range l.anchors {
		oldest = min(oldest, a.seq)
	}
	drop := int(oldest - l.base)
	for _, r := range l.recs[:drop] {
		l.bytes -= len(r)
	}
	for ; drop < len(l.recs) && l.bytes > da.logCap; drop++ {
		l.bytes -= len(l.recs[drop])
	}
	clear(l.recs[:drop])
	l.recs, l.base = l.recs[drop:], l.base+uint64(drop)
	if l.anchors = slices.DeleteFunc(l.anchors, func(a anchor) bool { return a.seq < l.base }); len(l.anchors) == 0 {
		delete(da.docs, doc)
	}
}

// since returns the framed records after the anchor from — a log
// answer's body — or nil when the log does not cover from or holds
// nothing since.
func (da *deltaAnchors) since(doc, from string) (frames []byte) {
	da.mu.Lock()
	defer da.mu.Unlock()
	if l := da.docs[doc]; l != nil {
		if i := slices.IndexFunc(l.anchors, func(a anchor) bool { return a.digest == from }); i >= 0 {
			for _, rec := range l.recs[l.anchors[i].seq-l.base:] {
				frames = appendFrame(frames, rec)
			}
		}
	}
	return frames
}

// size reports the records and bytes logged for doc, or for every
// document when doc is empty.
func (da *deltaAnchors) size(doc string) (records, bytes int64) {
	da.mu.Lock()
	defer da.mu.Unlock()
	for name, l := range da.docs {
		if doc == "" || name == doc {
			records, bytes = records+int64(len(l.recs)), bytes+int64(l.bytes)
		}
	}
	return records, bytes
}

// ---------------------------------------------------------------------
// Log body: a 226 answer is its records, each as its uvarint length and
// its bytes as marshalGraftRecord writes them.

// appendFrame appends one record of a log answer: its length, then it.
func appendFrame(b, rec []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(rec))), rec...)
}

// unmarshalFrames decodes a log answer's records: at least one (an
// empty log answers 304), each of document doc.
func unmarshalFrames(data []byte, doc string) (recs []GraftRecord, err error) {
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			return nil, fmt.Errorf("record %d: frame length past the body", len(recs))
		}
		var r GraftRecord
		r.Doc, r.Path, r.Fresh, err = unmarshalGraftRecord(data[k : k+int(n)])
		if err == nil && r.Doc != doc {
			err = fmt.Errorf("names document %q, not %q", r.Doc, doc)
		}
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", len(recs), err)
		}
		recs, data = append(recs, r), data[k+int(n):]
	}
	if len(recs) == 0 {
		return nil, errors.New("log answer without records")
	}
	return recs, nil
}
