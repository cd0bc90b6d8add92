package peer

import (
	"bytes"
	"hash/maphash"
	"net/url"
	"strings"
	"sync"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/tree"
)

// memo keeps the bytes a peer serves, each document state as MarshalTree
// writes it and each declarative answer keyed by its request body
// (DESIGN.md, "Serving encoded bytes"). It locks itself.
//
// No entry outlives the state it encodes. A document changes only under
// the system's write side, and every change (appendAt, Touch, Restore's
// adoptions, AddDocument) reaches the mutation hook there, which drops the
// document's state and every answer that read it before the write side is
// released. A state is filled under the read side (/axml/doc, a full
// /axml/delta) or the write side (the snapshot writer), so no change runs
// between its encoding and its store. An answer is encoded after its View
// ends, so its fill is discarded when any drop happened since the lookup
// that preceded its evaluation.
type memo struct {
	mu       sync.Mutex
	docs     map[string][]byte
	answers  map[uint64]answer
	gen      uint64 // drops so far
	ansBytes int64  // bodies and answers kept
	seed     maphash.Seed

	docHit, docMiss, answerHit, answerMiss *obs.Counter
}

// answer is a declarative service's encoded answer to the request body,
// and the headerReads value naming the documents it read.
type answer struct {
	body, data []byte
	reads      string
}

// The answer memo's bounds: a fill past either first forgets every answer.
const (
	answerMemoEntries = 256
	answerMemoBytes   = 4 << 20
)

// newMemo counts into the registry's peer.memo.* counters, or into its
// own when there is none: /axml/status reports them either way.
func newMemo(reg *obs.Registry) *memo {
	counter := func(name string) *obs.Counter {
		if c := reg.Counter("peer.memo." + name); c != nil {
			return c
		}
		return new(obs.Counter)
	}
	m := &memo{docs: make(map[string][]byte), answers: make(map[uint64]answer), seed: maphash.MakeSeed(),
		docHit: counter("doc.hit"), docMiss: counter("doc.miss"),
		answerHit: counter("answer.hit"), answerMiss: counter("answer.miss")}
	reg.GaugeFunc("peer.memo.bytes", m.size)
	return m
}

// size is the bytes the memo holds.
func (m *memo) size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.ansBytes
	for _, data := range m.docs {
		n += int64(len(data))
	}
	return n
}

func (m *memo) state(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.docs[name]
}

// doc returns the encoded state of the named document, whose live root is
// root, encoding and keeping it on a miss. The caller holds the read side.
func (m *memo) doc(name string, root *tree.Node) (data []byte, err error) {
	if data = m.state(name); data != nil {
		m.docHit.Inc()
		return data, nil
	}
	m.docMiss.Inc()
	if data, err = MarshalTree(root); err == nil {
		m.mu.Lock()
		m.docs[name] = data
		m.mu.Unlock()
	}
	return data, err
}

// snapshot encodes s's documents as MarshalSnapshot would, copying kept
// states and encoding the others in place, then keeps each document's
// slice of the payload: one copy of each. hint is the last payload's
// size. The caller holds the write side.
func (m *memo) snapshot(s *core.System, hint int) (payload []byte, encoded, reused int, err error) {
	names := s.DocNames()
	spans := make([]int, 0, 2*len(names))
	e := encoder{b: make([]byte, 0, hint+hint/4)}
	e.open(elemSnapshot)
	for _, name := range names {
		e.open(elemDoc, attrName, name)
		lo := len(e.b)
		if data := m.state(name); data != nil {
			e.b = append(e.b, data...)
			reused++
		} else {
			e.node(s.Document(name).Root)
		}
		spans = append(spans, lo, len(e.b))
		e.close(elemDoc)
	}
	e.close(elemSnapshot)
	if payload, err = e.bytes(); err != nil {
		return nil, 0, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, name := range names {
		m.docs[name] = payload[spans[2*i]:spans[2*i+1]:spans[2*i+1]]
	}
	return payload, len(names) - reused, reused, nil
}

// answer looks the request body up: the kept answer on a hit, else the
// body's key and the drop generation keep needs.
func (m *memo) answer(body []byte) (a answer, key, gen uint64, hit bool) {
	key = maphash.Bytes(m.seed, body)
	m.mu.Lock()
	a, hit = m.answers[key]
	gen = m.gen
	m.mu.Unlock()
	if hit = hit && bytes.Equal(a.body, body); hit {
		m.answerHit.Inc()
	} else {
		m.answerMiss.Inc()
	}
	return a, key, gen, hit
}

// keep stores an answer evaluated after the lookup that read gen, unless
// a drop happened since: a growth may have raced the evaluation.
func (m *memo) keep(key, gen uint64, a answer) {
	size := int64(len(a.body) + len(a.data))
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen != m.gen || size > answerMemoBytes {
		return
	}
	m.dropAnswer(key) // a concurrent miss on the same body kept it first
	if len(m.answers) >= answerMemoEntries || m.ansBytes+size > answerMemoBytes {
		clear(m.answers)
		m.ansBytes = 0
	}
	m.answers[key] = a
	m.ansBytes += size
}

// dropAnswer forgets one answer; mu is held.
func (m *memo) dropAnswer(key uint64) {
	a := m.answers[key]
	m.ansBytes -= int64(len(a.body) + len(a.data))
	delete(m.answers, key)
}

// drop forgets what encodes the named document: its state and every
// answer that read it. The mutation hook calls it, under the write side.
func (m *memo) drop(doc string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	delete(m.docs, doc)
	esc := url.QueryEscape(doc) // headerReads' form of the name
	for k, a := range m.answers {
		for reads := a.reads; reads != ""; {
			var name string
			if name, reads, _ = strings.Cut(reads, ","); name == esc {
				m.dropAnswer(k)
				break
			}
		}
	}
}
