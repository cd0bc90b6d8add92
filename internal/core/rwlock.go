package core

import (
	"sync"
	"sync/atomic"
)

// rwLock is the read/write lock behind the version funnel: evaluations
// hold the read side for a whole service invocation (milliseconds of
// network wait in the paper's setting), merges take the write side for
// microseconds. It offers two read disciplines, one per schedule, because
// each schedule can bound a different failure mode; they share one lock
// safely — fairness is a property of the acquisition, not the lock state.
//
// RLock (the sweep) waits only while a writer is ACTIVE, never while
// writers are merely queued. A sweeping run is one goroutine alternating
// read and write holds, so it has no merge of its own to starve; what it
// can meet is another run on the same system (concurrent Run calls, a
// peer serving while it sweeps). Reader preference lets those runs'
// evaluations overlap instead of convoying — under writer preference one
// queued merge would block every new evaluation behind whichever reader
// is asleep on the network — and the starvation it risks is bounded
// structurally: a sweep attempts a finite snapshot of calls, one at a
// time, and its own merge then queues like any other writer.
//
// RLockFair (the worklist) also waits out QUEUED writers. The worklist's
// evaluation stream is continuous — n workers re-acquire the read side
// with no barrier between them — so under reader preference it starves
// every merge until the queue happens to run dry (measured as whole-run-
// length merge waits on latency-bound workloads). Waiting for queued
// writers trades some evaluation overlap for bounded merge latency.
type rwLock struct {
	mu      sync.Mutex
	cond    *sync.Cond // lazily bound to mu; access only with mu held
	readers int
	writer  bool
	queued  int // writers waiting in Lock; blocks RLockFair only

	// Contention counters: acquisitions that had to wait. Always on —
	// they cost one uncontended atomic add on the slow path only — and
	// read by the engine's RunResult.Stats and the obs registry. rWaits
	// counts RLocks that found a writer active; wWaits counts Locks that
	// found readers or a writer in place. Monotone over the lock's life;
	// consumers take deltas.
	rWaits atomic.Uint64
	wWaits atomic.Uint64
}

// c returns the condition variable, binding it on first use. Callers
// hold l.mu, which makes the lazy initialization race-free and keeps
// the zero rwLock usable (System values are created in several places).
func (l *rwLock) c() *sync.Cond {
	if l.cond == nil {
		l.cond = sync.NewCond(&l.mu)
	}
	return l.cond
}

// RLock acquires the read side: it waits out an active writer, then
// joins the reader population. Queued writers do not block it — that is
// the point (see the type comment).
func (l *rwLock) RLock() {
	l.mu.Lock()
	if l.writer {
		l.rWaits.Add(1)
	}
	for l.writer {
		l.c().Wait()
	}
	l.readers++
	l.mu.Unlock()
}

// RUnlock releases the read side, waking queued writers when the last
// reader leaves.
func (l *rwLock) RUnlock() {
	l.mu.Lock()
	l.readers--
	if l.readers < 0 {
		l.mu.Unlock()
		panic("core: RUnlock of unlocked rwLock")
	}
	if l.readers == 0 {
		l.c().Broadcast()
	}
	l.mu.Unlock()
}

// RLockFair acquires the read side like RLock but also waits out queued
// writers (see the type comment).
func (l *rwLock) RLockFair() {
	l.mu.Lock()
	if l.writer || l.queued > 0 {
		l.rWaits.Add(1)
	}
	for l.writer || l.queued > 0 {
		l.c().Wait()
	}
	l.readers++
	l.mu.Unlock()
}

// Lock acquires the write side: exclusive against readers and writers.
func (l *rwLock) Lock() {
	l.mu.Lock()
	if l.writer || l.readers > 0 {
		l.wWaits.Add(1)
	}
	l.queued++
	for l.writer || l.readers > 0 {
		l.c().Wait()
	}
	l.queued--
	l.writer = true
	l.mu.Unlock()
}

// contention returns the cumulative contended-acquisition counts.
func (l *rwLock) contention() (readerWaits, writerWaits uint64) {
	return l.rWaits.Load(), l.wWaits.Load()
}

// Unlock releases the write side, waking both queued readers and
// queued writers; the for-loops in RLock and Lock arbitrate.
func (l *rwLock) Unlock() {
	l.mu.Lock()
	if !l.writer {
		l.mu.Unlock()
		panic("core: Unlock of unlocked rwLock")
	}
	l.writer = false
	l.c().Broadcast()
	l.mu.Unlock()
}
