package core

import (
	"testing"
	"time"

	"axml/internal/tree"
)

// The version funnel's lock is what every peer request now stands on
// (System.View / Update), so its admission rules are pinned here rather
// than left implied by the engine's stress tests.

// acquired starts fn (a blocking acquisition) and returns a channel closed
// once it returned.
func acquired(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	return done
}

// blocked reports that done has not fired after a grace period: the
// acquisition is parked, not merely slow to be scheduled.
func blocked(done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	case <-time.After(50 * time.Millisecond):
		return true
	}
}

func mustAcquire(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not admitted", what)
	}
}

// waitQueued spins until n writers are parked in Lock.
func waitQueued(t *testing.T, l *rwLock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		q := l.queued
		l.mu.Unlock()
		if q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued writers = %d, want %d", q, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRWLockReaderPreferencePassesQueuedWriter(t *testing.T) {
	var l rwLock
	l.RLock() // a reader asleep on the network
	writer := acquired(l.Lock)
	waitQueued(t, &l, 1)

	// RLock is admitted past the queued writer; RLockFair waits it out.
	mustAcquire(t, "RLock beside a queued writer", acquired(l.RLock))
	fair := acquired(l.RLockFair)
	if !blocked(fair) {
		t.Fatal("RLockFair passed a queued writer")
	}
	if !blocked(writer) {
		t.Fatal("Lock admitted beside two readers")
	}

	l.RUnlock()
	if !blocked(writer) {
		t.Fatal("Lock admitted beside one reader")
	}
	l.RUnlock()
	mustAcquire(t, "Lock after the last reader left", writer)

	// The writer is now ACTIVE: it excludes both read disciplines and a
	// second writer.
	reader := acquired(l.RLock)
	writer2 := acquired(l.Lock)
	for what, done := range map[string]<-chan struct{}{
		"RLock": reader, "RLockFair": fair, "Lock": writer2,
	} {
		if !blocked(done) {
			t.Fatalf("%s admitted beside an active writer", what)
		}
	}
	// Released, the three are admitted in whatever order the scheduler
	// picks; each, once released in turn, lets the rest through.
	l.Unlock()
	for n := 0; n < 3; n++ {
		select {
		case <-reader:
			reader = nil
			l.RUnlock()
		case <-fair:
			fair = nil
			l.RUnlock()
		case <-writer2:
			writer2 = nil
			l.Unlock()
		case <-time.After(5 * time.Second):
			t.Fatalf("after %d of 3 parked acquisitions nothing more was admitted", n)
		}
	}

	// Uncontended again: every side acquires at once.
	l.Lock()
	l.Unlock()
	l.RLockFair()
	l.RUnlock()
}

func TestRWLockContentionCounts(t *testing.T) {
	var l rwLock
	l.RLock()
	l.RLock()
	l.RUnlock()
	l.RUnlock()
	l.Lock()
	l.Unlock()
	if r, w := l.contention(); r != 0 || w != 0 {
		t.Fatalf("uncontended acquisitions counted: readers %d writers %d", r, w)
	}

	// One writer that met a reader.
	l.RLock()
	writer := acquired(l.Lock)
	waitQueued(t, &l, 1)
	// One fair reader that met the queued writer; a plain reader does not
	// wait for it and is not counted.
	fair := acquired(l.RLockFair)
	l.RLock()
	l.RUnlock()
	if !blocked(fair) {
		t.Fatal("RLockFair passed a queued writer")
	}
	l.RUnlock()
	mustAcquire(t, "Lock", writer)
	// One plain reader that met the active writer.
	reader := acquired(l.RLock)
	if !blocked(reader) {
		t.Fatal("RLock admitted beside an active writer")
	}
	l.Unlock()
	mustAcquire(t, "RLock", reader)
	mustAcquire(t, "RLockFair", fair)
	l.RUnlock()
	l.RUnlock()
	if r, w := l.contention(); r != 2 || w != 1 {
		t.Fatalf("contention = readers %d writers %d, want 2 and 1", r, w)
	}
}

func TestRWLockUnlockOfUnlockedPanics(t *testing.T) {
	for name, release := range map[string]func(*rwLock){
		"RUnlock": (*rwLock).RUnlock,
		"Unlock":  (*rwLock).Unlock,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of an unlocked rwLock did not panic", name)
				}
			}()
			release(new(rwLock))
		}()
	}
}

// TestSystemViewUpdate: the exported entry points are the lock's two
// sides — views overlap each other, an Update excludes them, and a view
// is admitted while an Update is merely queued behind another view.
func TestSystemViewUpdate(t *testing.T) {
	s := MustParseSystem(`doc d = a{b}`)
	inView, release := make(chan struct{}), make(chan struct{})
	first := acquired(func() {
		s.View(func() {
			close(inView)
			<-release
		})
	})
	<-inView
	update := acquired(func() {
		s.Update(func() {
			if _, err := s.Append("d", s.Document("d").Root, tree.Forest{tree.NewLabel("c")}); err != nil {
				t.Error(err)
			}
		})
	})
	waitQueued(t, &s.engineMu, 1)
	var seen string
	mustAcquire(t, "View beside a queued Update",
		acquired(func() { s.View(func() { seen = s.Document("d").Root.CanonicalString() }) }))
	if seen != "a{b}" {
		t.Fatalf("the view saw %s: the queued Update ran beside a view", seen)
	}
	if !blocked(update) {
		t.Fatal("Update ran beside a view")
	}
	close(release)
	mustAcquire(t, "first view", first)
	mustAcquire(t, "Update", update)
	s.View(func() { seen = s.Document("d").Root.CanonicalString() })
	if seen != "a{b,c}" {
		t.Fatalf("after the Update the document is %s", seen)
	}
	if r, w := s.LockContention(); r != 0 || w != 1 {
		t.Fatalf("LockContention = %d, %d; want 0, 1", r, w)
	}
}
