// Package groupcommit is the one group-commit flusher in the tree: a
// queue of entries drained in batches by whichever goroutine holds the
// leader flag. There is no timer — the drain's own cost is the batching
// window, so an idle queue pays nothing and a busy one batches by
// itself: everything added while drain N runs rides in drain N+1. Here
// progress is a mark advanced in batches, not a reply awaited per entry
// (DBLog's high-water shape, PAPERS.md).
//
// The caller decides where the drain runs. The subscriber adds a
// completed delivery and calls Flush: the leader is one of its workers'
// lanes, inline. The version store hands in a lock release's unlock window and
// calls Kick: the leader is a spawned goroutine, so the controller that
// released never waits for the window.
package groupcommit

import (
	"sync"
	"sync/atomic"
)

// Flusher batches entries of type T into drain calls.
type Flusher[T any] struct {
	mu      sync.Mutex
	settled sync.Cond // on mu: undrained fell, to below limit or to zero
	pend    []T
	spare   []T // the previous batch's array, reused by the next
	// undrained counts entries added and not yet through drain.
	undrained int
	leading   atomic.Bool

	batchCap, limit int
	drain           func([]T)
}

// New builds a flusher whose drain receives at most batchCap entries at
// a time, in the order they were added, from one goroutine at a time;
// the slice is reused afterwards and must not be kept. With limit > 0,
// Add waits while that many entries are undrained.
func New[T any](batchCap, limit int, drain func([]T)) *Flusher[T] {
	f := &Flusher[T]{batchCap: batchCap, limit: limit, drain: drain}
	f.settled.L = &f.mu
	return f
}

// Add queues an entry. Some drain takes it once Flush or Kick has been
// called after it.
func (f *Flusher[T]) Add(e T) {
	f.mu.Lock()
	for f.limit > 0 && f.undrained >= f.limit {
		f.settled.Wait()
	}
	f.undrained++
	f.pend = append(f.pend, e)
	f.mu.Unlock()
}

// Flush drains the queue on the caller's goroutine, unless a leader is
// at work already — it takes the caller's entries too.
func (f *Flusher[T]) Flush() {
	if f.leading.CompareAndSwap(false, true) {
		f.lead()
	}
}

// Kick is Flush on a goroutine of its own.
func (f *Flusher[T]) Kick() {
	if f.leading.CompareAndSwap(false, true) {
		go f.lead()
	}
}

// Wait returns once everything added before the call has been drained.
func (f *Flusher[T]) Wait() {
	f.mu.Lock()
	for f.undrained > 0 {
		f.settled.Wait()
	}
	f.mu.Unlock()
}

// lead drains until the queue is empty. The flag goes down under the
// same hold of the mutex that found the queue empty, so an entry is
// either seen by this leader or added after the flag fell — and then its
// adder's own Flush or Kick wins the flag.
func (f *Flusher[T]) lead() {
	f.mu.Lock()
	for len(f.pend) > 0 {
		batch := f.pend
		f.pend, f.spare = f.spare[:0], nil
		f.mu.Unlock()
		for rest := batch; len(rest) > 0; {
			n := min(len(rest), f.batchCap)
			f.drain(rest[:n:n])
			rest = rest[n:]
		}
		clear(batch)
		f.mu.Lock()
		f.spare = batch[:0]
		f.undrained -= len(batch)
		if f.undrained == 0 || f.limit > 0 {
			f.settled.Broadcast()
		}
	}
	f.leading.Store(false)
	f.mu.Unlock()
}
