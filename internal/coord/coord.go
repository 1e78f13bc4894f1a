// Package coord implements the tiny, reliable coordination service
// Synapse needs for generation numbers (Chubby/ZooKeeper in the paper,
// §4.4): a linearizable key-value store of counters with watches.
//
// When a publisher's version store dies, the publisher atomically
// increments its generation counter here and resumes publishing;
// subscribers watch the counter and run the generation barrier when it
// moves.
package coord

import "sync"

// Coordinator is a linearizable counter store with watch support. The
// zero value is not usable; call New.
type Coordinator struct {
	mu       sync.Mutex
	counters map[string]uint64
	watchers map[string][]chan uint64
}

// New returns an empty coordinator.
func New() *Coordinator {
	return &Coordinator{
		counters: make(map[string]uint64),
		watchers: make(map[string][]chan uint64),
	}
}

// Get returns the current value of a counter (0 when never set).
func (c *Coordinator) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Increment atomically bumps a counter and notifies watchers, returning
// the new value. Notification happens under the lock so concurrent
// increments cannot race an older value over a newer one; every send is
// non-blocking, so the lock is never held across a wait.
func (c *Coordinator) Increment(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters[name]++
	v := c.counters[name]
	for _, w := range c.watchers[name] {
		select {
		case w <- v:
			continue
		default:
		}
		// Buffer full: the watcher is slow and still holds an older
		// value. Drain the stale value and replace it with the latest —
		// a slow watcher may miss intermediate values but must never be
		// left holding a stale generation forever.
		select {
		case <-w:
		default:
		}
		select {
		case w <- v:
		default:
		}
	}
	return v
}

// Watch registers a channel receiving new values of the counter. The
// channel is buffered by one; slow consumers see only the latest value.
func (c *Coordinator) Watch(name string) <-chan uint64 {
	ch := make(chan uint64, 1)
	c.mu.Lock()
	c.watchers[name] = append(c.watchers[name], ch)
	c.mu.Unlock()
	return ch
}

// Unwatch removes a previously registered watch channel. A watcher
// that re-watches on every cycle must pair each Watch with an Unwatch
// or the watcher slice (and its channel) leaks per cycle.
func (c *Coordinator) Unwatch(name string, ch <-chan uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.watchers[name]
	for i, w := range ws {
		if w == ch {
			c.watchers[name] = append(ws[:i], ws[i+1:]...)
			return
		}
	}
}
