// Package coord implements the tiny, reliable coordination service
// Synapse needs for generation numbers (Chubby/ZooKeeper in the paper,
// §4.4): a linearizable key-value store of counters with watches, plus
// expiring leases for leader election.
//
// When a publisher's version store dies, the publisher atomically
// increments its generation counter here and resumes publishing;
// subscribers watch the counter and run the generation barrier when it
// moves. The broker cluster elects a primary per shard by holding a
// lease here: the primary renews it on a heartbeat, and a follower that
// finds the lease expired acquires it (with a bumped fencing epoch) and
// promotes itself.
package coord

import (
	"sync"
	"time"
)

// lease is one named, expiring ownership claim.
type lease struct {
	owner   string
	expires time.Time
	// epoch counts ownership transfers (fencing token): it bumps every
	// time the lease is taken by a new owner or re-taken after expiry,
	// never when a live holder renews or re-acquires.
	epoch uint64
}

// Coordinator is a linearizable counter store with watch and lease
// support. The zero value is not usable; call New.
type Coordinator struct {
	mu       sync.Mutex
	counters map[string]uint64
	watchers map[string][]chan uint64
	leases   map[string]*lease
	now      func() time.Time
}

// New returns an empty coordinator.
func New() *Coordinator {
	return &Coordinator{
		counters: make(map[string]uint64),
		watchers: make(map[string][]chan uint64),
		leases:   make(map[string]*lease),
		now:      time.Now,
	}
}

// SetClock injects the lease time source (tests drive expiry without
// sleeping). nil restores the wall clock.
func (c *Coordinator) SetClock(now func() time.Time) {
	c.mu.Lock()
	if now == nil {
		now = time.Now
	}
	c.now = now
	c.mu.Unlock()
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

// Unwatch removes a previously registered watch channel. Failover
// agents that re-watch on every cycle must pair each Watch with an
// Unwatch or the watcher slice (and its channel) leaks per cycle.
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

// Acquire takes the named lease for owner with the given TTL if it is
// free, expired, or already held by owner. It reports whether the lease
// is now held and, when held, the lease's fencing epoch — the epoch
// bumps on every ownership transfer (new owner, or any owner re-taking
// an expired lease), so a holder that lets its lease lapse can detect
// the lapse even if nobody else claimed it in between.
func (c *Coordinator) Acquire(name, owner string, ttl time.Duration) (held bool, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	l := c.leases[name]
	if l == nil {
		l = &lease{}
		c.leases[name] = l
	}
	switch {
	case l.owner == "" || now.After(l.expires):
		// Free or expired: any claimant takes it under a new epoch.
		l.owner = owner
		l.epoch++
	case l.owner == owner:
		// Live re-acquire by the holder: extend, same epoch.
	default:
		return false, 0
	}
	l.expires = now.Add(ttl)
	return true, l.epoch
}

// Renew extends the lease iff owner still holds it unexpired. An
// expired lease cannot be renewed — the owner must Acquire again (and
// observe the bumped epoch), exactly like a lapsed ZooKeeper session.
func (c *Coordinator) Renew(name, owner string, ttl time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	l := c.leases[name]
	if l == nil || l.owner != owner || now.After(l.expires) {
		return false
	}
	l.expires = now.Add(ttl)
	return true
}

// Release frees the lease iff owner holds it (expired or not). The
// epoch survives so the next Acquire still observes a transfer.
func (c *Coordinator) Release(name, owner string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.leases[name]; l != nil && l.owner == owner {
		l.owner = ""
		l.expires = time.Time{}
	}
}
