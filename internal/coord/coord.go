// Package coord implements the tiny, reliable coordination service
// Synapse needs for generation numbers (Chubby/ZooKeeper in the paper,
// §4.4): a linearizable key-value store of counters.
//
// When a publisher's version store dies, the publisher atomically
// increments its generation counter here and resumes publishing.
// Subscribers learn the new generation from each message's Generation
// field and run the generation barrier when it moves.
package coord

import "sync"

// Coordinator is a linearizable counter store. The zero value is not
// usable; call New.
type Coordinator struct {
	mu       sync.Mutex
	counters map[string]uint64
}

// New returns an empty coordinator.
func New() *Coordinator {
	return &Coordinator{counters: make(map[string]uint64)}
}

// Get returns the current value of a counter (0 when never set).
func (c *Coordinator) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Increment atomically bumps a counter, returning the new value.
func (c *Coordinator) Increment(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters[name]++
	return c.counters[name]
}
