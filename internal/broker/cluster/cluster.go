// Package cluster turns the single in-process broker into a sharded,
// replicated broker fabric — the clustered RabbitMQ deployment of
// §4.4 scaled past one node. A Cluster front-end hash-partitions
// queues across N broker shards; each shard runs one primary broker
// plus a warm follower that tails the primary's message log over the
// simulated network (so latency, drops, and partitions apply to
// replication itself); and a per-shard agent elects the primary with
// an expiring coordinator lease. When the primary crashes — or is
// partitioned from the coordinator long enough for its lease to lapse
// — the follower acquires the lease under a bumped fencing epoch,
// fences the old primary permanently, and promotes its shipped log
// into a live broker: pending messages in publish order, delivered-
// but-unacked messages re-flagged Redelivered.
//
// Replication is asynchronous: a failover can lose the unshipped log
// suffix. The surrounding Synapse machinery is built for exactly this
// failure class (§6.5 message loss): publishers journal-and-defer
// failed sends, deliveries are at-least-once behind the per-object
// version guard, and full-state messages make convergence heal any
// gap — the chaos harness asserts it.
//
// Catch-up never pauses the primary: a follower pulls the log records
// past its cursor plus the queue cursor states that changed, and one
// that fell behind the primary's truncation is simply served from the
// log head — there is no rewritten history to refetch.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/broker"
	"synapse/internal/coord"
	"synapse/internal/netsim"
)

// Simulated-network endpoint names. The front-end name matches
// core.EndpointBroker, so apps keep addressing "broker" and the
// cluster's internal hops ride their own links.
const (
	endpointFront = "broker"
	endpointCoord = "coord"
)

// EndpointShard names shard i's primary broker on the network.
func EndpointShard(i int) string { return fmt.Sprintf("broker/shard%d", i) }

// EndpointReplica names shard i's follower on the network.
func EndpointReplica(i int) string { return EndpointShard(i) + "/replica" }

// Config parameterizes a cluster.
type Config struct {
	// Shards is the number of broker shards (default 1).
	Shards int
	// Coord is the coordinator holding the per-shard primary leases
	// (required; share it with the Fabric so everything elects through
	// the same reliability anchor).
	Coord *coord.Coordinator
	// Net, when non-nil, carries the cluster's internal traffic: lease
	// renewals (shard -> coord), log shipping (replica -> shard), and the
	// front-end -> shard hop of every publish/declare/bind.
	Net *netsim.Network
	// ShipInterval is the agent tick: lease renewal + one shipping pull
	// per shard (default 1ms).
	ShipInterval time.Duration
	// LeaseTTL is the primary lease duration; a primary silent for this
	// long is superseded. Clamped to at least 4 ship intervals so a
	// healthy primary cannot miss enough renewals to lose its lease.
	LeaseTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Coord == nil {
		c.Coord = coord.New()
	}
	if c.ShipInterval <= 0 {
		c.ShipInterval = time.Millisecond
	}
	if c.LeaseTTL < 4*c.ShipInterval {
		c.LeaseTTL = 4 * c.ShipInterval
	}
	return c
}

// queueMeta is the control-plane record of one declared queue.
type queueMeta struct {
	maxLen int
}

// Cluster is the sharded broker front-end. It satisfies core.Bus, so a
// Fabric routes all app messaging through it transparently.
type Cluster struct {
	cfg   Config
	coord *coord.Coordinator
	net   *netsim.Network

	// Control-plane metadata: declarations and bindings, owned by the
	// front-end and re-applied to a promoted follower. Replication would
	// carry them eventually, but a binding made after the last ship must
	// not vanish in a failover.
	mu       sync.Mutex
	queues   map[string]queueMeta
	bindings map[string][]string // exchange -> queue names, bind order
	// routes is bindings reduced to what a publish needs: exchange ->
	// the shards holding a bound queue, ascending. Copy-on-write, like
	// Broker.bindings: rebuilt whenever bindings changes, never mutated
	// in place, so a publish reads it without allocating.
	routes map[string][]*shard
	closed bool
	// truncateHook, when set, is installed on every shard primary (tests).
	truncateHook func(head uint64, lows map[string]uint64)

	shards []*shard

	published int64 // atomic
	failovers int64 // atomic
}

// New builds the cluster: every shard starts with a fresh primary
// holding its lease, an empty follower buffer, and a running agent.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:      cfg,
		coord:    cfg.Coord,
		net:      cfg.Net,
		queues:   make(map[string]queueMeta),
		bindings: make(map[string][]string),
		routes:   make(map[string][]*shard),
	}
	for i := 0; i < cfg.Shards; i++ {
		b := broker.New()
		s := &shard{
			idx:     i,
			primary: b,
			owner:   ownerName(i, 0),
			stop:    make(chan struct{}),
			done:    make(chan struct{}),
		}
		// Construction-time election: no network yet to lose.
		if held, epoch := c.coord.Acquire(leaseName(i), s.owner, cfg.LeaseTTL); held {
			s.gen = epoch
		}
		s.replica, _ = b.ShipLog(broker.Cursor{})
		c.shards = append(c.shards, s)
	}
	for _, s := range c.shards {
		go c.agent(s)
	}
	return c
}

func leaseName(i int) string { return fmt.Sprintf("cluster/shard%d", i) }

// GenCounter names the coordinator counter bumped on every promotion
// of shard i — observers watch it like a generation number.
func GenCounter(i int) string { return fmt.Sprintf("cluster/shard%d/gen", i) }

func ownerName(i, instance int) string {
	return fmt.Sprintf("broker/shard%d/inst%d", i, instance)
}

// Close stops every shard agent. The brokers stay readable (tests
// inspect them) but no further shipping or failover happens.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, s := range c.shards {
		close(s.stop)
	}
	for _, s := range c.shards {
		<-s.done
	}
}

// ShardOf reports which shard owns the named queue.
func (c *Cluster) ShardOf(queue string) int {
	h := fnv.New32a()
	h.Write([]byte(queue))
	return int(h.Sum32()) % len(c.shards)
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

func (c *Cluster) netDo(from, to string, fn func() error) error {
	if c.net != nil {
		return c.net.Do(from, to, fn)
	}
	return fn()
}

func (c *Cluster) netCall(from, to string) error {
	if c.net != nil {
		return c.net.Call(from, to)
	}
	return nil
}

// DeclareQueue records the queue in the control plane and declares it
// on its shard's primary. The front-end -> shard hop rides the network,
// so a partitioned or crashed shard fails the call like a down broker;
// the control-plane record survives either way and a promotion replays
// it.
func (c *Cluster) DeclareQueue(name string, maxLen int) (*broker.Queue, error) {
	c.mu.Lock()
	c.queues[name] = queueMeta{maxLen: maxLen}
	c.mu.Unlock()
	s := c.shards[c.ShardOf(name)]
	if err := c.netCall(endpointFront, EndpointShard(s.idx)); err != nil {
		return nil, err
	}
	return s.broker().DeclareQueue(name, maxLen)
}

// Queue returns the live handle for the named queue from its shard's
// current primary. During a failover window there is no live primary
// and the lookup misses; consumers retry and reattach, exactly as they
// do across a single-broker restart.
func (c *Cluster) Queue(name string) (*broker.Queue, bool) {
	return c.shards[c.ShardOf(name)].broker().Queue(name)
}

// DeleteQueue removes the queue from the control plane and its shard.
// The control-plane removal is what sticks: a follower promoted later
// drops any replicated queue the control plane no longer lists.
func (c *Cluster) DeleteQueue(name string) {
	c.mu.Lock()
	delete(c.queues, name)
	for ex, qs := range c.bindings {
		for i, qn := range qs {
			if qn == name {
				c.bindings[ex] = append(append([]string{}, qs[:i]...), qs[i+1:]...)
				c.rerouteLocked(ex)
				break
			}
		}
	}
	c.mu.Unlock()
	c.shards[c.ShardOf(name)].broker().DeleteQueue(name)
}

// Bind records the binding in the control plane and applies it on the
// queue's shard.
func (c *Cluster) Bind(queueName, exchange string) error {
	c.mu.Lock()
	bound := false
	for _, qn := range c.bindings[exchange] {
		if qn == queueName {
			bound = true
			break
		}
	}
	if !bound {
		c.bindings[exchange] = append(c.bindings[exchange], queueName)
		c.rerouteLocked(exchange)
	}
	c.mu.Unlock()
	s := c.shards[c.ShardOf(queueName)]
	if err := c.netCall(endpointFront, EndpointShard(s.idx)); err != nil {
		return err
	}
	return s.broker().Bind(queueName, exchange)
}

// rerouteLocked rebuilds the exchange's shard list from its bindings.
func (c *Cluster) rerouteLocked(exchange string) {
	var route []*shard
	for _, s := range c.shards {
		for _, qn := range c.bindings[exchange] {
			if c.ShardOf(qn) == s.idx {
				route = append(route, s)
				break
			}
		}
	}
	c.routes[exchange] = route
}

func (c *Cluster) route(exchange string) []*shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routes[exchange]
}

// Publish fans the payload out to every shard holding a queue bound to
// the exchange. Shard deliveries are independent: one unreachable
// shard fails the call (the publisher journals and re-sends) but the
// reachable shards still got the message — the redundant re-delivery
// is absorbed by at-least-once semantics downstream.
func (c *Cluster) Publish(exchange string, payload []byte) error {
	atomic.AddInt64(&c.published, 1)
	var firstErr error
	for _, s := range c.route(exchange) {
		if err := c.publishShard(s, exchange, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (c *Cluster) publishShard(s *shard, exchange string, payload []byte) error {
	if err := c.netCall(endpointFront, EndpointShard(s.idx)); err != nil {
		return err
	}
	return s.broker().Publish(exchange, payload)
}

// ExchangePressure reports the worst overload signal across the shards
// holding queues bound to the exchange.
func (c *Cluster) ExchangePressure(exchange string) broker.Pressure {
	p := broker.PressureNormal
	for _, s := range c.route(exchange) {
		if sp := s.broker().ExchangePressure(exchange); sp > p {
			p = sp
		}
	}
	return p
}

// Down reports whether the whole cluster is unavailable — every shard
// primary down at once. A single failing shard is not "down": its
// queues' consumers ride the failover via reattach while the rest of
// the cluster keeps serving.
func (c *Cluster) Down() bool {
	for _, s := range c.shards {
		if !s.broker().Down() {
			return false
		}
	}
	return true
}

// CrashShard kills shard i's primary process. Its log and cursor
// states survive in-instance: a RestartShard before the lease lapses
// revives it; once the lease lapses the follower is promoted instead
// and the old primary is fenced for good.
func (c *Cluster) CrashShard(i int) { c.shards[i].broker().Crash() }

// RestartShard restarts shard i's primary from its surviving log — a
// no-op if the failover already fenced it (the promoted follower is
// the primary now, and stale state must stay dead).
func (c *Cluster) RestartShard(i int) { c.shards[i].broker().Restart() }

// ShardDown reports whether shard i's current primary is down.
func (c *Cluster) ShardDown(i int) bool { return c.shards[i].broker().Down() }

// Published reports total Publish calls on the front-end.
func (c *Cluster) Published() int64 { return atomic.LoadInt64(&c.published) }

// Failovers reports completed follower promotions.
func (c *Cluster) Failovers() int64 { return atomic.LoadInt64(&c.failovers) }

// SetTruncateHook installs a broker truncation observer (tests) on
// every shard primary, current and promoted later.
func (c *Cluster) SetTruncateHook(f func(head uint64, lows map[string]uint64)) {
	c.mu.Lock()
	c.truncateHook = f
	c.mu.Unlock()
	for _, s := range c.shards {
		s.broker().SetTruncateHook(f)
	}
}

// LogSegments reports the most log segments any shard primary retains.
func (c *Cluster) LogSegments() int {
	n := 0
	for _, s := range c.shards {
		n = max(n, s.broker().LogSegments())
	}
	return n
}

// CaughtUp reports whether shard i's follower has shipped the
// primary's entire log — the zero-lag point where a failover would
// lose nothing.
func (c *Cluster) CaughtUp(i int) bool {
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica.Next == s.primary.LogCursor()
}

// Generation reports shard i's current fencing epoch.
func (c *Cluster) Generation(i int) uint64 {
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}
