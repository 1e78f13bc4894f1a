package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/broker"
)

// shard is one hash partition: a primary broker, its lease identity,
// and the follower (a replica of the primary) the agent maintains.
// All mutation happens in the shard's agent goroutine or under mu.
type shard struct {
	idx int

	mu       sync.Mutex
	primary  *broker.Broker
	owner    string // lease owner identity of the current primary
	gen      uint64 // fencing epoch the current primary holds
	instance int    // bumps per promotion; distinguishes lease owners

	// Follower: the primary's retained log and cursor states as of the
	// last pull; replica.Next is where the next pull resumes.
	replica broker.Replica

	stop chan struct{}
	done chan struct{}
}

func (s *shard) broker() *broker.Broker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary
}

// agent is the per-shard maintenance loop: every tick it renews the
// primary's lease, ships the log to the follower, and — when the lease
// has lapsed — promotes the follower. One goroutine per shard, so all
// three steps are naturally serialized per shard.
func (c *Cluster) agent(s *shard) {
	defer close(s.done)
	t := time.NewTicker(c.cfg.ShipInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			c.tickShard(s)
		}
	}
}

func (c *Cluster) tickShard(s *shard) {
	s.mu.Lock()
	p := s.primary
	owner := s.owner
	cursor := s.replica.Next
	instance := s.instance
	s.mu.Unlock()

	alive := !p.Down()

	// 1. Heartbeat: the primary renews its lease over its own coord
	// link — a partitioned primary stops renewing, which IS the failure
	// detection. If the lease lapsed but nobody claimed it (a quick
	// bounce, a scheduler stall), the primary re-acquires under a bumped
	// epoch and carries on.
	if alive {
		var reEpoch uint64
		_ = c.netDo(EndpointShard(s.idx), endpointCoord, func() error {
			if !c.coord.Renew(leaseName(s.idx), owner, c.cfg.LeaseTTL) {
				if held, epoch := c.coord.Acquire(leaseName(s.idx), owner, c.cfg.LeaseTTL); held {
					reEpoch = epoch
				}
			}
			return nil
		})
		if reEpoch > 0 {
			s.mu.Lock()
			if s.primary == p && reEpoch > s.gen {
				s.gen = reEpoch
			}
			s.mu.Unlock()
		}
	}

	// 2. Ship: the follower pulls the log tail and the changed cursor
	// states over the replica link, and trims its copy to the primary's
	// head. A pull cannot fall too far behind to be served.
	if alive {
		var d broker.Replica
		var ok bool
		err := c.netDo(EndpointReplica(s.idx), EndpointShard(s.idx), func() error {
			d, ok = p.ShipLog(cursor)
			return nil
		})
		if err == nil && ok {
			s.mu.Lock()
			if s.primary == p {
				s.replica.Merge(d)
			}
			s.mu.Unlock()
		}
	}

	// 3. Failover: the follower bids for the lease over its own coord
	// link. The bid only succeeds once the primary has been silent past
	// the TTL — crash, coord partition, or fence — and success carries
	// the bumped fencing epoch that makes the promotion safe.
	cand := ownerName(s.idx, instance+1)
	var held bool
	var epoch uint64
	if err := c.netDo(EndpointReplica(s.idx), endpointCoord, func() error {
		held, epoch = c.coord.Acquire(leaseName(s.idx), cand, c.cfg.LeaseTTL)
		return nil
	}); err != nil || !held {
		return
	}
	c.promote(s, p, cand, epoch)
}

// promote replaces shard s's primary with a broker built from the
// follower's replica. The old primary is fenced FIRST — even if it is
// still alive on the far side of a partition, it can never serve again, so
// acked state the promoted follower lacks cannot be double-delivered
// after the heal. Then the follower's replica becomes a live broker and
// the control-plane metadata (declarations, bindings) is re-applied on
// top, covering anything declared after the last ship.
func (c *Cluster) promote(s *shard, old *broker.Broker, owner string, epoch uint64) {
	s.mu.Lock()
	if s.primary != old || epoch <= s.gen {
		s.mu.Unlock()
		return
	}
	replica := s.replica
	s.mu.Unlock()

	old.Fence()
	nb := broker.FromReplica(replica)
	c.applyMetadata(s.idx, nb)
	next, _ := nb.ShipLog(broker.Cursor{})

	s.mu.Lock()
	s.primary = nb
	s.owner = owner
	s.gen = epoch
	s.instance++
	s.replica = next
	s.mu.Unlock()

	atomic.AddInt64(&c.failovers, 1)
	// Bump the shard generation for observers (the §4.4 pattern: state
	// handoff announced through the coordinator).
	c.coord.Increment(GenCounter(s.idx))
}

// applyMetadata reconciles a broker against the control plane: declare
// every queue and binding the front-end knows for this shard, and drop
// replicated queues the control plane has since deleted.
func (c *Cluster) applyMetadata(idx int, b *broker.Broker) {
	type decl struct {
		name   string
		maxLen int
	}
	type bind struct{ queue, exchange string }
	c.mu.Lock()
	b.SetTruncateHook(c.truncateHook)
	var decls []decl
	for name, meta := range c.queues {
		if c.ShardOf(name) == idx {
			decls = append(decls, decl{name, meta.maxLen})
		}
	}
	var binds []bind
	for ex, qs := range c.bindings {
		for _, qn := range qs {
			if c.ShardOf(qn) == idx {
				binds = append(binds, bind{qn, ex})
			}
		}
	}
	c.mu.Unlock()
	for _, d := range decls {
		_, _ = b.DeclareQueue(d.name, d.maxLen)
	}
	for _, bd := range binds {
		_ = b.Bind(bd.queue, bd.exchange)
	}
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.name] = true
	}
	for _, qn := range b.Queues() {
		if !declared[qn] {
			b.DeleteQueue(qn)
		}
	}
}
