package chaos

import (
	"math/rand"
	"time"

	"synapse/internal/broker/cluster"
	"synapse/internal/core"
)

// The cluster scripts' width and per-shard primary lease; failover
// detection plus promotion completes within roughly one lease.
const (
	clusterShards   = 4
	clusterLeaseTTL = 20 * time.Millisecond
)

// ClusterResult extends Result with the cluster-level fault script and
// what the failover machinery did about it.
type ClusterResult struct {
	Result
	Shards          int
	ShardBounces    int   // shard-primary crashes injected
	ShipPartitions  int   // replication-link partitions injected
	CoordIsolations int   // shard<->coord partitions (forced promotions)
	Failovers       int64 // follower promotions performed
}

// ClusterRun executes one seeded chaos script against a full ecosystem
// riding a sharded broker cluster: the same zero-lost and
// zero-regression invariants as Run, with the fault palette extended to
// shard-primary crashes (healed by coord-elected failover, not
// restart), replication-link partitions (shipped-log lag), and
// shard-from-coordinator isolations (forced promotion of a live,
// then-fenced primary).
func ClusterRun(cfg Config) (ClusterResult, error) {
	cfg = cfg.withDefaults()
	res := ClusterResult{
		Result: Result{Seed: cfg.Seed, Writes: cfg.Writes, Tracker: cfg.Tracker},
		Shards: clusterShards,
	}
	t := newTurbulent(cfg.Seed, cfg.Tracker)
	net := t.net
	cl := cluster.New(cluster.Config{
		Shards:       clusterShards,
		Coord:        t.f.Coord,
		Net:          net,
		ShipInterval: time.Millisecond,
		LeaseTTL:     clusterLeaseTTL,
	})
	defer cl.Close()
	t.f.Bus = cl
	cl.SetTruncateHook(t.logs.hook)
	e, err := t.ecosystem(cfg.Objects)
	if err != nil {
		return res, err
	}
	defer e.stop()
	pub, subs := e.pub, e.subs

	written := e.steady(cfg.Seed, e.objs, cfg.Writes)
	srng := rand.New(rand.NewSource(cfg.Seed))
	// subShard picks the shard owning a random subscriber's queue, so
	// injected shard faults always hit live consumer state.
	subShard := func() int { return cl.ShardOf(subs[srng.Intn(len(subs))].Name()) }
	for step := 0; step < cfg.Steps; step++ {
		switch srng.Intn(6) {
		case 0: // publisher cut off from the cluster front-end
			net.Partition(pub.Name(), core.EndpointBroker)
			res.Partitions++
			time.Sleep(hold(srng))
			net.Heal(pub.Name(), core.EndpointBroker)
		case 1: // one subscriber cut off from the front-end
			s := subs[srng.Intn(len(subs))]
			net.Partition(s.Name(), core.EndpointBroker)
			res.Partitions++
			time.Sleep(hold(srng))
			net.Heal(s.Name(), core.EndpointBroker)
		case 2: // shard bounce: crash a primary, failover heals it —
			// no restart; the lease lapses and the follower is promoted.
			cl.CrashShard(subShard())
			res.ShardBounces++
			time.Sleep(hold(srng))
		case 3: // publisher version-store death; the writer heals it
			pub.Store().Kill()
			res.VStoreKills++
			time.Sleep(hold(srng))
		case 4: // replication-link partition: the follower lags; a
			// failover during the lag loses the unshipped suffix, healed
			// by journal redrains and the settle writes.
			i := subShard()
			net.Partition(cluster.EndpointReplica(i), cluster.EndpointShard(i))
			res.ShipPartitions++
			time.Sleep(hold(srng))
			net.Heal(cluster.EndpointReplica(i), cluster.EndpointShard(i))
		case 5: // shard isolated from the coordinator: its lease lapses
			// while it is alive, the follower takes over, and the old
			// primary is fenced — split brain resolved by the epoch.
			i := subShard()
			net.Partition(cluster.EndpointShard(i), core.EndpointCoord)
			res.CoordIsolations++
			time.Sleep(hold(srng))
			net.Heal(cluster.EndpointShard(i), core.EndpointCoord)
		}
		time.Sleep(stepHold / 2)
	}
	if err := written(); err != nil {
		return res, err
	}

	// Final heal. Crashed shards are not restarted: recovery is the
	// cluster's own job (lease lapse -> promotion), so just wait for
	// every shard to report a live primary before the settle writes.
	net.HealAll()
	allUp := func() bool {
		for i := 0; i < cl.Shards(); i++ {
			if cl.ShardDown(i) {
				return false
			}
		}
		return true
	}
	for upDeadline := time.Now().Add(settleTimeout); !allUp(); time.Sleep(time.Millisecond) {
		if time.Now().After(upDeadline) {
			res.Mismatch = "a shard never recovered a live primary"
			return res, nil
		}
	}
	err = e.finish(&res.Result, cl.LogSegments)
	res.Failovers = cl.Failovers()
	return res, err
}
