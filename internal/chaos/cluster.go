package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"synapse/internal/broker/cluster"
	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/documentorm"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/reldb"
	"synapse/internal/vstore"
)

// ClusterConfig parameterizes one sharded-broker chaos run.
type ClusterConfig struct {
	Config
	// Shards is the broker cluster width (default 4).
	Shards int
	// LeaseTTL is the per-shard primary lease; failover detection plus
	// promotion completes within roughly one TTL (default 20ms).
	LeaseTTL time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	c.Config = c.Config.withDefaults()
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 20 * time.Millisecond
	}
	return c
}

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
func ClusterRun(cfg ClusterConfig) (ClusterResult, error) {
	cfg = cfg.withDefaults()
	tracker := cfg.Tracker
	if tracker == "" {
		tracker = core.TrackerHash
	}
	res := ClusterResult{
		Result: Result{Seed: cfg.Seed, Writes: cfg.Writes, Tracker: tracker},
		Shards: cfg.Shards,
	}

	net := netsim.New(cfg.Seed)
	net.SetDefaultProfile(netsim.Profile{
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 80 * time.Microsecond,
	})

	f := core.NewFabric()
	f.Net = net
	cl := cluster.New(cluster.Config{
		Shards:       cfg.Shards,
		Coord:        f.Coord,
		Net:          net,
		ShipInterval: time.Millisecond,
		LeaseTTL:     cfg.LeaseTTL,
	})
	defer cl.Close()
	f.Bus = cl
	var logs logWatch
	cl.SetTruncateHook(logs.hook)

	rpc := core.Config{
		Mode:                 core.Causal,
		DepTracker:           tracker,
		DepTimeout:           50 * time.Millisecond,
		RPCAttempts:          2,
		RPCDeadline:          4 * time.Millisecond,
		RPCBackoffBase:       200 * time.Microsecond,
		RPCBackoffMax:        time.Millisecond,
		BreakerThreshold:     3,
		BreakerCooldown:      5 * time.Millisecond,
		JournalRetryInterval: 5 * time.Millisecond,
		Workers:              2,
	}

	pub, err := core.NewApp(f, "chaos-pub", documentorm.New(docdb.New(docdb.MongoDB)), rpc)
	if err != nil {
		return res, err
	}
	subDoc, err := core.NewApp(f, "chaos-doc", documentorm.New(docdb.New(docdb.RethinkDB)), rpc)
	if err != nil {
		return res, err
	}
	subSQL, err := core.NewApp(f, "chaos-sql", activerecord.New(reldb.New(reldb.Postgres)), rpc)
	if err != nil {
		return res, err
	}
	subs := []*core.App{subDoc, subSQL}

	brokerLink := netsim.Profile{
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 150 * time.Microsecond,
		DropRate:   0.03,
		DupRate:    0.02,
	}
	for _, a := range []*core.App{pub, subDoc, subSQL} {
		net.SetProfile(a.Name(), core.EndpointBroker, brokerLink)
	}

	if err := pub.Publish(chaosDesc(), core.PubSpec{Attrs: []string{"name", "likes"}}); err != nil {
		return res, err
	}
	pub.StartWorkers(1)
	defer pub.StopWorkers()
	probes := make([]*subProbe, len(subs))
	for i, s := range subs {
		d := chaosDesc()
		p := &subProbe{name: s.Name()}
		probes[i] = p
		watch := func(ctx *model.CallbackCtx) error {
			p.observe(ctx.Record.ID, ctx.Record.Int("likes"))
			return nil
		}
		d.Callbacks.On(model.AfterCreate, watch)
		d.Callbacks.On(model.AfterUpdate, watch)
		if err := s.Subscribe(d, core.SubSpec{From: pub.Name(), Attrs: []string{"name", "likes"}}); err != nil {
			return res, err
		}
		s.StartWorkers(0)
		defer s.StopWorkers()
	}

	objs := make([]string, cfg.Objects)
	for i := range objs {
		objs[i] = fmt.Sprintf("u%d", i)
	}
	write := func(id string, v int64) error {
		for {
			rec := model.NewRecord(chaosModel, id)
			rec.Set("name", fmt.Sprintf("v%d", v))
			rec.Set("likes", v)
			ctl := pub.NewController(nil)
			var werr error
			if _, ferr := pub.Mapper().Find(chaosModel, id); ferr == nil {
				_, werr = ctl.Update(rec)
			} else {
				_, werr = ctl.Create(rec)
			}
			if werr == nil {
				return nil
			}
			if errors.Is(werr, vstore.ErrDead) {
				pub.RecoverVersionStore()
				res.GenBumps++
				continue
			}
			return werr
		}
	}

	var writerErr error
	var nextValue int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(cfg.Seed + 1))
		for w := 0; w < cfg.Writes; w++ {
			nextValue++
			if err := write(objs[wrng.Intn(len(objs))], nextValue); err != nil {
				writerErr = err
				return
			}
			time.Sleep(time.Duration(1+wrng.Intn(3)) * time.Millisecond)
		}
	}()

	srng := rand.New(rand.NewSource(cfg.Seed))
	hold := func() time.Duration {
		return cfg.StepHold/2 + time.Duration(srng.Int63n(int64(cfg.StepHold)))
	}
	// subShard picks the shard owning a random subscriber's queue, so
	// injected shard faults always hit live consumer state.
	subShard := func() int { return cl.ShardOf(subs[srng.Intn(len(subs))].Name()) }
	for step := 0; step < cfg.Steps; step++ {
		switch srng.Intn(6) {
		case 0: // publisher cut off from the cluster front-end
			net.Partition(pub.Name(), core.EndpointBroker)
			res.Partitions++
			time.Sleep(hold())
			net.Heal(pub.Name(), core.EndpointBroker)
		case 1: // one subscriber cut off from the front-end
			s := subs[srng.Intn(len(subs))]
			net.Partition(s.Name(), core.EndpointBroker)
			res.Partitions++
			time.Sleep(hold())
			net.Heal(s.Name(), core.EndpointBroker)
		case 2: // shard bounce: crash a primary, failover heals it —
			// no restart; the lease lapses and the follower is promoted.
			cl.CrashShard(subShard())
			res.ShardBounces++
			time.Sleep(hold())
		case 3: // publisher version-store death; the writer heals it
			pub.Store().Kill()
			res.VStoreKills++
			time.Sleep(hold())
		case 4: // replication-link partition: the follower lags; a
			// failover during the lag loses the unshipped suffix, healed
			// by journal redrains and the settle writes.
			i := subShard()
			net.Partition(cluster.EndpointReplica(i), cluster.EndpointShard(i))
			res.ShipPartitions++
			time.Sleep(hold())
			net.Heal(cluster.EndpointReplica(i), cluster.EndpointShard(i))
		case 5: // shard isolated from the coordinator: its lease lapses
			// while it is alive, the follower takes over, and the old
			// primary is fenced — split brain resolved by the epoch.
			i := subShard()
			net.Partition(cluster.EndpointShard(i), core.EndpointCoord)
			res.CoordIsolations++
			time.Sleep(hold())
			net.Heal(cluster.EndpointShard(i), core.EndpointCoord)
		}
		time.Sleep(cfg.StepHold / 2)
	}
	<-writerDone
	if writerErr != nil {
		return res, writerErr
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
	upDeadline := time.Now().Add(cfg.SettleTimeout)
	for !allUp() {
		if time.Now().After(upDeadline) {
			res.Mismatch = "a shard never recovered a live primary"
			return res, nil
		}
		time.Sleep(time.Millisecond)
	}
	healed := time.Now()
	for _, id := range objs {
		nextValue++
		if err := write(id, nextValue); err != nil {
			return res, err
		}
	}

	deadline := time.Now().Add(cfg.SettleTimeout)
	for {
		mismatch := diverged(pub, subs, objs)
		if mismatch == "" {
			res.Converged = true
			res.RecoveryTime = time.Since(healed)
			break
		}
		if time.Now().After(deadline) {
			res.Mismatch = mismatch
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	for i := range probes {
		res.Regressions += probes[i].count()
		res.RegressionDetail = append(res.RegressionDetail, probes[i].detail...)
	}
	res.Net = net.Stats()
	ps := pub.Stats()
	res.Deferred = ps.Deferred
	res.Republished = ps.Republished
	for _, s := range subs {
		res.Redelivered += s.Stats().Redelivered
	}
	res.PendingAcks = quiesce(deadline, cl.LogSegments, append(subs[:len(subs):len(subs)], pub)...)
	res.LogCheck = logs.verdict(cl.LogSegments())
	res.Failovers = cl.Failovers()
	return res, res.logErr(res.Converged)
}
