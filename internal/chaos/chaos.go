// Package chaos is the seeded fault scheduler of the robustness
// harness: it assembles a small heterogeneous ecosystem (one document
// publisher, a document subscriber, and a SQL subscriber) on a
// simulated network (internal/netsim), drives randomized fault scripts
// against it — bidirectional partitions, broker crash/restarts,
// version-store deaths healed by generation bumps (§4.4) — while a
// writer keeps publishing, and then checks exact cross-engine
// convergence once the faults heal.
//
// Determinism: every fault decision (which fault, when, for how long,
// which link) and every network decision (latency, drop, duplicate)
// comes from generators seeded by Config.Seed, so a failing seed
// replays the same fault script. Goroutine interleaving stays real, so
// the invariants are checked across schedules, not just one.
//
// The invariants, per Config.Seed:
//
//   - Zero lost updates: after the final heal and one settle write per
//     object, every subscriber's database exactly matches the
//     publisher's — with no Bootstrap call anywhere (queues are
//     unbounded, so nothing decommissions; recovery is pure message
//     flow: journal redrains, broker restart from its log, redelivery, and
//     generation flushes).
//   - Zero double-applied updates: object values are globally
//     monotonic across writes, so any subscriber callback observing a
//     value regression means a stale delivery was re-applied over a
//     newer one past the version guard (Result.Regressions counts
//     these; it must be 0).
//   - The broker log is truncated, never over-truncated (LogCheck): no
//     truncation drops a record at or above a live queue's low-water
//     mark, and once converged a broker retains at most one segment.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/documentorm"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/reldb"
	"synapse/internal/vstore"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed drives the fault script and every network decision.
	Seed int64
	// Writes is how many publisher writes happen during the turbulent
	// phase (default 40).
	Writes int
	// Objects is how many distinct objects the writes touch (default 5).
	Objects int
	// Steps is how many fault-script steps the scheduler runs
	// (default 8).
	Steps int
	// StepHold is the nominal duration each injected fault is held
	// before healing (default 12ms; the script jitters around it).
	StepHold time.Duration
	// SettleTimeout bounds how long convergence may take after the
	// final heal (default 10s).
	SettleTimeout time.Duration
	// Tracker selects the dependency-tracking policy for every app in
	// the ecosystem: core.TrackerHash (the default) or core.TrackerDVV.
	// The invariants are policy-independent; running the same seeds
	// under both trackers is the DVV zero-lost/zero-regression check.
	Tracker string
}

func (c Config) withDefaults() Config {
	if c.Writes <= 0 {
		c.Writes = 40
	}
	if c.Objects <= 0 {
		c.Objects = 5
	}
	if c.Steps <= 0 {
		c.Steps = 8
	}
	if c.StepHold <= 0 {
		c.StepHold = 12 * time.Millisecond
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 10 * time.Second
	}
	return c
}

// Result is what one chaos run observed.
type Result struct {
	Seed    int64
	Writes  int
	Tracker string // dependency-tracking policy the run used

	// Fault script composition.
	BrokerBounces int // broker Crash/Restart cycles
	Partitions    int // bidirectional partitions injected (incl. combos)
	VStoreKills   int // publisher version-store deaths
	GenBumps      int // generation bumps the writer healed with (§4.4)

	// Convergence.
	Converged        bool
	RecoveryTime     time.Duration // final heal -> exact convergence
	Mismatch         string        // first divergence seen at timeout (debugging)
	Regressions      int           // value regressions observed by subscriber callbacks
	RegressionDetail []string      // one line per regression (debugging)

	// Traffic and healing volume.
	Net         netsim.Stats
	Deferred    int64 // publisher sends degraded to journal-and-defer
	Republished int64 // journal entries re-sent by the periodic drain
	Redelivered int64 // subscriber deliveries redelivered (lost acks, restarts)
	PendingAcks int   // parked acks left at the end (0 when converged)

	LogCheck
}

// LogCheck is the broker-log invariant every script asserts.
type LogCheck struct {
	// LogViolation describes the first truncation that dropped a record
	// at or above some live queue's low-water mark ("" = never happened).
	LogViolation string
	// LogSegments is the most log segments any broker still retained
	// once the run had converged; at most 1 when the log follows the
	// queues down.
	LogSegments int
}

// logWatch observes a broker's (or every cluster shard's) truncations.
type logWatch struct {
	mu        sync.Mutex
	violation string
}

// hook is the broker truncation observer.
func (w *logWatch) hook(head uint64, lows map[string]uint64) {
	for name, low := range lows {
		if low < head {
			w.mu.Lock()
			if w.violation == "" {
				w.violation = fmt.Sprintf("log truncated to %d past queue %s's low-water mark %d", head, name, low)
			}
			w.mu.Unlock()
		}
	}
}

// verdict is the LogCheck of a run whose brokers retain the given
// number of segments.
func (w *logWatch) verdict(segments int) LogCheck {
	w.mu.Lock()
	defer w.mu.Unlock()
	return LogCheck{LogViolation: w.violation, LogSegments: segments}
}

// quiesce gives a run's trailing work until the deadline to finish, and
// reports the acks still parked then. The databases can match while the
// last deliveries — redelivered duplicates the version guard discards —
// are still being acked, and an ack whose call the lossy link dropped
// sits parked until the next retry tick: neither is a leftover, and a
// count taken the instant the databases match would flake on them.
func quiesce(deadline time.Time, segments func() int, apps ...*core.App) int {
	for {
		parked := 0
		for _, a := range apps {
			parked += a.PendingAcks()
		}
		if (parked == 0 && segments() <= 1) || !time.Now().Before(deadline) {
			return parked
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logErr is the error a script returns for a broken log invariant, so
// every caller — tests, soak, bench experiments — asserts it. Retention
// is only judged on a run that converged.
func (c LogCheck) logErr(converged bool) error {
	switch {
	case c.LogViolation != "":
		return errors.New(c.LogViolation)
	case converged && c.LogSegments > 1:
		return fmt.Errorf("broker log retains %d segments after convergence", c.LogSegments)
	}
	return nil
}

const chaosModel = "User"

func chaosDesc() *model.Descriptor {
	return model.NewDescriptor(chaosModel,
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "likes", Type: model.Int},
	)
}

// subProbe counts value regressions on one subscriber: applied values
// per object must never decrease (globally monotonic writes + the
// per-object version guard).
type subProbe struct {
	name        string
	mu          sync.Mutex
	last        map[string]int64
	regressions int
	detail      []string
}

func (p *subProbe) observe(id string, v int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.last == nil {
		p.last = make(map[string]int64)
	}
	if v < p.last[id] {
		p.regressions++
		p.detail = append(p.detail, fmt.Sprintf("%s: %s went %d -> %d", p.name, id, p.last[id], v))
	} else {
		p.last[id] = v
	}
}

func (p *subProbe) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.regressions
}

// Run executes one seeded chaos script and reports what it observed.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	tracker := cfg.Tracker
	if tracker == "" {
		tracker = core.TrackerHash
	}
	res := Result{Seed: cfg.Seed, Writes: cfg.Writes, Tracker: tracker}

	net := netsim.New(cfg.Seed)
	// Version-store and coordinator links: latency only. A persistent
	// subscriber<->vstore fault would silently strand claim rollbacks,
	// which is a different failure class than this harness asserts on;
	// broker links carry the loss (below), where the journal, parked
	// acks, and redelivery heal it.
	net.SetDefaultProfile(netsim.Profile{
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 80 * time.Microsecond,
	})

	f := core.NewFabric()
	f.Net = net
	var logs logWatch
	f.Broker.SetTruncateHook(logs.hook)

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

	// Baseline turbulence on every app<->broker link, even while
	// "healthy": a few percent of calls drop (visible RPC failures,
	// healed by retry/journal/parked acks) and duplicate (absorbed by
	// the version guard and ErrBadTag).
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
	// The publisher subscribes to nothing, so its worker loop exits
	// immediately — but StartWorkers also runs the periodic journal
	// drain, which is what republishes journal-and-defer sends once the
	// broker endpoint heals.
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

	// write publishes value v to the object, healing a dead version
	// store in place (§4.4: bump the generation, revive empty, resume).
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

	// Turbulent phase: the writer publishes on a steady cadence while
	// the scheduler injects faults. The writer runs in this goroutine's
	// rng space (Seed+1) so the fault script (Seed) is independent of
	// write placement.
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
		// Jitter the hold around StepHold: [0.5x, 1.5x].
		return cfg.StepHold/2 + time.Duration(srng.Int63n(int64(cfg.StepHold)))
	}
	partition := func(app string) {
		net.Partition(app, core.EndpointBroker)
		res.Partitions++
	}
	for step := 0; step < cfg.Steps; step++ {
		switch srng.Intn(5) {
		case 0: // publisher cut off from the broker
			partition(pub.Name())
			time.Sleep(hold())
			net.Heal(pub.Name(), core.EndpointBroker)
		case 1: // one subscriber cut off from the broker
			s := subs[srng.Intn(len(subs))]
			partition(s.Name())
			time.Sleep(hold())
			net.Heal(s.Name(), core.EndpointBroker)
		case 2: // broker crash + restart (log and cursor states survive)
			f.Broker.Crash()
			res.BrokerBounces++
			time.Sleep(hold())
			f.Broker.Restart()
		case 3: // publisher version-store death; the writer heals it
			pub.Store().Kill()
			res.VStoreKills++
			time.Sleep(hold())
		case 4: // combined: broker down AND a subscriber partitioned
			s := subs[srng.Intn(len(subs))]
			f.Broker.Crash()
			res.BrokerBounces++
			partition(s.Name())
			time.Sleep(hold())
			f.Broker.Restart()
			time.Sleep(hold() / 2)
			net.Heal(s.Name(), core.EndpointBroker)
		}
		time.Sleep(cfg.StepHold / 2)
	}
	<-writerDone
	if writerErr != nil {
		return res, writerErr
	}

	// Final heal, then one settle write per object: full-state messages
	// under the final generation, so convergence never needs a
	// Bootstrap even when a generation flush dropped earlier updates.
	net.HealAll()
	if f.Broker.Down() {
		f.Broker.Restart()
	}
	healed := time.Now()
	for _, id := range objs {
		nextValue++
		if err := write(id, nextValue); err != nil {
			return res, err
		}
	}

	// Convergence: every subscriber database exactly matches the
	// publisher's, the publish journal is drained, and no acks remain
	// parked.
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
	res.PendingAcks = quiesce(deadline, f.Broker.LogSegments, append(subs[:len(subs):len(subs)], pub)...)
	res.LogCheck = logs.verdict(f.Broker.LogSegments())
	return res, res.logErr(res.Converged)
}

// diverged reports the first divergence between the publisher and the
// subscribers, or "" when fully converged.
func diverged(pub *core.App, subs []*core.App, objs []string) string {
	if d := pub.JournalDepth(); d > 0 {
		return fmt.Sprintf("publisher journal still holds %d entries", d)
	}
	for _, a := range append([]*core.App{pub}, subs...) {
		if n := a.PendingAcks(); n > 0 {
			return fmt.Sprintf("%s still has %d parked acks", a.Name(), n)
		}
	}
	for _, id := range objs {
		want, err := pub.Mapper().Find(chaosModel, id)
		if err != nil {
			return fmt.Sprintf("publisher missing %s: %v", id, err)
		}
		for _, s := range subs {
			// What a lagging subscriber's parked messages wait for is the diagnosis.
			got, err := s.Mapper().Find(chaosModel, id)
			if err != nil {
				return fmt.Sprintf("%s missing %s; parked: %q", s.Name(), id, s.Stats().Parked)
			}
			if got.String("name") != want.String("name") || got.Int("likes") != want.Int("likes") {
				return fmt.Sprintf("%s has %s=(%s,%d), publisher has (%s,%d); parked: %q",
					s.Name(), id, got.String("name"), got.Int("likes"),
					want.String("name"), want.Int("likes"), s.Stats().Parked)
			}
		}
	}
	return ""
}
