package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/documentorm"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/reldb"
)

// RunOverload drives the overload-control layer end to end: a publisher
// sustains roughly 2x the throughput a deliberately slow subscriber can
// apply, so the subscriber queue climbs into its high watermark and the
// publisher walks the degradation ladder (throttle -> defer -> shed)
// instead of flooding the queue toward the maxLen decommission cliff.
// Mid-run a poison write hangs its subscriber callback forever; the
// stall watchdog must quarantine it to the dead-letter set-aside while
// sibling messages keep draining. After the writer stops, the operator
// "fixes" the callback, replays the dead letter, and the run checks
// exact convergence, then performs a graceful Drain.
//
// The invariants, per OverloadConfig.Seed:
//
//   - Bounded queue: depth never reaches HardBound and the queue is
//     never decommissioned — soft backpressure absorbs the overload the
//     hard bound would otherwise answer with the §4.4 cliff.
//   - Zero lost updates: after release + replay + one settle write per
//     object, the subscriber database exactly matches the publisher's
//     (shed low-priority updates are superseded by the settle writes).
//   - Slow-consumer isolation: the hung delivery quarantines within the
//     escalation budget while sibling deliveries keep being applied.
//   - Clean hand-off: Drain leaves no unacked deliveries and no parked
//     acks behind.
type OverloadConfig struct {
	// Seed drives write placement and every network decision.
	Seed int64
	// Writes is how many publisher writes the overload phase sustains
	// (default 240).
	Writes int
	// Objects is how many distinct objects the writes touch (default 8).
	Objects int
	// ApplyDelay is the subscriber's per-apply processing time. The
	// default 8ms across the pool's two workers caps drain at ~250
	// msg/s; the writer sustains ~500 msg/s (its ~1ms publish cost
	// through the simulated network plus a 0.5-1.5ms jittered pause) —
	// a sustained ~2x overload.
	ApplyDelay time.Duration
	// HighWatermark is the queue depth that triggers publisher
	// degradation (default 24; low watermark is half).
	HighWatermark int
	// HardBound is the queue's maxLen decommission bound, which the run
	// must never reach (default 512).
	HardBound int
	// LowPriorityEvery marks every Nth write sheddable (default 4;
	// 0 disables low-priority marking).
	LowPriorityEvery int
	// DisableStall skips the poison write and its quarantine phase.
	DisableStall bool
	// SettleTimeout bounds convergence after the overload ends
	// (default 15s).
	SettleTimeout time.Duration
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Writes <= 0 {
		c.Writes = 240
	}
	if c.Objects <= 0 {
		c.Objects = 8
	}
	if c.ApplyDelay <= 0 {
		c.ApplyDelay = 8 * time.Millisecond
	}
	if c.HighWatermark <= 0 {
		c.HighWatermark = 24
	}
	if c.HardBound <= 0 {
		c.HardBound = 512
	}
	if c.LowPriorityEvery < 0 {
		c.LowPriorityEvery = 0
	} else if c.LowPriorityEvery == 0 {
		c.LowPriorityEvery = 4
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 15 * time.Second
	}
	return c
}

// OverloadResult is what one overload run observed.
type OverloadResult struct {
	Seed   int64
	Writes int

	// Degradation ladder composition (publisher side).
	Deferred    int64 // journal-and-defer publishes under pressure
	Shed        int64 // low-priority publishes dropped under pressure
	Throttled   int64 // publishes that entered bounded-block
	Republished int64 // deferred entries re-sent by the paced drain

	// Slow-consumer isolation.
	Stalled            int64         // apply attempts abandoned by the watchdog
	DeadLettered       int64         // deliveries quarantined to the set-aside
	QuarantineTime     time.Duration // poison write -> quarantined
	DrainedDuringStall int64         // sibling messages applied while the poison hung

	// Queue bounds.
	MaxDepth      int // high-water mark of pending+unacked depth
	HighWatermark int
	HardBound     int
	Decommissions int // must be 0: soft backpressure kept us off the cliff

	// Convergence.
	Converged       bool
	Mismatch        string // first divergence seen at timeout (debugging)
	Regressions     int    // value regressions seen by subscriber callbacks
	RecoveryTime    time.Duration
	GoodputOverload float64 // messages applied per second while overloaded
	GoodputRecovery float64 // messages applied per second during recovery

	// Graceful drain.
	DrainOK      bool
	DrainUnacked int // unacked deliveries left after Drain (must be 0)
	PendingAcks  int // parked acks left at the end (must be 0)

	LogCheck

	Net netsim.Stats
}

// poisonID is the object whose subscriber callback hangs. Its apply
// stripe must differ from every uN object's so collateral stripe
// blocking does not contaminate the sibling-drain measurement (see
// applyStripe in internal/core; verified for up to u15).
const poisonID = "poison"

// RunOverload executes one seeded overload script and reports what it
// observed.
func RunOverload(cfg OverloadConfig) (OverloadResult, error) {
	cfg = cfg.withDefaults()
	res := OverloadResult{
		Seed:          cfg.Seed,
		Writes:        cfg.Writes,
		HighWatermark: cfg.HighWatermark,
		HardBound:     cfg.HardBound,
	}

	net := netsim.New(cfg.Seed)
	net.SetDefaultProfile(netsim.Profile{
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 80 * time.Microsecond,
	})
	f := core.NewFabric()
	f.Net = net
	var logs logWatch
	f.Broker.SetTruncateHook(logs.hook)

	pub, err := core.NewApp(f, "overload-pub",
		documentorm.New(docdb.New(docdb.MongoDB)), core.Config{
			Mode:                 core.Causal,
			JournalRetryInterval: 5 * time.Millisecond,
			RPCAttempts:          2,
			RPCDeadline:          4 * time.Millisecond,
			PublishBlockTimeout:  2 * time.Millisecond,
			ShedLowPriority:      true,
		})
	if err != nil {
		return res, err
	}
	sub, err := core.NewApp(f, "overload-sql",
		activerecord.New(reldb.New(reldb.Postgres)), core.Config{
			Mode:       core.Causal,
			DepTimeout: 20 * time.Millisecond,
			Workers:    2,
			// The scenario's premise is a consumer whose capacity sits
			// ~2x below the offered rate (2 workers x 8ms applies =
			// ~250 msg/s). Pipeline depth is a capacity knob — at the
			// default 4 the overlapped applies drain faster than the
			// writer and the degradation ladder never engages — so this
			// harness pins a window of one; deeper windows get their
			// chaos coverage from the crash/partition runs.
			PipelineDepth:        1,
			QueueMaxLen:          cfg.HardBound,
			QueueHighWatermark:   cfg.HighWatermark,
			QueueLowWatermark:    cfg.HighWatermark / 2,
			CreditWindow:         cfg.HighWatermark / 2,
			ApplyTimeout:         25 * time.Millisecond,
			MaxDeliveryAttempts:  3,
			RetryBackoffBase:     2 * time.Millisecond,
			RetryBackoffMax:      10 * time.Millisecond,
			JournalRetryInterval: 5 * time.Millisecond,
		})
	if err != nil {
		return res, err
	}

	if err := pub.Publish(chaosDesc(), core.PubSpec{Attrs: []string{"name", "likes"}}); err != nil {
		return res, err
	}
	release := make(chan struct{})
	probe := &subProbe{name: sub.Name()}
	d := chaosDesc()
	slow := func(ctx *model.CallbackCtx) error {
		if !cfg.DisableStall && ctx.Record.ID == poisonID {
			<-release // hung until the "operator" fixes the callback
			return nil
		}
		probe.observe(ctx.Record.ID, ctx.Record.Int("likes"))
		time.Sleep(cfg.ApplyDelay)
		return nil
	}
	d.Callbacks.On(model.AfterCreate, slow)
	d.Callbacks.On(model.AfterUpdate, slow)
	if err := sub.Subscribe(d, core.SubSpec{From: pub.Name(), Attrs: []string{"name", "likes"}}); err != nil {
		return res, err
	}
	q := sub.Queue()
	pub.StartWorkers(1) // journal-drain ticker (the pub consumes nothing)
	defer pub.StopWorkers()
	sub.StartWorkers(0)
	defer sub.StopWorkers()

	objs := make([]string, cfg.Objects)
	for i := range objs {
		objs[i] = fmt.Sprintf("u%d", i)
	}

	write := func(id string, v int64, low bool) error {
		rec := model.NewRecord(chaosModel, id)
		rec.Set("name", fmt.Sprintf("v%d", v))
		rec.Set("likes", v)
		ctl := pub.NewController(nil)
		ctl.SetLowPriority(low)
		if _, ferr := pub.Mapper().Find(chaosModel, id); ferr == nil {
			_, err := ctl.Update(rec)
			return err
		}
		_, err := ctl.Create(rec)
		return err
	}

	// Overload phase: the writer publishes at ~2x the subscriber's
	// drain rate; a third of the way in, the poison write hangs one
	// delivery. A watcher goroutine timestamps the quarantine.
	wrng := rand.New(rand.NewSource(cfg.Seed + 1))
	poisonAt := cfg.Writes / 3
	var poisonTime time.Time
	var processedAtPoison int64
	quarantined := make(chan time.Duration, 1)
	var nextValue int64
	overloadStart := time.Now()
	for w := 0; w < cfg.Writes; w++ {
		if !cfg.DisableStall && w == poisonAt {
			poisonTime = time.Now()
			processedAtPoison = sub.Stats().Processed
			if err := write(poisonID, 1, false); err != nil {
				return res, err
			}
			go func(start time.Time) {
				for sub.Stats().DeadLettered == 0 {
					if time.Since(start) > 10*time.Second {
						return
					}
					time.Sleep(time.Millisecond)
				}
				quarantined <- time.Since(start)
			}(poisonTime)
		}
		nextValue++
		low := cfg.LowPriorityEvery > 0 && w%cfg.LowPriorityEvery == cfg.LowPriorityEvery-1
		if err := write(objs[wrng.Intn(len(objs))], nextValue, low); err != nil {
			return res, err
		}
		time.Sleep(time.Duration(500+wrng.Intn(1000)) * time.Microsecond)
	}
	overloadDur := time.Since(overloadStart)
	processedOverload := sub.Stats().Processed
	if overloadDur > 0 {
		res.GoodputOverload = float64(processedOverload) / overloadDur.Seconds()
	}

	// Quarantine must have happened within the escalation budget (three
	// attempts of escalating watchdog budgets plus backoffs).
	if !cfg.DisableStall {
		select {
		case res.QuarantineTime = <-quarantined:
		case <-time.After(5 * time.Second):
			res.Mismatch = "poison delivery never quarantined"
			return res, nil
		}
		res.DrainedDuringStall = sub.Stats().Processed - processedAtPoison
		// Operator fixes the callback and replays the set-aside.
		close(release)
		sub.ReplayDeadLetters()
	}

	// Settle: one normal-priority write per object supersedes anything
	// shed, then the run must converge exactly.
	recoveryStart := time.Now()
	for _, id := range objs {
		nextValue++
		if err := write(id, nextValue, false); err != nil {
			return res, err
		}
	}
	settleObjs := objs
	if !cfg.DisableStall {
		settleObjs = append(append([]string{}, objs...), poisonID)
	}
	deadline := time.Now().Add(cfg.SettleTimeout)
	for {
		mismatch := diverged(pub, []*core.App{sub}, settleObjs)
		if mismatch == "" {
			res.Converged = true
			res.RecoveryTime = time.Since(recoveryStart)
			break
		}
		if time.Now().After(deadline) {
			res.Mismatch = mismatch
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res.RecoveryTime > 0 {
		if n := sub.Stats().Processed - processedOverload; n > 0 {
			res.GoodputRecovery = float64(n) / res.RecoveryTime.Seconds()
		}
	}

	// Queue bounds: the soft layer must have kept the run off the
	// decommission cliff entirely.
	res.MaxDepth = q.MaxDepthSeen()
	if q.Dead() || sub.Queue() != q {
		res.Decommissions = 1
	}

	// Graceful drain: quiesce both apps; nothing may be left unacked.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res.DrainOK = true
	if err := pub.Drain(ctx); err != nil {
		res.DrainOK = false
	}
	if err := sub.Drain(ctx); err != nil {
		res.DrainOK = false
	}
	res.DrainUnacked = sub.Queue().Unacked()
	quiesce(deadline, f.Broker.LogSegments)
	res.LogCheck = logs.verdict(f.Broker.LogSegments())

	ps := pub.Stats()
	ss := sub.Stats()
	res.Deferred = ps.Deferred
	res.Shed = ps.Shed
	res.Throttled = ps.Throttled
	res.Republished = ps.Republished
	res.Stalled = ss.Stalled
	res.DeadLettered = ss.DeadLettered
	res.Regressions = probe.count()
	res.PendingAcks = pub.PendingAcks() + sub.PendingAcks()
	res.Net = net.Stats()
	return res, res.logErr(res.Converged)
}
