package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/netsim"
)

// RunOverload drives the overload-control layer end to end: a publisher
// sustains roughly 2x the throughput a deliberately slow subscriber can
// apply, so the subscriber queue climbs into its high watermark and the
// publisher defers its journaled sends instead of flooding the queue
// toward the maxLen decommission cliff; the paced journal drain
// republishes them once pressure clears.
// Mid-run a poison write hangs its subscriber callback forever; the
// stall watchdog must quarantine it to the dead-letter set-aside while
// sibling messages keep draining. After the writer stops, the operator
// "fixes" the callback, replays the dead letter, and the run settles
// (core.Settle), then performs a graceful Drain.
//
// The invariants, per OverloadConfig.Seed:
//
//   - Bounded queue: depth never reaches HardBound and the queue is
//     never decommissioned — soft backpressure absorbs the overload the
//     hard bound would otherwise answer with the §4.4 cliff.
//   - Zero lost updates: after release + replay + one settle write per
//     object, core.Converged holds, and every deferred publish was
//     republished.
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
}

const (
	// overloadObjects is how many distinct objects the writes touch.
	overloadObjects = 8
	// overloadApplyDelay is the subscriber's per-apply processing time:
	// 8ms across the pool's two workers caps drain at ~250 msg/s while
	// the writer sustains ~500 msg/s or more (its ~1ms publish cost
	// through the simulated network, plus a 0.5-1.5ms jittered pause
	// only once the queue is past its high watermark) — a sustained
	// overload of at least ~2x.
	overloadApplyDelay = 8 * time.Millisecond
	// overloadHighWatermark is the queue depth that triggers publisher
	// degradation (the low watermark is half).
	overloadHighWatermark = 24
	// overloadHardBound is the queue's maxLen decommission bound, which
	// the run must never reach.
	overloadHardBound = 512
)

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Writes <= 0 {
		c.Writes = 240
	}
	return c
}

// OverloadResult is what one overload run observed.
type OverloadResult struct {
	Seed   int64
	Writes int

	// Publisher side.
	Deferred    int64 // journal-and-defer publishes under pressure
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

	Verdict
	Regressions int // value regressions seen by subscriber callbacks

	// Graceful drain.
	DrainOK      bool
	DrainUnacked int // unacked deliveries left after Drain (must be 0)
	PendingAcks  int // parked acks left at the end (must be 0)

	LogCheck

	Net netsim.Stats
}

// poisonID is the object whose subscriber callback hangs. Its bit of a
// worker's dispatch mask must differ from every uN object's, so no
// sibling waits in the hung worker's dispatch and contaminates the
// sibling-drain measurement (see applyMask in internal/core; verified
// for up to u15).
const poisonID = "poison"

// RunOverload executes one seeded overload script and reports what it
// observed.
func RunOverload(cfg OverloadConfig) (OverloadResult, error) {
	cfg = cfg.withDefaults()
	res := OverloadResult{
		Seed:          cfg.Seed,
		Writes:        cfg.Writes,
		HighWatermark: overloadHighWatermark,
		HardBound:     overloadHardBound,
	}
	t := newTurbulent(cfg.Seed, core.TrackerHash)
	brk := t.f.Broker
	w, err := t.publisher("overload-pub")
	if err != nil {
		return res, err
	}
	pub := w.pub
	sub, err := t.app("overload-sql", postgres(), func(c *core.Config) {
		c.DepTimeout = 20 * time.Millisecond
		// The scenario's premise is a consumer whose capacity sits
		// ~2x below the offered rate (2 workers x 8ms applies =
		// ~250 msg/s). Pipeline depth is a capacity knob — at the
		// default 4 the overlapped applies drain faster than the
		// writer and the publisher never defers — so this
		// harness pins a window of one; deeper windows get their
		// chaos coverage from the crash/partition runs.
		c.PipelineDepth = 1
		c.QueueMaxLen = overloadHardBound
		c.QueueHighWatermark = overloadHighWatermark
		c.ApplyTimeout = 25 * time.Millisecond
		c.MaxDeliveryAttempts = 3
	})
	if err != nil {
		return res, err
	}

	release := make(chan struct{})
	probe := &subProbe{name: sub.Name()}
	err = subscribe(sub, pub, func(ctx *model.CallbackCtx) error {
		if ctx.Record.ID == poisonID {
			<-release // hung until the "operator" fixes the callback
			return nil
		}
		err := probe.watch(ctx)
		time.Sleep(overloadApplyDelay)
		return err
	})
	if err != nil {
		return res, err
	}
	q := sub.Queue()
	pub.StartWorkers(1)
	defer pub.StopWorkers()
	sub.StartWorkers(0)
	defer sub.StopWorkers()

	objs := make([]string, overloadObjects)
	for i := range objs {
		objs[i] = fmt.Sprintf("u%d", i)
	}

	// Overload phase: the writer publishes at ~2x the subscriber's
	// drain rate; a third of the way in, the poison write hangs one
	// delivery. A watcher goroutine timestamps the quarantine.
	wrng := rand.New(rand.NewSource(cfg.Seed + 1))
	poisonAt := cfg.Writes / 3
	var poisonTime time.Time
	var processedAtPoison int64
	quarantined := make(chan time.Duration, 1)
	for i := 0; i < cfg.Writes; i++ {
		if i == poisonAt {
			poisonTime = time.Now()
			processedAtPoison = sub.Stats().Processed
			if err := w.put(poisonID); err != nil {
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
		if err := w.put(objs[wrng.Intn(len(objs))]); err != nil {
			return res, err
		}
		// Paced by depth, not by the host: below the high watermark the
		// writer does not pause, so a slow host cannot hold the offered
		// rate under the drain rate and keep the run out of overload.
		pause := time.Duration(500+wrng.Intn(1000)) * time.Microsecond
		if q.Depth() >= overloadHighWatermark {
			time.Sleep(pause)
		}
	}

	// Quarantine must have happened within the escalation budget (three
	// attempts of escalating watchdog budgets plus backoffs).
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

	// Settle: one more write per object, then the run must converge
	// exactly.
	for _, id := range objs {
		if err := w.put(id); err != nil {
			return res, err
		}
	}
	res.judge(time.Now(), pub, sub)

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
	t.quiesce(time.Now().Add(settleTimeout))
	res.LogCheck = t.logs.verdict(brk.LogSegments())

	ps := pub.Stats()
	ss := sub.Stats()
	res.Deferred = ps.Deferred
	res.Republished = ps.Republished
	res.Stalled = ss.Stalled
	res.DeadLettered = ss.DeadLettered
	res.Regressions = len(probe.regressions())
	res.PendingAcks = pub.PendingAcks() + sub.PendingAcks()
	res.Net = t.net.Stats()
	return res, res.logErr(res.Converged)
}
