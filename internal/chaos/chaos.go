// Package chaos is the seeded fault scheduler of the robustness
// harness: it assembles a small heterogeneous ecosystem (one document
// publisher, a document subscriber, and a SQL subscriber) on a
// simulated network (internal/netsim), drives randomized fault scripts
// against it — bidirectional partitions, broker crash/restarts,
// version-store deaths healed by generation bumps (§4.4), and a broker
// that accepts a subscriber's copies and then loses them (§6.5) — while
// a writer keeps publishing, and then asks core.Settle for the verdict
// once the faults heal.
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
//     object, core.Converged holds with no Bootstrap call anywhere:
//     recovery is pure message flow (journal redrains, broker restart,
//     redelivery, generation flushes, dependency timeouts past a lost
//     message, and a lost copy superseded by a later full-state one).
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
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/netsim"
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
	// Tracker selects the dependency-tracking policy for every app in
	// the ecosystem: core.TrackerHash (the default) or core.TrackerDVV.
	// The invariants are policy-independent; running the same seeds
	// under both trackers is the DVV zero-lost/zero-regression check.
	Tracker string
}

// stepHold is the nominal duration each injected fault is held before
// healing; the scripts jitter around it.
const stepHold = 12 * time.Millisecond

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
	if c.Tracker == "" {
		c.Tracker = core.TrackerHash
	}
	return c
}

// hold jitters a fault's held duration around stepHold: [0.5x, 1.5x].
func hold(rng *rand.Rand) time.Duration {
	return stepHold/2 + time.Duration(rng.Int63n(int64(stepHold)))
}

// Result is what one chaos run observed.
type Result struct {
	Seed    int64
	Writes  int
	Tracker string // dependency-tracking policy the run used

	// Fault script composition.
	BrokerBounces int // broker Crash/Restart cycles
	BrokerLost    int // subscriber copies the broker accepted and then dropped
	Partitions    int // bidirectional partitions injected (incl. combos)
	VStoreKills   int // publisher version-store deaths
	GenBumps      int // generation bumps the writer healed with (§4.4)

	Verdict
	Regressions      int      // value regressions observed by subscriber callbacks
	RegressionDetail []string // one line per regression (debugging)

	// Traffic and healing volume.
	Net         netsim.Stats
	Deferred    int64 // publisher sends degraded to journal-and-defer
	Republished int64 // journal entries re-sent by the journal drain
	Redelivered int64 // subscriber deliveries redelivered (lost acks, restarts)

	LogCheck
}

// Verdict is how a run ended, as core.Settle judged it.
type Verdict struct {
	Converged    bool
	RecoveryTime time.Duration // last heal -> converged
	Mismatch     string        // core.Settle's error at the deadline
}

// judge gives subs settleTimeout to converge on pub and records the
// verdict; since is when the run's last fault healed.
func (v *Verdict) judge(since time.Time, pub *core.App, subs ...*core.App) {
	ctx, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	if err := core.Settle(ctx, pub, subs...); err != nil {
		v.Mismatch = err.Error()
		return
	}
	v.Converged, v.RecoveryTime = true, time.Since(since)
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

// logWatch observes the broker's truncations.
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

// verdict is the LogCheck of a run whose broker retains the given
// number of segments.
func (w *logWatch) verdict(segments int) LogCheck {
	w.mu.Lock()
	defer w.mu.Unlock()
	return LogCheck{LogViolation: w.violation, LogSegments: segments}
}

// quiesce gives the broker until the deadline to truncate its log down
// to one segment: the truncation that follows a run's last acks can
// land after the verdict saw them.
func (t *turbulent) quiesce(deadline time.Time) {
	for t.f.Broker.LogSegments() > 1 && time.Now().Before(deadline) {
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

var chaosAttrs = []string{"name", "likes"}

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
	name   string
	mu     sync.Mutex
	last   map[string]int64
	detail []string // one line per regression
}

// watch is the subscriber callback feeding the probe.
func (p *subProbe) watch(ctx *model.CallbackCtx) error {
	id, v := ctx.Record.ID, ctx.Record.Int("likes")
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.last == nil {
		p.last = make(map[string]int64)
	}
	if v < p.last[id] {
		p.detail = append(p.detail, fmt.Sprintf("%s: %s went %d -> %d", p.name, id, p.last[id], v))
	} else {
		p.last[id] = v
	}
	return nil
}

// regressions returns the regressions seen so far, one line each.
func (p *subProbe) regressions() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.detail
}

// Run executes one seeded chaos script and reports what it observed.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Seed: cfg.Seed, Writes: cfg.Writes, Tracker: cfg.Tracker}
	t := newTurbulent(cfg.Seed, cfg.Tracker)
	e, err := t.ecosystem(cfg.Objects)
	if err != nil {
		return res, err
	}
	defer e.stop()
	net, brk, pub, subs := t.net, t.f.Broker, e.pub, e.subs

	// Turbulent phase: the writer publishes on a steady cadence while
	// this goroutine injects the faults.
	written := e.steady(cfg.Seed, e.objs, cfg.Writes)
	srng := rand.New(rand.NewSource(cfg.Seed))
	partition := func(app string) {
		net.Partition(app, core.EndpointBroker)
		res.Partitions++
	}
	for step := 0; step < cfg.Steps; step++ {
		switch srng.Intn(6) {
		case 0: // publisher cut off from the broker
			partition(pub.Name())
			time.Sleep(hold(srng))
			net.Heal(pub.Name(), core.EndpointBroker)
		case 1: // one subscriber cut off from the broker
			s := subs[srng.Intn(len(subs))]
			partition(s.Name())
			time.Sleep(hold(srng))
			net.Heal(s.Name(), core.EndpointBroker)
		case 2: // broker crash + restart (log and cursor states survive)
			brk.Crash()
			res.BrokerBounces++
			time.Sleep(hold(srng))
			brk.Restart()
		case 3: // publisher version-store death; the writer heals it
			pub.Store().Kill()
			res.VStoreKills++
			time.Sleep(hold(srng))
		case 4: // combined: broker down AND a subscriber partitioned
			s := subs[srng.Intn(len(subs))]
			brk.Crash()
			res.BrokerBounces++
			partition(s.Name())
			time.Sleep(hold(srng))
			brk.Restart()
			time.Sleep(hold(srng) / 2)
			net.Heal(s.Name(), core.EndpointBroker)
		case 5: // broker loss (§6.5): one subscriber's copies are
			// accepted onto the log and then dropped on their way in
			q := subs[srng.Intn(len(subs))].Name()
			brk.SetLoss(func(queue, _ string, _ []byte) bool {
				if queue != q {
					return false
				}
				res.BrokerLost++ // under the broker lock
				return true
			})
			time.Sleep(hold(srng))
			brk.SetLoss(nil)
		}
		time.Sleep(stepHold / 2)
	}
	if err := written(); err != nil {
		return res, err
	}

	net.HealAll()
	if brk.Down() {
		brk.Restart()
	}
	return res, e.finish(&res)
}
