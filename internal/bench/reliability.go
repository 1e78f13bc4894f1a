package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"synapse/internal/core"
	"synapse/internal/faultinject"
	"synapse/internal/model"
)

// ---------------------------------------------------------------------
// Reliability: durable publish journal, retry, and dead-letter under a
// seeded crash schedule (§4.4's fault model, measured end to end).
// ---------------------------------------------------------------------

// ReliabilityConfig parameterizes the crash/recovery experiment.
type ReliabilityConfig struct {
	Engine string // publisher engine (the subscriber is MongoDB)
	Writes int
}

// reliabilityConfig crashes the publisher at random publish-path fault
// sites over a 200-write schedule.
func reliabilityConfig(quick bool) ReliabilityConfig {
	if quick {
		return ReliabilityConfig{Writes: 40}
	}
	return ReliabilityConfig{Writes: 200}
}

// RunReliabilitySweep runs the schedule once per journaling path:
// MongoDB journals the final payload directly; PostgreSQL stages the
// journal row inside the data transaction (transactional outbox).
func RunReliabilitySweep(cfg ReliabilityConfig) ([]ReliabilityResult, error) {
	var out []ReliabilityResult
	for _, cfg.Engine = range []string{MongoDB, PostgreSQL} {
		out = append(out, RunReliability(cfg))
	}
	return out, nil
}

// ReliabilityResult reports how delivery weathered the schedule.
type ReliabilityResult struct {
	Engine          string
	Writes          int
	Crashes         int
	MidDrainCrashes int
	Republished     int64
	Retries         int64
	Redelivered     int64
	DeadLettered    int64
	JournalDepth    int
	Converged       bool
	ConvergeTime    time.Duration
}

// RunReliability drives the reliable-delivery pipeline the same way the
// property test does, but at bench scale and with its counters surfaced:
// a seeded schedule of publisher writes is killed at random fault sites
// (crash-before-publish, crash-before-journal-ack), each crash followed
// by a restart that drains the durable journal (itself sometimes crashed
// mid-drain and re-run). One poison message exhausts the subscriber's
// delivery attempts and is dead-lettered, then replayed after the fault
// clears. The subscriber must converge to the publisher's exact state
// with no Bootstrap call — journal replay, retry, and dead-letter replay
// carry the whole recovery.
func RunReliability(cfg ReliabilityConfig) ReliabilityResult {
	rng := rand.New(rand.NewSource(1))
	// The persistent fault: applying "poison" fails until cleared, so it
	// burns through MaxDeliveryAttempts and lands on the dead-letter list.
	var faulty atomic.Bool
	faulty.Store(true)
	p := pair(pairSpec{
		PubEngine: cfg.Engine,
		Pub:       core.Config{Mode: core.Causal},
		Sub:       core.Config{MaxDeliveryAttempts: 5, RetryBackoffBase: 10 * time.Microsecond},
		Models:    itemModel("v", model.Int),
		OnSub: func(d *model.Descriptor) {
			d.Callbacks.On(model.BeforeCreate, func(ctx *model.CallbackCtx) error {
				if faulty.Load() && ctx.Record.ID == "poison" {
					return errors.New("downstream dependency offline")
				}
				return nil
			})
		},
	})
	pub, sub := p.pub, p.sub

	recoverCrash := func(fn func()) (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if !faultinject.IsCrash(r) {
					panic(r)
				}
				crashed = true
			}
		}()
		fn()
		return false
	}

	const objects = 8
	created := make(map[string]bool)
	res := ReliabilityResult{Engine: cfg.Engine, Writes: cfg.Writes}
	write := func(i int, id string) {
		switch rng.Intn(6) {
		case 0:
			pub.Faults().Arm(core.FaultBeforePublish, faultinject.Crash())
		case 1:
			pub.Faults().Arm(core.FaultBeforeJournalAck, faultinject.Crash())
		}
		crashed := recoverCrash(func() {
			ctl := pub.NewController(nil)
			rec := model.NewRecord("Item", id)
			rec.Set("v", i)
			var err error
			if created[id] {
				_, err = ctl.Update(rec)
			} else {
				_, err = ctl.Create(rec)
			}
			if err != nil {
				panic(err)
			}
		})
		created[id] = true // committed even when the send crashed
		if !crashed {
			pub.Faults().Reset()
			return
		}
		res.Crashes++
		// Restart: drain the journal, sometimes dying mid-drain first.
		if rng.Intn(2) == 0 {
			pub.Faults().Arm(core.FaultJournalDrain, faultinject.Crash())
			if recoverCrash(func() { _, _ = pub.RecoverJournal() }) {
				res.MidDrainCrashes++
			}
		}
		if _, err := pub.RecoverJournal(); err != nil {
			panic(err)
		}
	}
	for i := 0; i < cfg.Writes; i++ {
		write(i, fmt.Sprintf("it%d", i%objects))
	}
	write(cfg.Writes, "poison")

	// A few transient apply errors exercise the retry/backoff path.
	for n := 0; n < 3; n++ {
		sub.Faults().ArmN(core.FaultApply, rng.Intn(cfg.Writes), 1, faultinject.Fail(errors.New("transient apply error")))
	}
	start := time.Now()
	sub.StartWorkers(4)
	defer sub.StopWorkers()

	deadline := start.Add(time.Minute)
	for sub.Stats().DeadLetters == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// Operator clears the fault and replays the set-aside message.
	faulty.Store(false)
	sub.ReplayDeadLetters()
	ids := make([]string, 0, len(created))
	for id := range created {
		ids = append(ids, id)
	}
	if settle(deadline, pub, []*core.App{sub}, "Item", ids) == nil {
		res.Converged = true
		res.ConvergeTime = time.Since(start)
	}

	pst, sst := pub.Stats(), sub.Stats()
	res.Republished = pst.Republished
	res.Retries = sst.Retries
	res.Redelivered = sst.Redelivered
	res.DeadLettered = sst.DeadLettered
	res.JournalDepth = pst.JournalDepth
	return res
}

// FormatReliability renders the per-engine reliability runs.
func FormatReliability(results []ReliabilityResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Reliability: journal replay + retry + dead-letter under a seeded crash schedule")
	fmt.Fprintln(&b, "(convergence without Bootstrap; journal depth must return to 0)")
	fmt.Fprintf(&b, "%-12s %7s %8s %9s %12s %8s %8s %7s %7s %10s %14s\n",
		"engine", "writes", "crashes", "mid-drain", "republished", "retries", "redeliv", "dead", "depth", "converged", "converge time")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %7d %8d %9d %12d %8d %8d %7d %7d %10v %14s\n",
			r.Engine, r.Writes, r.Crashes, r.MidDrainCrashes, r.Republished, r.Retries,
			r.Redelivered, r.DeadLettered, r.JournalDepth, r.Converged, r.ConvergeTime.Round(time.Millisecond))
	}
	return b.String()
}
