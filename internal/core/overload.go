package core

import (
	"time"

	"synapse/internal/broker"
)

// This file is the publisher side of the overload-control layer: the
// admission decision a publish takes when a subscriber queue signals
// backpressure (see broker.Pressure). The degradation ladder, mildest
// first:
//
//	throttle — bounded-block: wait (jittered polls) up to
//	           PublishBlockTimeout for pressure to clear, then send.
//	defer    — journal-and-defer: skip the send; the durable journal
//	           entry republishes after pressure clears, with a jittered
//	           resume on the low watermark (PR 2/3 machinery reused).
//	shed     — drop explicitly low-priority messages outright
//	           (ShedLowPriority + Controller.SetLowPriority).
//
// Only past all of these does the broker's hard maxLen decommission
// (§4.4) fire — the cliff becomes the last resort, not the first
// response.

// admit is dispatch's decision: pubSent, or the end a committed
// publication takes without a send. A replay asks its drain's pacing
// gate. A live publish passes the before-send fault site, then degrades
// (or not) under subscriber backpressure: shed — its entry confirmed, so
// the drain cannot resurrect a message the publisher chose to drop —
// throttle, or defer. Without an entry deferring would lose the update,
// so it sends regardless (growing the queue beats dropping data the
// caller did not mark droppable).
func (a *App) admit(p *publication, c *Controller) (pubState, error) {
	if c == nil {
		if p.pace != nil && !p.pace() {
			return pubDeferred, nil
		}
		return pubSent, nil
	}
	if err := a.faults.Fire(FaultBeforePublish); err != nil {
		return 0, err
	}
	if a.exchangePressure() != broker.PressureHigh {
		return pubSent, nil
	}
	if a.cfg.ShedLowPriority && c.lowPriority {
		a.tel.shed.Add(1)
		return pubConfirmed, nil
	}
	if a.cfg.PublishBlockTimeout > 0 {
		a.tel.throttled.Add(1)
		if a.awaitPressureClear(a.cfg.PublishBlockTimeout) {
			return pubSent, nil
		}
	}
	if p.journaling {
		a.tel.deferred.Add(1)
		return pubDeferred, nil
	}
	return pubSent, nil
}

// exchangePressure probes the backpressure signal for this app's
// exchange across the simulated network. The probe is a plain link
// admission — not routed through the broker caller, so a pressure check
// never burns publish retries or trips the breaker — and while the link
// is faulty (partition, drop, broker down) the last successfully
// observed signal is served from cache: a publisher that loses sight of
// a drowning subscriber keeps degrading rather than resuming the flood,
// and vice versa recovers on the next successful probe.
func (a *App) exchangePressure() broker.Pressure {
	if a.fabric.bus().Down() {
		return broker.Pressure(a.lastPressure.Load())
	}
	if err := a.netCall(EndpointBroker); err != nil {
		return broker.Pressure(a.lastPressure.Load())
	}
	p := a.fabric.bus().ExchangePressure(a.name)
	a.lastPressure.Store(int32(p))
	return p
}

// awaitPressureClear is the bounded-block rung: poll the pressure
// signal with jittered sleeps until it clears or the budget expires.
// Jitter staggers concurrently blocked publishers so the low watermark
// does not release them as one synchronized stampede.
func (a *App) awaitPressureClear(budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	step := min(max(budget/16, 50*time.Microsecond), 2*time.Millisecond)
	for {
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(a.jitter(step))
		if a.exchangePressure() != broker.PressureHigh {
			return true
		}
	}
}

// jitter draws a duration in [d/2, 3d/2) from the app's seeded
// overload RNG (deterministic per app name).
func (a *App) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	a.rngMu.Lock()
	defer a.rngMu.Unlock()
	return d/2 + time.Duration(a.rng.Int63n(int64(d)))
}
