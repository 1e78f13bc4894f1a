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

// admitDecision is the outcome of publish admission control.
type admitDecision int

const (
	admitSend admitDecision = iota
	admitDefer
	admitShed
)

// admitPublish decides how this publish degrades (or not) under
// subscriber backpressure. journaled reports whether a durable journal
// entry exists for the message — without one, deferring would lose the
// update, so the publish sends regardless (growing the queue beats
// dropping data the caller did not mark droppable).
func (a *App) admitPublish(c *Controller, journaled bool) admitDecision {
	if a.exchangePressure() != broker.PressureHigh {
		return admitSend
	}
	if a.cfg.ShedLowPriority && c != nil && c.lowPriority {
		return admitShed
	}
	if a.cfg.PublishBlockTimeout > 0 {
		a.tel.throttled.Add(1)
		if a.awaitPressureClear(a.cfg.PublishBlockTimeout) {
			return admitSend
		}
	}
	if journaled {
		return admitDefer
	}
	return admitSend
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
	step := budget / 16
	if step < 50*time.Microsecond {
		step = 50 * time.Microsecond
	}
	if step > 2*time.Millisecond {
		step = 2 * time.Millisecond
	}
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
