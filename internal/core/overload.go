package core

import "synapse/internal/broker"

// This file is the publisher side of the overload-control layer: the
// admission decision a publish takes when a subscriber queue signals
// backpressure (see broker.Pressure). A pressured publish defers: its
// durable journal entry skips the send, and the journal drain
// republishes it, paced, after pressure clears. Only past that does the
// broker's hard maxLen decommission (§4.4) fire — the cliff becomes the
// last resort, not the first response.

// admit is dispatch's decision: pubSent, or pubDeferred for a committed
// publication that skips its send. A paced replay defers under
// subscriber backpressure; a live publish passes the before-send fault
// site, then defers likewise. Without an entry deferring would lose the
// update, so it sends regardless (growing the queue beats dropping
// data).
func (a *App) admit(p *publication, c *Controller) (pubState, error) {
	if c == nil {
		if p.paced && a.exchangePressure() == broker.PressureHigh {
			return pubDeferred, nil
		}
		return pubSent, nil
	}
	if err := a.faults.Fire(FaultBeforePublish); err != nil {
		return 0, err
	}
	if a.exchangePressure() != broker.PressureHigh || !p.journaling {
		return pubSent, nil
	}
	a.tel.deferred.Add(1)
	return pubDeferred, nil
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
