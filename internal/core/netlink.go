package core

import (
	"errors"
	"hash/fnv"
	"time"

	"synapse/internal/broker"
	"synapse/internal/netsim"
)

// This file is the client side of the simulated-network fabric: every
// cross-service call an App makes — broker publish/consume/ack, version
// store round trips, coordinator reads and bumps — is routed through
// the Fabric's netsim.Network (when one is installed) under a
// per-endpoint resilient caller: deadline-bounded attempts, a jittered
// backoff before the retry, and a circuit breaker that fast-fails while the
// endpoint is known bad. Failure policy per path:
//
//   - Publish: a send that fails after retries degrades to
//     journal-and-defer — the journaled entry stays durable and the
//     periodic journal drain republishes it when the endpoint heals —
//     rather than blocking or failing the app's write.
//   - Consume: workers gate each queue fetch on link admission, ride
//     out partitions with short pauses, and reattach to a fresh queue
//     handle after a broker restart (ErrBrokerDown).
//   - Ack/Nack: a transport-failed ack is parked and retried by the
//     worker loop; if the broker restarted meanwhile the tag is gone
//     and the broker redelivers the message instead — at-least-once,
//     absorbed by the subscriber's per-object version guard.
//   - VStore: the transport hook is consulted before any state is
//     touched, so a dropped round trip is safe to retry.
//   - Coord: the coordinator is the reliability anchor (Chubby/
//     ZooKeeper, §4.4); clients retry its admission until it answers.

// Endpoint names on the simulated network fabric. Apps call from their
// own name; services answer on these.
const (
	EndpointBroker = "broker"
	EndpointCoord  = "coord"
)

// EndpointVStore names an app's version-store endpoint on the fabric
// (each app has its own store, hence its own endpoint).
func EndpointVStore(app string) string { return "vstore/" + app }

// seedFor derives a deterministic per-(app, endpoint) jitter seed.
func seedFor(name, role string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{'/'})
	h.Write([]byte(role))
	return int64(h.Sum64())
}

// initCallers builds the app's per-endpoint resilient callers and
// installs the version-store transport hook (NewApp).
func (a *App) initCallers() {
	a.brokerCall = netsim.NewCaller(seedFor(a.name, "broker"))
	a.vstoreCall = netsim.NewCaller(seedFor(a.name, "vstore"))
	a.coordCall = netsim.NewCaller(seedFor(a.name, "coord"))
	a.store.SetTransport(func() error {
		return a.vstoreCall.Do(func() error {
			return a.netCall(EndpointVStore(a.name))
		})
	})
}

// netCall admits one RPC from this app to the endpoint through the
// fabric's simulated network; a perfect call when none is installed.
func (a *App) netCall(to string) error {
	if net := a.fabric.Net; net != nil {
		return net.Call(a.name, to)
	}
	return nil
}

// netDo routes fn as one RPC from this app to the endpoint.
func (a *App) netDo(to string, fn func() error) error {
	if net := a.fabric.Net; net != nil {
		return net.Do(a.name, to, fn)
	}
	return fn()
}

// isTransportErr reports whether err means "the endpoint was
// unreachable" (retry/park/defer) as opposed to a logical refusal the
// endpoint itself answered with (bad tag, decommissioned, closed).
func isTransportErr(err error) bool {
	return errors.Is(err, netsim.ErrPartitioned) ||
		errors.Is(err, netsim.ErrDropped) ||
		errors.Is(err, netsim.ErrBreakerOpen) ||
		errors.Is(err, broker.ErrBrokerDown)
}

// brokerOp runs one broker operation through the simulated network
// under the broker caller's retry/breaker policy. Logical errors from
// the broker (ErrBadTag and friends) pass through without burning
// retries or tripping the breaker — the endpoint answered; only
// transport failures count against it.
func (a *App) brokerOp(op func() error) error {
	var opErr error
	err := a.brokerCall.Do(func() error {
		opErr = nil
		return a.netDo(EndpointBroker, func() error {
			opErr = op()
			if isTransportErr(opErr) {
				return opErr
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	return opErr
}

// sendMessage publishes one payload on this app's exchange through the
// resilient broker caller.
func (a *App) sendMessage(payload []byte) error {
	return a.brokerOp(func() error {
		return a.fabric.bus().Publish(a.name, payload)
	})
}

// consumeGate admits one queue fetch: a partitioned or dropping link
// stalls the consumer briefly (the worker pauses and retries) instead
// of letting it long-poll through a dead network.
func (a *App) consumeGate() error {
	if a.fabric.Net == nil {
		return nil
	}
	return a.netCall(EndpointBroker)
}

// withCoord runs fn once the coordinator admits the call, retrying
// forever: generation state must come from the real coordinator or not
// at all, and the coordinator is the one component assumed reliable.
func (a *App) withCoord(fn func()) {
	for {
		err := a.coordCall.Do(func() error { return a.netCall(EndpointCoord) })
		if err == nil {
			fn()
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// coordGet reads a coordinator counter through the simulated network.
func (a *App) coordGet(name string) uint64 {
	var v uint64
	a.withCoord(func() { v = a.fabric.Coord.Get(name) })
	return v
}

// coordIncrement bumps a coordinator counter through the simulated
// network.
func (a *App) coordIncrement(name string) uint64 {
	var v uint64
	a.withCoord(func() { v = a.fabric.Coord.Increment(name) })
	return v
}

// ackKind distinguishes the parked broker acknowledgements.
type ackKind uint8

const (
	ackAck ackKind = iota
	ackNack
	ackNackError
)

type pendingAck struct {
	q    *broker.Queue
	tag  uint64
	kind ackKind
}

// ackMultiDelivery acknowledges a coalesced batch of deliveries in one
// broker call (the group-commit flusher's ack path). A transport
// failure parks every tag for retry rather than losing it, each
// individually — the per-tag retry path already knows how to drop tags
// that died with a broker restart. Logical errors (ErrBadTag for a tag
// that raced a crash-redelivery, or a decommissioned queue) are
// absorbed: the broker either already redelivered the message or set
// the whole queue aside, and in both cases the version guard / recovery
// path owns what happens next.
func (a *App) ackMultiDelivery(q *broker.Queue, tags []uint64) {
	if len(tags) == 0 {
		return
	}
	if err := a.brokerOp(func() error { return q.AckMulti(tags) }); err != nil && isTransportErr(err) {
		for _, tag := range tags {
			a.parkAck(pendingAck{q: q, tag: tag, kind: ackAck})
		}
	}
}

// nack hands one delivery back through the network: ackNack to the
// queue front (fail-to-front tail, shutdown), ackNackError as a failed
// processing attempt, reporting whether the message was dead-lettered.
// A transport failure parks the nack — the broker still holds the
// message unacked, so nothing is lost either way.
func (a *App) nack(q *broker.Queue, tag uint64, kind ackKind) (deadLettered bool) {
	p := pendingAck{q: q, tag: tag, kind: kind}
	deadLettered, err := a.sendAck(p)
	if isTransportErr(err) {
		a.parkAck(p)
	}
	return deadLettered
}

// sendAck issues one acknowledgement by its kind, a first try or a
// parked one's retry, and reports whether a failure-counting nack
// dead-lettered the message.
func (a *App) sendAck(p pendingAck) (deadLettered bool, err error) {
	err = a.brokerOp(func() (e error) {
		switch p.kind {
		case ackAck:
			e = p.q.Ack(p.tag)
		case ackNack:
			e = p.q.Nack(p.tag, true)
		case ackNackError:
			deadLettered, e = p.q.NackError(p.tag)
		}
		return e
	})
	return deadLettered, err
}

func (a *App) parkAck(p pendingAck) {
	a.ackMu.Lock()
	a.pendingAcks = append(a.pendingAcks, p)
	a.ackMu.Unlock()
}

// flushPendingAcks retries parked acknowledgements. Transport failure
// re-parks the remainder for the next pass; logical failures (the tag
// died with a broker restart) drop the op — the restarted broker
// redelivers the message, and the version guard absorbs the duplicate.
func (a *App) flushPendingAcks() {
	a.ackMu.Lock()
	pend := a.pendingAcks
	a.pendingAcks = nil
	a.ackMu.Unlock()
	for i, p := range pend {
		if _, err := a.sendAck(p); isTransportErr(err) {
			if errors.Is(err, broker.ErrBrokerDown) && !a.fabric.bus().Down() {
				// The broker is back but this queue handle died with the
				// crash — its tags are gone for good. Drop the ack: the
				// restarted broker redelivers the message and the version
				// guard absorbs the duplicate.
				continue
			}
			a.ackMu.Lock()
			a.pendingAcks = append(a.pendingAcks, pend[i:]...)
			a.ackMu.Unlock()
			return
		}
	}
}

// PendingAcks reports acknowledgements parked on transport failure
// (tests, chaos convergence checks).
func (a *App) PendingAcks() int {
	a.ackMu.Lock()
	defer a.ackMu.Unlock()
	return len(a.pendingAcks)
}
