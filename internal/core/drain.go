package core

import (
	"context"
	"time"
)

// Drain gracefully quiesces the app for a planned shutdown or restart,
// the cooperative counterpart of just killing the process:
//
//  1. New writes are refused with ErrDraining, so no fresh work enters
//     the pipeline while it empties.
//  2. The publish journal is flushed until empty — deferred sends go
//     out now even under subscriber backpressure, because a planned
//     restart values the durability hand-off over smoothing (the hard
//     queue bound still holds) — and then truncated, so a successor
//     instance finds no rows to replay.
//  3. Workers are stopped and waited for: in-flight deliveries finish
//     their apply and ack; fetched-but-unstarted and parked deliveries
//     are nacked back to the queue front in order. Nothing is left
//     dangling unacked, so the broker has no redelivery storm to replay
//     at the next consumer.
//  4. Parked acknowledgements are flushed so the broker's unacked set
//     for this consumer is empty.
//
// The context deadline bounds the whole sequence; on expiry the app is
// left draining (writes still refused) with whatever progress was made
// — a caller that wants to serve again despite the failure can Resume.
func (a *App) Drain(ctx context.Context) error {
	a.draining.Store(true)
	for a.JournalDepth() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n, err := a.RecoverJournal(); err != nil || n == 0 {
			// Broker endpoint unreachable, or the remaining entries belong
			// to publishes still in flight; retry until the deadline.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	a.cutJournal()
	done := make(chan struct{})
	go func() {
		a.StopWorkers()
		close(done)
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
	}
	// StopWorkers waited out every in-flight apply, and each completing
	// apply either flushed its own group commit or was picked up by an
	// active flusher — the flush queue is empty by construction here.
	// One explicit drain keeps that a local fact rather than a distant
	// invariant.
	a.commits.Flush()
	a.flushPendingAcks()
	return nil
}

// Resume lifts the publish quiescence installed by Drain (a drained app
// being put back into service without a process restart).
func (a *App) Resume() { a.draining.Store(false) }
