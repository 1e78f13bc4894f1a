package chaos

import (
	"testing"
	"time"
)

// TestOverloadBoundedAndConverges is the headline overload property:
// under a sustained ~2x overload the soft backpressure layer keeps the
// queue far from its decommission bound, defers the publisher's sends
// and republishes every one, quarantines a deliberately hung delivery
// while siblings keep draining, and still converges exactly — then
// drains cleanly.
func TestOverloadBoundedAndConverges(t *testing.T) {
	seeds := 4
	writes := 0 // defaults
	if testing.Short() {
		seeds = 2
		writes = 90
	}
	for i := 0; i < seeds; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			res, err := RunOverload(OverloadConfig{Seed: int64(i + 1), Writes: writes})
			if err != nil {
				t.Fatalf("seed %d: %v", res.Seed, err)
			}
			if !res.Converged {
				t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
			}
			// Bounded queue: soft control kept the run off the cliff.
			if res.Decommissions != 0 {
				t.Fatalf("seed %d decommissioned the queue despite backpressure", res.Seed)
			}
			if res.MaxDepth >= res.HardBound {
				t.Fatalf("seed %d: depth %d reached the hard bound %d", res.Seed, res.MaxDepth, res.HardBound)
			}
			// Defer was actually exercised, not bypassed, and every
			// deferred entry went out again.
			if res.Deferred == 0 {
				t.Errorf("seed %d: overload never deferred a publish", res.Seed)
			}
			if res.Republished == 0 {
				t.Errorf("seed %d: deferred entries never republished", res.Seed)
			}
			if res.Republished != res.Deferred {
				t.Errorf("seed %d: Republished = %d, Deferred = %d", res.Seed, res.Republished, res.Deferred)
			}
			// Slow-consumer isolation: quarantined within the escalation
			// budget (3 attempts x escalating watchdog budgets + backoffs
			// is ~250ms; allow generous race-detector slack) while
			// siblings kept draining.
			if res.DeadLettered < 1 {
				t.Fatalf("seed %d: hung delivery never quarantined", res.Seed)
			}
			if res.QuarantineTime <= 0 || res.QuarantineTime > 3*time.Second {
				t.Errorf("seed %d: quarantine took %v", res.Seed, res.QuarantineTime)
			}
			if res.Stalled < 2 {
				t.Errorf("seed %d: Stalled = %d, want >= 2 (one per abandoned attempt)", res.Seed, res.Stalled)
			}
			if res.DrainedDuringStall <= 0 {
				t.Errorf("seed %d: siblings made no progress while the poison hung", res.Seed)
			}
			// Zero double-applies, zero parked acks, clean drain.
			if res.Regressions != 0 {
				t.Fatalf("seed %d applied %d stale updates over newer state", res.Seed, res.Regressions)
			}
			if res.PendingAcks != 0 {
				t.Fatalf("seed %d left %d acks parked", res.Seed, res.PendingAcks)
			}
			if !res.DrainOK || res.DrainUnacked != 0 {
				t.Fatalf("seed %d: drain left %d unacked (ok=%v)", res.Seed, res.DrainUnacked, res.DrainOK)
			}
		})
	}
}
