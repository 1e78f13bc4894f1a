package chaos

import (
	"os"
	"testing"

	"synapse/internal/core"
)

// TestChaosConvergesAcrossSeeds is the headline robustness property:
// for every seed, a fault script mixing bidirectional partitions,
// broker crash/restarts, version-store deaths (healed by generation
// bumps) and copies the broker accepted and then lost ends with the
// document and SQL subscribers exactly matching the publisher — zero
// lost updates, zero value regressions — without a single Bootstrap
// call (the harness never invokes one, and unbounded queues mean
// nothing decommissions into one).
func TestChaosConvergesAcrossSeeds(t *testing.T) {
	seeds := 25
	cfg := Config{}
	if testing.Short() {
		seeds = 6
		cfg.Writes = 20
		cfg.Steps = 5
	}

	for i := 0; i < seeds; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Seed:   int64(i + 1),
				Writes: cfg.Writes,
				Steps:  cfg.Steps,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", res.Seed, err)
			}
			if !res.Converged {
				t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
			}
			if res.Regressions != 0 {
				t.Fatalf("seed %d applied %d stale updates over newer state", res.Seed, res.Regressions)
			}
		})
	}
}

// TestChaosConvergesUnderDVV replays a batch of the same fault scripts
// with every app on the dotted-version-vector tracker: exact per-name
// causality must uphold the identical zero-lost / zero-regression /
// zero-parked-acks invariants the hashed tracker does.
func TestChaosConvergesUnderDVV(t *testing.T) {
	seeds := 12
	cfg := Config{Tracker: core.TrackerDVV}
	if testing.Short() {
		seeds = 4
		cfg.Writes = 20
		cfg.Steps = 5
	}

	for i := 0; i < seeds; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Seed:    int64(i + 1),
				Writes:  cfg.Writes,
				Steps:   cfg.Steps,
				Tracker: cfg.Tracker,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", res.Seed, err)
			}
			if res.Tracker != core.TrackerDVV {
				t.Fatalf("seed %d ran under tracker %q", res.Seed, res.Tracker)
			}
			if !res.Converged {
				t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
			}
			if res.Regressions != 0 {
				t.Fatalf("seed %d applied %d stale updates over newer state", res.Seed, res.Regressions)
			}
		})
	}
}

// TestChaosFaultMix runs a serial batch of seeds and asserts the fault
// script actually exercised every fault class at least once across the
// batch — a chaos harness that never crashes the broker proves
// nothing.
func TestChaosFaultMix(t *testing.T) {
	seeds := 8
	cfg := Config{Writes: 15, Steps: 6}
	if testing.Short() {
		seeds = 5
	}
	var bounces, parts, kills, bumps int
	var drops, dups int64
	for i := 0; i < seeds; i++ {
		res, err := Run(Config{Seed: int64(100 + i), Writes: cfg.Writes, Steps: cfg.Steps})
		if err != nil {
			t.Fatalf("seed %d: %v", res.Seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
		}
		bounces += res.BrokerBounces
		parts += res.Partitions
		kills += res.VStoreKills
		bumps += res.GenBumps
		drops += res.Net.Drops
		dups += res.Net.Duplicates
	}
	if bounces == 0 || parts == 0 || kills == 0 {
		t.Errorf("fault mix incomplete: bounces=%d partitions=%d vstore kills=%d", bounces, parts, kills)
	}
	if drops == 0 || dups == 0 {
		t.Errorf("network never misbehaved: drops=%d dups=%d", drops, dups)
	}
	// A killed store is only healed by the next write's generation
	// bump, so across the batch kills must produce bumps.
	if kills > 0 && bumps == 0 {
		t.Errorf("%d vstore kills but no generation bumps", kills)
	}
}

// TestChaosExercisesBrokerLoss keeps the §6.5 claim from being vacuous:
// across a handful of seeds the broker must accept and then lose at
// least one subscriber copy, and every such run must still converge
// with no Bootstrap call.
func TestChaosExercisesBrokerLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the full-seed run")
	}
	lost := 0
	for seed := int64(1); seed <= 6; seed++ {
		res, err := Run(Config{Seed: seed, Writes: 20, Steps: 6})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
		}
		if res.Regressions != 0 {
			t.Fatalf("seed %d applied %d stale updates over newer state", res.Seed, res.Regressions)
		}
		lost += res.BrokerLost
	}
	if lost == 0 {
		t.Fatal("no seed lost a copy the broker had accepted")
	}
}

// TestChaosSoak is the long-haul run behind `make chaos`: many seeds,
// longer scripts, heavier write load. Gated behind CHAOS_SOAK so the
// regular suite stays fast.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") == "" {
		t.Skip("set CHAOS_SOAK=1 to run the chaos soak")
	}
	for i := 0; i < 100; i++ {
		res, err := Run(Config{Seed: int64(1000 + i), Writes: 120, Steps: 20, Objects: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", res.Seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
		}
		if res.Regressions != 0 {
			t.Fatalf("seed %d applied %d stale updates", res.Seed, res.Regressions)
		}
		t.Logf("seed %d: recovery=%v bounces=%d lost=%d partitions=%d bumps=%d deferred=%d redelivered=%d",
			res.Seed, res.RecoveryTime, res.BrokerBounces, res.BrokerLost, res.Partitions,
			res.GenBumps, res.Deferred, res.Redelivered)
	}
}
