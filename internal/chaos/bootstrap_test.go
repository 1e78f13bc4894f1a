package chaos

import (
	"os"
	"testing"
)

// TestBootstrapRaceConvergesAcrossSeeds is the headline bootstrap
// robustness property: for every seed, a subscriber joining a
// pre-populated publisher through the chunked live bootstrap — while a
// writer keeps publishing and the fault script crashes the join at its
// cursor-journal and chunk fault sites, partitions it from the
// broker, and bounces the broker — ends exactly converged with the
// publisher, with zero value regressions (no stale chunk row applied
// over a newer live write).
func TestBootstrapRaceConvergesAcrossSeeds(t *testing.T) {
	seeds := 25
	cfg := BootstrapConfig{}
	if testing.Short() {
		seeds = 6
		cfg.Objects = 80
		cfg.Writes = 25
		cfg.Steps = 3
	}

	for i := 0; i < seeds; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			res, err := RunBootstrap(BootstrapConfig{
				Seed:    int64(i + 1),
				Objects: cfg.Objects,
				Writes:  cfg.Writes,
				Steps:   cfg.Steps,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", res.Seed, err)
			}
			if !res.Converged {
				t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
			}
			if res.Regressions != 0 {
				t.Fatalf("seed %d applied %d stale chunk rows over newer live state: %v",
					res.Seed, res.Regressions, res.RegressionDetail)
			}
			if res.Chunks == 0 {
				t.Fatalf("seed %d sealed no chunks — the join never ran chunked", res.Seed)
			}
		})
	}
}

// TestBootstrapRaceFaultMix runs a serial batch of seeds and asserts the
// script actually landed every bootstrap fault class at least once
// across the batch, and that crashed joins really resumed from the
// journaled cursor rather than restarting from scratch.
func TestBootstrapRaceFaultMix(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 5
	}
	var cursorFails, chunkFails, parts, bounces, attempts int
	var resumes int64
	for i := 0; i < seeds; i++ {
		res, err := RunBootstrap(BootstrapConfig{
			Seed:    int64(200 + i),
			Objects: 120,
			Writes:  30,
			Steps:   5,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", res.Seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
		}
		cursorFails += res.CursorFails
		chunkFails += res.ChunkFails
		parts += res.Partitions
		bounces += res.BrokerBounces
		attempts += res.Attempts
		resumes += res.Resumes
	}
	if cursorFails == 0 || chunkFails == 0 || parts == 0 || bounces == 0 {
		t.Errorf("fault mix incomplete: cursor=%d chunk=%d partitions=%d bounces=%d",
			cursorFails, chunkFails, parts, bounces)
	}
	if attempts <= seeds {
		t.Errorf("%d attempts across %d seeds: no join ever needed a retry", attempts, seeds)
	}
	// Any retried join must have come back through the cursor journal at
	// least once across the batch.
	if attempts > seeds && resumes == 0 {
		t.Errorf("%d retries but zero cursor-journal resumes", attempts-seeds)
	}
}

// TestBootstrapRaceSoak is the long-haul bootstrap-race run: many seeds,
// longer fault scripts, bigger populations. Gated behind CHAOS_SOAK so
// the regular suite stays fast.
func TestBootstrapRaceSoak(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") == "" {
		t.Skip("set CHAOS_SOAK=1 to run the bootstrap-race soak")
	}
	for i := 0; i < 50; i++ {
		res, err := RunBootstrap(BootstrapConfig{
			Seed:    int64(2000 + i),
			Objects: 600,
			Writes:  150,
			Steps:   8,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", res.Seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
		}
		if res.Regressions != 0 {
			t.Fatalf("seed %d applied %d stale chunk rows: %v",
				res.Seed, res.Regressions, res.RegressionDetail)
		}
		t.Logf("seed %d: attempts=%d resumes=%d chunks=%d join=%v recovery=%v stall=%v",
			res.Seed, res.Attempts, res.Resumes, res.Chunks,
			res.JoinTime, res.RecoveryTime, res.MaxPublishStall)
	}
}
