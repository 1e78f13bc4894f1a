package chaos

import "testing"

// TestClusterChaosConvergesAcrossSeeds extends the headline robustness
// property to the sharded broker cluster: fault scripts now include
// shard-primary crashes (healed only by coord-elected failover),
// replication-link partitions, and coordinator isolations that force
// the fencing path — and every seed must still end with exact
// cross-engine convergence, zero regressions, and no parked acks.
func TestClusterChaosConvergesAcrossSeeds(t *testing.T) {
	seeds := 12
	cfg := Config{}
	if testing.Short() {
		seeds = 4
		cfg.Writes = 20
		cfg.Steps = 5
	}

	for i := 0; i < seeds; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			res, err := ClusterRun(Config{
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
				t.Fatalf("seed %d applied %d stale updates over newer state:\n%v",
					res.Seed, res.Regressions, res.RegressionDetail)
			}
			if res.PendingAcks != 0 {
				t.Fatalf("seed %d left %d acks parked", res.Seed, res.PendingAcks)
			}
		})
	}
}

// TestClusterChaosExercisesFailover sanity-checks that the script is
// actually driving the cluster machinery: across a handful of seeds at
// least one run must bounce a shard and at least one promotion must
// have happened (otherwise the "survives failover" claim is vacuous).
func TestClusterChaosExercisesFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the full-seed run")
	}
	var bounces, isolations int
	var failovers int64
	for seed := int64(1); seed <= 6; seed++ {
		res, err := ClusterRun(Config{Seed: seed, Writes: 20, Steps: 6})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d did not converge: %s", res.Seed, res.Mismatch)
		}
		bounces += res.ShardBounces
		isolations += res.CoordIsolations
		failovers += res.Failovers
	}
	if bounces == 0 && isolations == 0 {
		t.Fatal("no seed injected a shard bounce or coord isolation")
	}
	if failovers == 0 {
		t.Fatal("no promotion ever happened across the seed batch")
	}
}
