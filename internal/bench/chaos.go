package bench

import (
	"fmt"
	"strings"
	"time"

	"synapse/internal/chaos"
	"synapse/internal/core"
)

// ---------------------------------------------------------------------
// Chaos: seeded fault scripts over a simulated network — partitions,
// broker crash/restarts, version-store deaths — with exact cross-engine
// convergence as the pass condition (§4.4's fault model end to end).
// ---------------------------------------------------------------------

// ChaosConfig parameterizes the chaos experiment: seeds 1..Seeds, each
// running one chaos.Run script per tracker policy.
type ChaosConfig struct {
	Seeds  int
	Writes int // 0 = the script's default length
	Steps  int
}

// chaosConfig mirrors the headline property test: 25 seeds, default
// script length.
func chaosConfig(quick bool) ChaosConfig {
	if quick {
		return ChaosConfig{Seeds: 6, Writes: 20, Steps: 5}
	}
	return ChaosConfig{Seeds: 25}
}

// ChaosDoc is BENCH_chaos.json.
type ChaosDoc struct {
	Experiment    string         `json:"experiment"`
	Description   string         `json:"description"`
	Seeds         int            `json:"seeds"`
	Converged     int            `json:"converged"`
	WorstRecovery string         `json:"worst_recovery"`
	Runs          []chaos.Result `json:"runs"`
}

// RunChaos runs the seeded scripts serially (each run owns its own
// fabric; serial keeps the per-run timings honest) under both tracker
// policies: the same fault scripts must uphold zero-lost/zero-regression
// under hash and dvv.
func RunChaos(cfg ChaosConfig) (ChaosDoc, error) {
	doc := ChaosDoc{
		Experiment:  "chaos",
		Description: "seeded fault scripts (bidirectional partitions, broker crash/restarts, version-store deaths healed by generation bumps) over a simulated lossy network; pass = exact cross-engine convergence with zero lost and zero double-applied updates, no Bootstrap call",
	}
	var worst time.Duration
	for _, tracker := range []string{core.TrackerHash, core.TrackerDVV} {
		for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
			res, err := chaos.Run(chaos.Config{Seed: seed, Writes: cfg.Writes, Steps: cfg.Steps, Tracker: tracker})
			if err != nil {
				return doc, fmt.Errorf("seed %d (%s): %w", seed, tracker, err)
			}
			doc.Runs = append(doc.Runs, res)
			doc.Seeds++
			if res.Converged {
				doc.Converged++
			}
			worst = max(worst, res.RecoveryTime)
		}
	}
	doc.WorstRecovery = worst.Round(time.Microsecond).String()
	return doc, nil
}

// FormatChaos renders the per-seed chaos runs.
func FormatChaos(doc ChaosDoc) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Chaos: seeded fault scripts (partitions, broker bounces, vstore kills)")
	fmt.Fprintln(&b, "(exact cross-engine convergence, zero regressions, no Bootstrap call)")
	fmt.Fprintf(&b, "%5s %-7s %7s %8s %6s %6s %6s %6s %6s %6s %7s %6s %10s %10s\n",
		"seed", "tracker", "bounces", "partns", "kills", "bumps", "drops", "dups", "defer", "repub", "redeliv", "regr", "converged", "recovery")
	for _, r := range doc.Runs {
		fmt.Fprintf(&b, "%5d %-7s %7d %8d %6d %6d %6d %6d %6d %6d %7d %6d %10v %10s\n",
			r.Seed, r.Tracker, r.BrokerBounces, r.Partitions, r.VStoreKills, r.GenBumps,
			r.Net.Drops, r.Net.Duplicates, r.Deferred, r.Republished, r.Redelivered,
			r.Regressions, r.Converged, r.RecoveryTime.Round(time.Millisecond))
	}
	return b.String()
}

// gateChaos: every seeded fault script converged.
func gateChaos(_, fresh ChaosDoc, v *Verdict) {
	if fresh.Converged != fresh.Seeds {
		v.breachf("%d/%d seeds converged", fresh.Converged, fresh.Seeds)
	}
}
