package bench

import (
	"fmt"
	"strings"
	"time"

	"synapse/internal/chaos"
	"synapse/internal/core"
	"synapse/internal/model"
)

// ---------------------------------------------------------------------
// Overload: sustained ~2x overload against a slow subscriber, with the
// publisher's degradation ladder (throttle -> defer -> shed), a poison
// callback quarantined by the stall watchdog, exact convergence after
// release + replay, and a graceful drain (§6.5's degradation spectrum
// exercised end to end instead of the §4.4 decommission cliff).
// ---------------------------------------------------------------------

// OverloadConfig parameterizes the overload experiment: seeds 1..Seeds,
// each one chaos.RunOverload script.
type OverloadConfig struct {
	Seeds  int
	Writes int // 0 = the script's default length
}

// overloadConfig mirrors the headline property test scaled up: 8 seeds
// at the default script length.
func overloadConfig(quick bool) OverloadConfig {
	if quick {
		return OverloadConfig{Seeds: 2, Writes: 90}
	}
	return OverloadConfig{Seeds: 8}
}

// OverloadDoc is BENCH_overload.json.
type OverloadDoc struct {
	Experiment      string                 `json:"experiment"`
	Description     string                 `json:"description"`
	Seeds           int                    `json:"seeds"`
	Converged       int                    `json:"converged"`
	Bounded         int                    `json:"bounded"`
	MaxDepthSeen    int                    `json:"max_depth_seen"`
	WorstQuarantine string                 `json:"worst_quarantine"`
	Recovery        OverloadRecovery       `json:"recovery"`
	Runs            []chaos.OverloadResult `json:"runs"`
}

// RunOverload runs the seeded overload scripts serially (each run owns
// its own fabric; serial keeps goodput and quarantine timings honest),
// then the decommission-recovery section.
func RunOverload(cfg OverloadConfig) (OverloadDoc, error) {
	doc := OverloadDoc{
		Experiment:  "overload",
		Description: "sustained ~2x overload against a deliberately slow subscriber; the publisher walks the degradation ladder (bounded-block throttle, journal-and-defer, low-priority shed) under watermark backpressure while a poison callback is quarantined by the stall watchdog; pass = queue depth bounded below the maxLen decommission cliff, exact convergence after release+replay, zero regressions, clean graceful drain; recovery = the cost of coming back over the cliff via the chunked bootstrap (vstore round trips per recovered object)",
	}
	var worst time.Duration
	for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
		res, err := chaos.RunOverload(chaos.OverloadConfig{Seed: seed, Writes: cfg.Writes})
		if err != nil {
			return doc, fmt.Errorf("seed %d: %w", seed, err)
		}
		doc.Runs = append(doc.Runs, res)
		doc.Seeds++
		if res.Converged {
			doc.Converged++
		}
		if res.Decommissions == 0 && res.MaxDepth < res.HardBound {
			doc.Bounded++
		}
		worst = max(worst, res.QuarantineTime)
		doc.MaxDepthSeen = max(doc.MaxDepthSeen, res.MaxDepth)
	}
	doc.WorstQuarantine = worst.Round(time.Microsecond).String()
	var err error
	doc.Recovery, err = runOverloadRecovery()
	return doc, err
}

// OverloadRecovery measures the §4.4 decommission cliff's recovery
// cost: a subscriber whose bounded queue overflowed re-syncs through
// RecoverQueue, which now routes through the chunked live bootstrap.
// RTPerObject is the deterministic cost metric — subscriber
// version-store round-trip windows per recovered object (one bulk
// SetOpsMulti window for the version snapshot plus one batched claim
// window per chunk, instead of the old per-counter and per-row calls).
type OverloadRecovery struct {
	Objects     int     `json:"objects"`
	RTPerObject float64 `json:"rt_per_object"`
	RecoveryMs  float64 `json:"recovery_ms"`
	Chunks      int64   `json:"chunks"`
	Converged   bool    `json:"converged"`
}

// recoveryObjects is the recovered population. The section's round-trip
// metric is a protocol count, so quick and full runs measure the
// identical configuration.
const recoveryObjects = 2000

// runOverloadRecovery overflows a bounded subscriber queue into
// decommission, then measures the recovery's round-trip cost per
// object.
func runOverloadRecovery() (OverloadRecovery, error) {
	r := OverloadRecovery{Objects: recoveryObjects}
	p := pair(pairSpec{
		Pub:       core.Config{Mode: core.Causal},
		SubEngine: RethinkDB,
		Sub:       core.Config{Mode: core.Causal, QueueMaxLen: 64},
		Models:    itemModel("v", model.Int),
	})
	pub, sub := p.pub, p.sub

	// The subscriber is not consuming; the publisher's creates overflow
	// its bounded queue into the decommission cliff.
	id := func(i int) string { return fmt.Sprintf("it-%06d", i) }
	ctl := pub.NewController(nil)
	for i := 0; i < r.Objects; i++ {
		rec := model.NewRecord("Item", id(i))
		rec.Set("v", int64(i))
		if _, err := ctl.Create(rec); err != nil {
			return r, err
		}
	}
	if !sub.Queue().Dead() {
		return r, fmt.Errorf("queue survived %d publishes at maxLen 64", r.Objects)
	}

	rt0 := sub.Store().RoundTrips()
	start := time.Now()
	if err := sub.RecoverQueue(); err != nil {
		return r, err
	}
	r.RecoveryMs = float64(time.Since(start).Microseconds()) / 1000
	r.RTPerObject = float64(sub.Store().RoundTrips()-rt0) / float64(r.Objects)
	r.Chunks = sub.Stats().BootstrapChunks
	r.Converged = sub.Mapper().Len("Item") == r.Objects &&
		rowsDiffer(pub, []*core.App{sub}, "Item", []string{id(0), id(r.Objects / 2), id(r.Objects - 1)}) == nil
	return r, nil
}

// FormatOverload renders the per-seed overload runs.
func FormatOverload(doc OverloadDoc) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Overload: sustained ~2x overload vs a slow subscriber (watermark backpressure,")
	fmt.Fprintln(&b, "degradation ladder, stall quarantine, graceful drain; bound = maxLen cliff never hit)")
	fmt.Fprintf(&b, "%5s %6s %6s %6s %6s %6s %6s %9s %6s %10s %9s %10s\n",
		"seed", "thrtl", "defer", "shed", "repub", "stall", "dlq", "quarant", "depth", "goodput/s", "converged", "drained")
	for _, r := range doc.Runs {
		drained := "yes"
		if !r.DrainOK || r.DrainUnacked != 0 {
			drained = fmt.Sprintf("no(%d)", r.DrainUnacked)
		}
		fmt.Fprintf(&b, "%5d %6d %6d %6d %6d %6d %6d %9s %6d %10.0f %9v %10s\n",
			r.Seed, r.Throttled, r.Deferred, r.Shed, r.Republished,
			r.Stalled, r.DeadLettered, r.QuarantineTime.Round(time.Millisecond),
			r.MaxDepth, r.GoodputOverload, r.Converged, drained)
	}
	if len(doc.Runs) > 0 {
		fmt.Fprintf(&b, "(watermark %d, hard bound %d; depth is the queue's high-water mark)\n",
			doc.Runs[0].HighWatermark, doc.Runs[0].HardBound)
	}
	r := doc.Recovery
	fmt.Fprintf(&b, "decommission recovery (%d objects past the cliff): %d chunks, %.4f vstore\nround trips/object, %.1fms (converged %v)\n",
		r.Objects, r.Chunks, r.RTPerObject, r.RecoveryMs, r.Converged)
	return b.String()
}

// gateOverload: convergence and queue bounds under sustained overload;
// the decommission recovery must converge, and its per-object round-trip
// cost is held to an absolute protocol budget — one bulk version-snapshot
// window plus one batched claim window per chunk — so it is
// size-invariant and a regenerated baseline cannot launder a chatty
// recovery.
func gateOverload(_, fresh OverloadDoc, v *Verdict) {
	const rtCap = 0.05
	if fresh.Converged != fresh.Seeds || fresh.Bounded != fresh.Seeds {
		v.breachf("%d/%d seeds converged, %d/%d held the queue bound", fresh.Converged, fresh.Seeds, fresh.Bounded, fresh.Seeds)
	}
	if !fresh.Recovery.Converged {
		v.breachf("decommission recovery did not converge")
	}
	if n := fresh.Recovery.RTPerObject; n > rtCap {
		v.breachf("recovery %g vstore rt/object above the absolute cap of %g", n, rtCap)
	}
}
