package bench

import (
	"fmt"
	"strings"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
)

// ---------------------------------------------------------------------
// Fig 13 round-trip extension: version-store round trips per message
// under the batched round-trip plans, by dependency count.
// ---------------------------------------------------------------------

// Fig13RTConfig parameterizes the round-trip sweep.
type Fig13RTConfig struct {
	// Deps is the dependency counts to sweep (read deps + the object's
	// own write dep per message, like Fig 13(a)).
	Deps []int
	// Messages measured per point.
	Messages int
}

// fig13RTConfig sweeps the multi-dependency range: the batched plans
// keep the round trips per message flat across it.
func fig13RTConfig(quick bool) Fig13RTConfig {
	if quick {
		return Fig13RTConfig{Deps: []int{1, 10, 50}, Messages: 10}
	}
	return Fig13RTConfig{Deps: []int{1, 2, 5, 10, 20, 50, 100}, Messages: 30}
}

// Fig13RTSide is the measurement at one dep count.
type Fig13RTSide struct {
	// PubRT/SubRT/TotalRT are version-store round-trip windows per
	// published message, split by the store they hit (each app owns its
	// own store, §4.2).
	PubRT   float64 `json:"pub_rt_per_msg"`
	SubRT   float64 `json:"sub_rt_per_msg"`
	TotalRT float64 `json:"total_rt_per_msg"`
	// PublishMs is the mean controller write latency in milliseconds.
	PublishMs float64 `json:"publish_ms"`
}

// Fig13RTPoint is one measured dependency count.
type Fig13RTPoint struct {
	Deps    int         `json:"deps"`
	Batched Fig13RTSide `json:"batched"`
}

// Fig13RTDoc is BENCH_fig13.json.
type Fig13RTDoc struct {
	Figure      string         `json:"figure"`
	Description string         `json:"description"`
	Points      []Fig13RTPoint `json:"points"`
}

// RunFig13RT measures, for each dependency count, the version-store
// round trips per published message end to end (the publisher's bump
// and unlock windows plus the subscriber's probe-and-claim and increment
// windows).
func RunFig13RT(cfg Fig13RTConfig) (Fig13RTDoc, error) {
	doc := Fig13RTDoc{
		Figure:      "fig13-round-trips",
		Description: "version-store round trips per published message under the batched round-trip plans, by dependency count",
	}
	for _, deps := range cfg.Deps {
		side, err := runRTOnce(cfg, deps)
		if err != nil {
			return doc, fmt.Errorf("deps=%d: %w", deps, err)
		}
		doc.Points = append(doc.Points, Fig13RTPoint{Deps: deps, Batched: side})
	}
	return doc, nil
}

func runRTOnce(cfg Fig13RTConfig, deps int) (Fig13RTSide, error) {
	// The Fig 13(a) round-trip latency is injected so the publish-latency
	// column reflects the saved round trips.
	app := core.Config{
		Mode:         core.Causal,
		VStoreShards: vstoreShards,
		VStoreRTT:    300 * time.Microsecond,
		VStorePerKey: 20 * time.Microsecond,
	}
	p := pair(pairSpec{Pub: app, Sub: app, Models: itemModel("payload", model.String)})
	pub, sub := p.pub, p.sub
	sub.StartWorkers(1)
	defer sub.StopWorkers()

	// applied waits until the subscriber holds every item and both stores
	// have been charged everything the messages so far cost: a message's
	// increments and ack land after it counts as processed, a publish's
	// unlock window behind its back.
	applied := func() error {
		err := waitConverged(10*time.Second, pub, sub)
		pub.Store().WaitReleases()
		return err
	}
	// Pre-create the shared dependency objects, so the measured messages'
	// read dependencies carry nonzero version minimums — a zero minimum
	// is satisfied without any round trip and would hide the wait cost.
	var seeded []string
	for d := 0; d < deps-1; d++ {
		seeded = append(seeded, fmt.Sprintf("dep-%d", d))
		createItem(pub, seeded[d], 1)
	}
	if err := applied(); err != nil {
		return Fig13RTSide{}, err
	}

	pubRT0 := pub.Store().RoundTrips()
	subRT0 := sub.Store().RoundTrips()
	var total time.Duration
	for i := 0; i < cfg.Messages; i++ {
		id := fmt.Sprintf("it-%d", i)
		total += createItem(pub, id, deps)
		// One message at a time, end to end: the count is the protocol's,
		// not the schedule's — with two in flight the publisher's unlock
		// windows and the subscriber's increments coalesce by luck. A
		// message that never applied fails the run: it must not become a
		// lower round-trip count.
		if err := applied(); err != nil {
			return Fig13RTSide{}, err
		}
	}

	n := float64(cfg.Messages)
	side := Fig13RTSide{
		PubRT:     float64(pub.Store().RoundTrips()-pubRT0) / n,
		SubRT:     float64(sub.Store().RoundTrips()-subRT0) / n,
		PublishMs: float64(total.Microseconds()) / 1000 / n,
	}
	side.TotalRT = side.PubRT + side.SubRT
	return side, nil
}

// FormatFig13RT renders the sweep as a table.
func FormatFig13RT(doc Fig13RTDoc) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 13 extension: version-store round trips per message (batched plans)")
	fmt.Fprintf(&b, "%6s %8s %8s %9s %12s\n", "deps", "pub", "sub", "total", "publish ms")
	for _, p := range doc.Points {
		fmt.Fprintf(&b, "%6d %8.1f %8.1f %9.1f %12.2f\n",
			p.Deps, p.Batched.PubRT, p.Batched.SubRT, p.Batched.TotalRT, p.Batched.PublishMs)
	}
	return b.String()
}

// gateFig13RT: protocol round-trip windows per message, joined on deps.
// No dependency count may pay more windows than the baseline, nor fewer
// by more than 0.25: the sweep runs one message at a time, but an unlock
// or increment window that coalesces on a slow machine reads a tenth
// low, and a real saving is a baseline to regenerate.
func gateFig13RT(base, fresh Fig13RTDoc, v *Verdict) {
	if len(fresh.Points) == 0 {
		v.breachf("the fresh sweep has no points")
	}
	want := make(map[int]float64, len(base.Points))
	for _, p := range base.Points {
		want[p.Deps] = p.Batched.TotalRT
	}
	for _, p := range fresh.Points {
		b, ok := want[p.Deps]
		if !ok {
			v.skipf("deps=%d is not in the baseline sweep", p.Deps)
		} else if n := p.Batched.TotalRT; n > b+1e-9 || n < b-0.25 {
			v.breachf("rt/msg at deps=%d is %g, baseline %g (allowed: %g down to %g)", p.Deps, n, b, b, b-0.25)
		}
	}
}
