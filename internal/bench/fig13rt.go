package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/storage"
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
	Shards   int
	// VStoreRTT/VStorePerKey inject the Fig 13(a) round-trip latency so
	// the publish-latency column reflects the saved round trips.
	VStoreRTT    time.Duration
	VStorePerKey time.Duration
}

// DefaultFig13RT sweeps the multi-dependency range: the batched plans
// keep the round trips per message flat across it.
func DefaultFig13RT() Fig13RTConfig {
	return Fig13RTConfig{
		Deps:         []int{1, 2, 5, 10, 20, 50, 100},
		Messages:     30,
		Shards:       8,
		VStoreRTT:    300 * time.Microsecond,
		VStorePerKey: 20 * time.Microsecond,
	}
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

// RunFig13RT measures, for each dependency count, the version-store
// round trips per published message end to end (the publisher's bump
// and unlock windows plus the subscriber's probe-and-claim and increment
// windows).
func RunFig13RT(cfg Fig13RTConfig) []Fig13RTPoint {
	var out []Fig13RTPoint
	for _, deps := range cfg.Deps {
		out = append(out, Fig13RTPoint{Deps: deps, Batched: runRTOnce(cfg, deps)})
	}
	return out
}

func runRTOnce(cfg Fig13RTConfig, deps int) Fig13RTSide {
	f := core.NewFabric()
	mk := func(name string) *core.App {
		return mustApp(f, name, NewMapper(MongoDB, storage.Profile{}), core.Config{
			Mode:         core.Causal,
			VStoreShards: cfg.Shards,
			VStoreRTT:    cfg.VStoreRTT,
			VStorePerKey: cfg.VStorePerKey,
		})
	}
	pub := mk("pub")
	sub := mk("sub")

	itemDesc := func() *model.Descriptor {
		return model.NewDescriptor("Item",
			model.Field{Name: "payload", Type: model.String},
		)
	}
	must(pub.Publish(itemDesc(), core.PubSpec{Attrs: []string{"payload"}}))
	must(sub.Subscribe(itemDesc(), core.SubSpec{From: "pub", Attrs: []string{"payload"}}))

	sub.StartWorkers(1)
	defer sub.StopWorkers()

	// Pre-create the shared dependency objects, so the measured messages'
	// read dependencies carry nonzero version minimums — a zero minimum
	// is satisfied without any round trip and would hide the wait cost.
	for d := 0; d < deps-1; d++ {
		rec := model.NewRecord("Item", fmt.Sprintf("dep-%d", d))
		rec.Set("payload", "d")
		if _, err := pub.NewController(nil).Create(rec); err != nil {
			panic(err)
		}
	}
	// settle waits until the subscriber has applied want messages and
	// both stores have been charged everything those cost: a message's
	// increments and ack land after it counts as processed, a publish's
	// unlock window behind its back.
	settle := func(want int) {
		waitProcessed(sub, int64(want), 10*time.Second)
		for deadline := time.Now().Add(10 * time.Second); sub.Queue().Depth() > 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		pub.Store().WaitReleases()
	}
	settle(deps - 1)

	pubRT0 := pub.Store().RoundTrips()
	subRT0 := sub.Store().RoundTrips()
	var total time.Duration
	for i := 0; i < cfg.Messages; i++ {
		ctl := pub.NewController(nil)
		for d := 0; d < deps-1; d++ {
			ctl.AddReadDeps("Item", fmt.Sprintf("dep-%d", d))
		}
		rec := model.NewRecord("Item", fmt.Sprintf("it-%d", i))
		rec.Set("payload", "x")
		start := time.Now()
		if _, err := ctl.Create(rec); err != nil {
			panic(err)
		}
		total += time.Since(start)
		// One message at a time, end to end: the count is the protocol's,
		// not the schedule's — with two in flight the publisher's unlock
		// windows and the subscriber's increments coalesce by luck.
		settle(deps + i)
	}

	n := float64(cfg.Messages)
	side := Fig13RTSide{
		PubRT:     float64(pub.Store().RoundTrips()-pubRT0) / n,
		SubRT:     float64(sub.Store().RoundTrips()-subRT0) / n,
		PublishMs: float64(total.Microseconds()) / 1000 / n,
	}
	side.TotalRT = side.PubRT + side.SubRT
	return side
}

func waitProcessed(a *core.App, want int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for a.Processed.Count() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// FormatFig13RT renders the sweep as a table.
func FormatFig13RT(points []Fig13RTPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 13 extension: version-store round trips per message (batched plans)")
	fmt.Fprintf(&b, "%6s %8s %8s %9s %12s\n", "deps", "pub", "sub", "total", "publish ms")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %8.1f %8.1f %9.1f %12.2f\n",
			p.Deps, p.Batched.PubRT, p.Batched.SubRT, p.Batched.TotalRT, p.Batched.PublishMs)
	}
	return b.String()
}

// MarshalFig13RT encodes the sweep as the BENCH_fig13.json document, so
// later PRs can diff the round-trip trajectory.
func MarshalFig13RT(points []Fig13RTPoint) ([]byte, error) {
	doc := struct {
		Figure      string         `json:"figure"`
		Description string         `json:"description"`
		Points      []Fig13RTPoint `json:"points"`
	}{
		Figure:      "fig13-round-trips",
		Description: "version-store round trips per published message under the batched round-trip plans, by dependency count",
		Points:      points,
	}
	return json.MarshalIndent(doc, "", "  ")
}
