package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
)

// ---------------------------------------------------------------------
// Causality: fixed-cardinality dependency hashing vs exact per-object
// dots (dotted version vectors). Hash collisions manufacture false
// dependencies that serialize causally-unrelated applies; the DVV
// tracker pays per-name version-store state to eliminate them. This
// experiment measures that trade on a read-heavy workload: every update
// carries several random read dependencies, so at small cardinalities
// most messages collide with unrelated in-flight messages and the
// subscriber's worker pool collapses toward serial order.
// ---------------------------------------------------------------------

// CausalityConfig parameterizes the tracker sweep: one point per hash
// cardinality, then the dotted-version-vector tracker.
type CausalityConfig struct {
	Cards []uint64
	// Workers is the subscriber worker-pool size.
	Workers int
	// Duration is the measured window per point.
	Duration time.Duration
	// Objects is how many distinct Posts the workload touches.
	Objects int
}

// causalityConfig: three cardinalities spanning the §4.2 spectrum plus
// the DVV tracker.
func causalityConfig(quick bool) CausalityConfig {
	if quick {
		return CausalityConfig{Cards: []uint64{1, 256}, Workers: 8, Duration: 300 * time.Millisecond, Objects: 128}
	}
	return CausalityConfig{Cards: []uint64{1, 16, 256}, Workers: 16, Duration: time.Second, Objects: 512}
}

const (
	// causalityCallback is the per-apply subscriber callback cost (models
	// real work; parallelism across unrelated objects is what recovers it).
	causalityCallback = 2 * time.Millisecond
	// causalityReadDeps is how many random read dependencies each update
	// carries (explicit AddReadDeps, per Table 2 — aggregation-style reads).
	causalityReadDeps = 3
)

// CausalityPoint is one tracker cell of the sweep.
type CausalityPoint struct {
	// Tracker is the policy ("hash" or "dvv"); Cardinality is the hash
	// space size for hash points (0 = unbounded) and omitted for DVV.
	Tracker     string `json:"tracker"`
	Cardinality uint64 `json:"cardinality,omitempty"`
	// Throughput is subscriber applies per second over the window.
	Throughput float64 `json:"throughput_msgs_per_sec"`
	// DepWaitsBlocked / FalseDepsSuspected / DepWaitBlockedMeanMS come
	// from the subscriber's Stats: how often causal waits actually
	// blocked, how many of those blocks a write to a DIFFERENT name
	// released (false dependencies — structurally 0 under DVV), and how
	// long a blocked wait took to resolve on average.
	DepWaitsBlocked      int64   `json:"dep_waits_blocked"`
	FalseDepsSuspected   int64   `json:"false_deps_suspected"`
	DepWaitBlockedMeanMS float64 `json:"dep_wait_blocked_mean_ms"`
}

// Label renders the point's tracker identity.
func (p CausalityPoint) Label() string {
	if p.Tracker == core.TrackerDVV {
		return "dvv"
	}
	if p.Cardinality == 0 {
		return "hash/unbounded"
	}
	return fmt.Sprintf("hash/%d", p.Cardinality)
}

// CausalityDoc is BENCH_causality.json.
type CausalityDoc struct {
	Experiment  string           `json:"experiment"`
	Description string           `json:"description"`
	Points      []CausalityPoint `json:"points"`
}

// RunCausality sweeps the tracker policies over the same workload.
func RunCausality(cfg CausalityConfig) (CausalityDoc, error) {
	doc := CausalityDoc{
		Experiment:  "causality",
		Description: "subscriber apply throughput and blocked-wait composition under fixed-cardinality dependency hashing (1 = global ordering) vs exact per-object dots (DVV); same workload — random-object updates each carrying explicit read dependencies — for every point",
	}
	for _, card := range cfg.Cards {
		doc.Points = append(doc.Points, runCausalityPoint(cfg, core.TrackerHash, card))
	}
	doc.Points = append(doc.Points, runCausalityPoint(cfg, core.TrackerDVV, 0))
	return doc, nil
}

func runCausalityPoint(cfg CausalityConfig, tracker string, card uint64) CausalityPoint {
	app := core.Config{Mode: core.Causal, DepTracker: tracker, DepCardinality: card}
	p := pair(pairSpec{
		Pub: app, Sub: app,
		Models: func() []*model.Descriptor { return socialModels()[:1] },
		OnSub: afterWrite(func(*model.CallbackCtx) error {
			time.Sleep(causalityCallback)
			return nil
		}),
	})
	pub, sub := p.pub, p.sub

	// Seed the object population, then enqueue the measured stream:
	// updates of random posts, each reading other random posts (the
	// aggregation pattern of Table 2). Identical publish order and
	// dependency structure for every tracker point — only the key space
	// the dependencies land in differs.
	rng := rand.New(rand.NewSource(42))
	ids := make([]string, cfg.Objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
		rec := model.NewRecord("Post", ids[i])
		rec.Set("author", "u0")
		rec.Set("body", "b")
		_, err := pub.NewController(nil).Create(rec)
		must(err)
	}
	for i := backlog(cfg.Duration, causalityCallback, cfg.Workers); i > 0; i-- {
		ctl := pub.NewController(nil)
		for r := 0; r < causalityReadDeps; r++ {
			ctl.AddReadDeps("Post", ids[rng.Intn(len(ids))])
		}
		patch := model.NewRecord("Post", ids[rng.Intn(len(ids))])
		patch.Set("body", fmt.Sprintf("b%d", i))
		_, err := ctl.Update(patch)
		must(err)
	}

	rate := drainRate(sub, cfg.Workers, cfg.Duration)
	st := sub.Stats()
	return CausalityPoint{
		Tracker:              tracker,
		Cardinality:          card,
		Throughput:           rate,
		DepWaitsBlocked:      st.DepWaitsBlocked,
		FalseDepsSuspected:   st.FalseDepsSuspected,
		DepWaitBlockedMeanMS: float64(st.DepWaitBlockedMean) / float64(time.Millisecond),
	}
}

// FormatCausality renders the tracker sweep.
func FormatCausality(doc CausalityDoc) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Causality: hashed dependency tracking vs dotted version vectors")
	fmt.Fprintln(&b, "(false dependencies from hash collisions serialize unrelated applies;")
	fmt.Fprintln(&b, "DVV dots are per-name, so blocked waits are all true dependencies)")
	fmt.Fprintf(&b, "%-16s %12s %14s %12s %16s\n",
		"tracker", "throughput", "blocked waits", "false deps", "mean block [ms]")
	for _, p := range doc.Points {
		fmt.Fprintf(&b, "%-16s %12s %14d %12d %16.2f\n",
			p.Label(), fmtRate(p.Throughput), p.DepWaitsBlocked, p.FalseDepsSuspected, p.DepWaitBlockedMeanMS)
	}
	return b.String()
}

// gateCausality: DVVs must stay exact (no false dependencies) and beat
// the degenerate hash tracker at cardinality 1 (the paper's qualitative
// claim). cardinality is omitted from dvv points, so it is not in Reads:
// a sweep without a hash/1 or a dvv point is the breach instead.
func gateCausality(_, fresh CausalityDoc, v *Verdict) {
	var dvv, hash1 *CausalityPoint
	for i, p := range fresh.Points {
		switch {
		case p.Tracker == core.TrackerDVV:
			dvv = &fresh.Points[i]
		case p.Tracker == core.TrackerHash && p.Cardinality == 1:
			hash1 = &fresh.Points[i]
		}
	}
	if dvv == nil || hash1 == nil {
		v.breachf("the sweep lacks its dvv or its hash/1 point")
		return
	}
	if dvv.FalseDepsSuspected != 0 {
		v.breachf("dvv tracker reported %d false dependencies", dvv.FalseDepsSuspected)
	}
	if dvv.Throughput <= hash1.Throughput {
		v.breachf("dvv throughput %.0f no longer beats hash/1 (%.0f)", dvv.Throughput, hash1.Throughput)
	}
}
