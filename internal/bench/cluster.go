package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"synapse/internal/broker"
	"synapse/internal/broker/cluster"
	"synapse/internal/chaos"
	"synapse/internal/coord"
)

// ---------------------------------------------------------------------
// Cluster: sharded broker throughput scaling and failover availability.
// The scaling sweep measures aggregate publish throughput at 1/2/4
// shards with a fixed per-shard service time (the serialized ingest
// cost a single broker node would pay), so the speedup isolates the
// partitioning benefit rather than raw in-process mutex contention.
// The failover probe crashes a primary and measures the unavailability
// window until the coord-elected follower accepts publishes again,
// then verifies every shipped message survived the promotion. A mini
// chaos sweep reuses the full cluster fault script as the zero-lost
// gate input.
// ---------------------------------------------------------------------

// ClusterConfig is the breadth of the cluster experiment.
type ClusterConfig struct {
	// Messages is the per-publisher publish count in the scaling sweep.
	Messages int
	// FailoverMessages is the per-phase publish count around the
	// injected crash (shipped before, fresh after).
	FailoverMessages int
	// ChaosSeeds is the cluster-chaos seed sweep width for the
	// zero-lost verdict.
	ChaosSeeds int
}

// clusterConfig is the committed-baseline breadth; quick shrinks only
// breadth. Every capacity knob is a constant below, so the gate-compared
// ratios (scaling_4x, failover window, zero_lost) are config-invariant.
func clusterConfig(quick bool) ClusterConfig {
	if quick {
		return ClusterConfig{Messages: 20, FailoverMessages: 80, ChaosSeeds: 2}
	}
	return ClusterConfig{Messages: 50, FailoverMessages: 200, ChaosSeeds: 3}
}

const (
	// clusterPublishers is the number of concurrent publishers, each with
	// its own exchange and bound queue, spread round-robin over the
	// shards.
	clusterPublishers = 8
	// clusterServiceTime is the serialized per-shard admission cost per
	// publish, modeling single-node ingest capacity: comfortably above
	// coarse host timer granularity, so the wakeup overhead is a small
	// constant inside the serialized section and the shard-count ratios
	// stay clean even on tiny CI hosts.
	clusterServiceTime = 2 * time.Millisecond
	// clusterLeaseTTL bounds failover detection in the probe measurement.
	clusterLeaseTTL = 15 * time.Millisecond
)

// ClusterScalingPoint is one shard count in the throughput sweep.
type ClusterScalingPoint struct {
	Shards     int     `json:"shards"`
	Messages   int     `json:"messages"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
}

// ClusterFailover is the availability-window measurement.
type ClusterFailover struct {
	// UnavailMS is the wall time from primary crash to the first
	// successful publish on the promoted follower.
	UnavailMS float64 `json:"unavail_ms"`
	// Published counts application messages across both phases;
	// Delivered counts the distinct ones drained after the promotion.
	Published int   `json:"published"`
	Delivered int   `json:"delivered"`
	Failovers int64 `json:"failovers"`
	ZeroLost  bool  `json:"zero_lost"`
}

// ClusterChaosSummary compresses the cluster-chaos seed sweep.
type ClusterChaosSummary struct {
	Seeds       int   `json:"seeds"`
	Converged   int   `json:"converged"`
	Regressions int   `json:"regressions"`
	Failovers   int64 `json:"failovers"`
	Bounces     int   `json:"shard_bounces"`
	Isolations  int   `json:"coord_isolations"`
}

// ClusterDoc is BENCH_cluster.json.
type ClusterDoc struct {
	Experiment  string                `json:"experiment"`
	Description string                `json:"description"`
	Scaling     []ClusterScalingPoint `json:"scaling"`
	Scaling4x   float64               `json:"scaling_4x"`
	Failover    ClusterFailover       `json:"failover"`
	Chaos       ClusterChaosSummary   `json:"chaos"`
	// ZeroLost is the headline verdict: the failover drain recovered
	// every message and every chaos seed converged with zero
	// regressions.
	ZeroLost bool `json:"zero_lost"`
}

// queueOn declares a queue under a name that ShardOf places on the
// wanted shard and binds it to the exchange.
func queueOn(cl *cluster.Cluster, shard int, base, exchange string) (string, error) {
	name := base
	for i := 0; cl.ShardOf(name) != shard; i++ {
		name = fmt.Sprintf("%s-%d", base, i)
	}
	if _, err := cl.DeclareQueue(name, 0); err != nil {
		return "", err
	}
	return name, cl.Bind(name, exchange)
}

// runClusterScaling measures aggregate publish throughput at one shard
// count: clusterPublishers concurrent goroutines, each with a dedicated
// exchange bound to a queue pinned round-robin to a shard, against the
// serialized per-shard clusterServiceTime admission.
func runClusterScaling(shards int, cfg ClusterConfig) (ClusterScalingPoint, error) {
	cl := cluster.New(cluster.Config{
		Shards:      shards,
		Coord:       coord.New(),
		LeaseTTL:    time.Second, // no failover during the sweep
		ServiceTime: clusterServiceTime,
	})
	defer cl.Close()

	exchanges := make([]string, clusterPublishers)
	queues := make([]string, clusterPublishers)
	for p := range exchanges {
		var err error
		exchanges[p] = fmt.Sprintf("scale-ex%d", p)
		if queues[p], err = queueOn(cl, p%shards, fmt.Sprintf("scale-q%d", p), exchanges[p]); err != nil {
			return ClusterScalingPoint{}, err
		}
	}

	payload := []byte("cluster-scaling-payload")
	errs := make([]error, clusterPublishers)
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < clusterPublishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for m := 0; m < cfg.Messages; m++ {
				if err := cl.Publish(exchanges[p], payload); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ClusterScalingPoint{}, err
		}
	}

	total := clusterPublishers * cfg.Messages
	enqueued := 0
	for _, qn := range queues {
		if q, ok := cl.Queue(qn); ok {
			enqueued += q.Len()
		}
	}
	if enqueued != total {
		return ClusterScalingPoint{}, fmt.Errorf("scaling at %d shards: enqueued %d of %d", shards, enqueued, total)
	}
	return ClusterScalingPoint{
		Shards:     shards,
		Messages:   total,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1e3,
		MsgsPerSec: float64(total) / elapsed.Seconds(),
	}, nil
}

// runClusterFailover publishes a shipped prefix, crashes the owning
// primary, probe-publishes until the promoted follower accepts again
// (the unavailability window), publishes a fresh suffix, and drains the
// promoted queue to verify nothing shipped was lost.
func runClusterFailover(cfg ClusterConfig) (ClusterFailover, error) {
	var out ClusterFailover
	cl := cluster.New(cluster.Config{
		Shards:       2,
		Coord:        coord.New(),
		ShipInterval: time.Millisecond,
		LeaseTTL:     clusterLeaseTTL,
	})
	defer cl.Close()

	const exchange = "failover-ex"
	qname, err := queueOn(cl, 0, "failover-q", exchange)
	if err != nil {
		return out, err
	}
	shard := cl.ShardOf(qname)

	// Phase 1: publish and wait until the follower has shipped it all,
	// so the promotion verdict below tests "zero shipped messages lost"
	// rather than racing the asynchronous log shipping.
	for i := 0; i < cfg.FailoverMessages; i++ {
		if err := cl.Publish(exchange, []byte(fmt.Sprintf("m%d", i))); err != nil {
			return out, err
		}
	}
	catchup := time.Now().Add(5 * time.Second)
	for !cl.CaughtUp(shard) {
		if time.Now().After(catchup) {
			return out, errors.New("follower never caught up before the crash")
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 2: crash the primary and probe until publishes land again.
	crashAt := time.Now()
	cl.CrashShard(shard)
	probeDeadline := crashAt.Add(10 * time.Second)
	for {
		err := cl.Publish(exchange, []byte("probe"))
		if err == nil {
			break
		}
		if !errors.Is(err, broker.ErrBrokerDown) {
			return out, err
		}
		if time.Now().After(probeDeadline) {
			return out, errors.New("shard never failed over")
		}
		time.Sleep(200 * time.Microsecond)
	}
	out.UnavailMS = float64(time.Since(crashAt).Microseconds()) / 1e3

	// Phase 3: fresh traffic on the promoted primary, then drain and
	// check every application message (prefix and suffix) survived.
	for i := cfg.FailoverMessages; i < 2*cfg.FailoverMessages; i++ {
		if err := cl.Publish(exchange, []byte(fmt.Sprintf("m%d", i))); err != nil {
			return out, err
		}
	}
	out.Published = 2 * cfg.FailoverMessages

	seen := make(map[string]struct{})
	drainDeadline := time.Now().Add(5 * time.Second)
	for len(seen) < out.Published {
		q, ok := cl.Queue(qname)
		if !ok {
			return out, errors.New("queue vanished after promotion")
		}
		d, got, err := q.TryGet()
		if err != nil {
			// The handle died with the old primary; refetch.
			time.Sleep(time.Millisecond)
		} else if got {
			if p := string(d.Payload); p != "probe" {
				seen[p] = struct{}{}
			}
			_ = q.Ack(d.Tag)
		} else {
			time.Sleep(time.Millisecond)
		}
		if time.Now().After(drainDeadline) {
			break
		}
	}
	out.Delivered = len(seen)
	out.Failovers = cl.Failovers()
	out.ZeroLost = out.Delivered == out.Published && out.Failovers >= 1
	return out, nil
}

// runClusterChaos sweeps the full cluster fault script across seeds.
func runClusterChaos(cfg ClusterConfig) (ClusterChaosSummary, error) {
	var out ClusterChaosSummary
	out.Seeds = cfg.ChaosSeeds
	for seed := int64(1); seed <= int64(cfg.ChaosSeeds); seed++ {
		res, err := chaos.ClusterRun(chaos.Config{Seed: seed, Writes: 25, Steps: 6})
		if err != nil {
			return out, fmt.Errorf("chaos seed %d: %w", seed, err)
		}
		if res.Converged {
			out.Converged++
		}
		out.Regressions += res.Regressions
		out.Failovers += res.Failovers
		out.Bounces += res.ShardBounces
		out.Isolations += res.CoordIsolations
	}
	return out, nil
}

// RunCluster executes the full cluster experiment: the scaling sweep at
// 1, 2 and 4 shards, the failover probe, the chaos sweep.
func RunCluster(cfg ClusterConfig) (ClusterDoc, error) {
	res := ClusterDoc{
		Experiment:  "cluster",
		Description: "hash-partitioned broker shards with log-shipped follower queues and coord-elected failover: aggregate publish throughput at 1/2/4 shards under a fixed per-shard service time, the crash-to-promotion unavailability window with a zero-shipped-loss drain check, and a cluster-chaos seed sweep as the zero-lost gate input",
	}
	rate := map[int]float64{}
	for _, shards := range []int{1, 2, 4} {
		pt, err := runClusterScaling(shards, cfg)
		if err != nil {
			return res, err
		}
		res.Scaling = append(res.Scaling, pt)
		rate[shards] = pt.MsgsPerSec
	}
	if rate[1] > 0 {
		res.Scaling4x = rate[4] / rate[1]
	}
	var err error
	if res.Failover, err = runClusterFailover(cfg); err != nil {
		return res, err
	}
	if res.Chaos, err = runClusterChaos(cfg); err != nil {
		return res, err
	}
	res.ZeroLost = res.Failover.ZeroLost &&
		res.Chaos.Converged == res.Chaos.Seeds && res.Chaos.Regressions == 0
	return res, nil
}

// FormatCluster renders the experiment.
func FormatCluster(r ClusterDoc) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Cluster: sharded broker scaling and coord-elected failover")
	fmt.Fprintf(&b, "%7s %9s %11s %12s\n", "shards", "messages", "elapsed_ms", "msgs/s")
	for _, pt := range r.Scaling {
		fmt.Fprintf(&b, "%7d %9d %11.1f %12.0f\n", pt.Shards, pt.Messages, pt.ElapsedMS, pt.MsgsPerSec)
	}
	fmt.Fprintf(&b, "scaling 4 shards vs 1: %.2fx\n", r.Scaling4x)
	fmt.Fprintf(&b, "failover: unavailable %.1fms, delivered %d/%d after %d promotion(s), zero-lost=%v\n",
		r.Failover.UnavailMS, r.Failover.Delivered, r.Failover.Published,
		r.Failover.Failovers, r.Failover.ZeroLost)
	fmt.Fprintf(&b, "chaos: %d/%d seeds converged, %d regressions, %d failovers (%d bounces, %d isolations)\n",
		r.Chaos.Converged, r.Chaos.Seeds, r.Chaos.Regressions,
		r.Chaos.Failovers, r.Chaos.Bounces, r.Chaos.Isolations)
	fmt.Fprintf(&b, "zero-lost verdict: %v\n", r.ZeroLost)
	return b.String()
}

// gateCluster: the zero-lost invariant (the failover drain recovered
// every message and every chaos seed converged with zero regressions),
// the sharding payoff (4 shards at least 1.6x the 1-shard rate) and a
// failover window inside (0, 500) ms.
func gateCluster(_, fresh ClusterDoc, v *Verdict) {
	if !fresh.ZeroLost {
		v.breachf("zero-lost invariant broken (failover drain or chaos convergence)")
	}
	if c := fresh.Chaos; c.Converged != c.Seeds || c.Regressions != 0 {
		v.breachf("%d/%d chaos seeds converged, %d regressions", c.Converged, c.Seeds, c.Regressions)
	}
	if fresh.Scaling4x < 1.6 {
		v.breachf("4-shard scaling %.2fx below the 1.6x floor", fresh.Scaling4x)
	}
	if ms := fresh.Failover.UnavailMS; ms <= 0 || ms >= 500 {
		v.breachf("failover window %gms outside (0, 500)", ms)
	}
}
