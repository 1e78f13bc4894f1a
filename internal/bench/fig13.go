package bench

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/workload"
)

// ---------------------------------------------------------------------
// Fig 13(a): publisher overhead vs. number of dependencies.
// ---------------------------------------------------------------------

// Fig13aConfig parameterizes the dependency sweep.
type Fig13aConfig struct {
	Engines []string
	Deps    []int
	Samples int // writes measured per point
}

// fig13aConfig mirrors the paper's sweep (1..1000 dependencies over
// MySQL, PostgreSQL, TokuMX, MongoDB, Cassandra, and Ephemeral).
func fig13aConfig(quick bool) Fig13aConfig {
	cfg := Fig13aConfig{
		Engines: []string{MySQL, PostgreSQL, TokuMX, MongoDB, Cassandra, Ephemeral},
		Deps:    []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
		Samples: 20,
	}
	if quick {
		cfg.Deps = []int{1, 10, 100, 1000}
		cfg.Samples = 5
	}
	return cfg
}

// Fig13aPoint is one measured cell.
type Fig13aPoint struct {
	Engine   string
	Deps     int
	Overhead time.Duration
}

// RunFig13a measures publisher overhead (total controller write latency
// minus the engine's intrinsic write latency) as the number of
// dependencies per message grows, as the fastest of each point's samples.
func RunFig13a(cfg Fig13aConfig) ([]Fig13aPoint, error) {
	var out []Fig13aPoint
	for _, engine := range cfg.Engines {
		profile := engineProfile(engine)
		profile.MaxWriteRate = 0
		profile.Precise = true // sequential measurement: spin-wait
		baseline := profile.WriteLatency
		mapper := NewMapper(engine, profile)
		// The version-store round trip is calibrated so the 1-dependency
		// overhead lands in the paper's 4.5-6.5ms band.
		app := mustApp(core.NewFabric(), "pub", mapper, core.Config{
			Mode:          core.Causal,
			VStoreShards:  vstoreShards,
			VStoreRTT:     500 * time.Microsecond,
			VStorePerKey:  55 * time.Microsecond,
			VStorePrecise: true,
		})
		item := itemModel("payload", model.String)()[0]
		must(app.Publish(item, core.PubSpec{Attrs: item.FieldNames(), Ephemeral: engine == Ephemeral}))

		// Each point is its fastest sample: the cost is a fixed spin-wait,
		// and a write preempted on a busy host only ever adds to its own
		// sample. The points take their samples in turns, so a busy spell
		// slows one sample of several points, not every sample of one.
		fastest := make([]time.Duration, len(cfg.Deps))
		for i := range fastest {
			fastest[i] = math.MaxInt64
		}
		next := 0
		for range cfg.Samples {
			for i, deps := range cfg.Deps {
				fastest[i] = min(fastest[i], createItem(app, fmt.Sprintf("it-%d", next), deps))
				next++
			}
		}
		for i, deps := range cfg.Deps {
			out = append(out, Fig13aPoint{Engine: engine, Deps: deps, Overhead: max(fastest[i]-baseline, 0)})
		}
	}
	return out, nil
}

// FormatFig13a renders the sweep as a paper-style series table.
func FormatFig13a(points []Fig13aPoint) string {
	return formatSeries("Fig 13(a): publisher overhead [ms] vs number of dependencies", "deps", 14,
		points, func(p Fig13aPoint) (string, int, string) {
			return p.Engine, p.Deps, fmt.Sprintf("%.2f", float64(p.Overhead.Microseconds())/1000)
		})
}

// ---------------------------------------------------------------------
// Fig 13(b): end-to-end throughput vs. number of workers per DB pair.
// ---------------------------------------------------------------------

// EnginePair is one publisher/subscriber combination of Fig 13(b).
type EnginePair struct {
	Pub, Sub string
}

// Name renders "pub -> sub".
func (p EnginePair) Name() string { return p.Pub + " -> " + p.Sub }

// Fig13bConfig parameterizes the throughput sweep.
type Fig13bConfig struct {
	Pairs    []EnginePair
	Workers  []int
	Duration time.Duration // measurement window per point
	Warmup   time.Duration
}

// fig13bConfig mirrors the paper's five pairs and worker sweep.
func fig13bConfig(quick bool) Fig13bConfig {
	cfg := Fig13bConfig{
		Pairs: []EnginePair{
			{Ephemeral, Ephemeral},
			{Cassandra, Elasticsearch},
			{MongoDB, RethinkDB},
			{PostgreSQL, TokuMX},
			{MySQL, Neo4j},
		},
		Workers:  []int{1, 2, 5, 10, 20, 50, 100, 200, 400},
		Duration: 700 * time.Millisecond,
		Warmup:   200 * time.Millisecond,
	}
	if quick {
		cfg.Workers = []int{1, 10, 50, 200}
		cfg.Duration = 300 * time.Millisecond
	}
	return cfg
}

// Fig13bPoint is one measured cell.
type Fig13bPoint struct {
	Pair       string
	Workers    int
	Throughput float64 // messages/s applied at the subscriber
}

// RunFig13b runs the social microbenchmark of §6.3 over each engine
// pair: N publisher workers create posts (25%) and comments (75%) while
// N subscriber workers apply them; throughput is the subscriber-side
// message rate over the measurement window.
func RunFig13b(cfg Fig13bConfig) ([]Fig13bPoint, error) {
	var out []Fig13bPoint
	for _, pair := range cfg.Pairs {
		for _, workers := range cfg.Workers {
			out = append(out, Fig13bPoint{
				Pair:       pair.Name(),
				Workers:    workers,
				Throughput: runPairOnce(cfg, pair, workers),
			})
		}
	}
	return out, nil
}

// runPairOnce runs one pair with both engines latency-bound and capped
// at their saturation rates (engineProfile), so throughput scales with
// workers until a DB saturates, matching the paper's cluster behaviour;
// without the latency a single in-process worker is already CPU-bound.
func runPairOnce(cfg Fig13bConfig, engines EnginePair, workers int) float64 {
	app := core.Config{Mode: core.Causal, VStoreShards: vstoreShards, VStoreRTT: 300 * time.Microsecond}
	p := pair(pairSpec{
		PubEngine: engines.Pub, PubProfile: engineProfile(engines.Pub), Pub: app,
		SubEngine: engines.Sub, SubProfile: engineProfile(engines.Sub), Sub: app,
		Models: socialModels,
	})
	p.sub.StartWorkers(workers)
	defer p.sub.StopWorkers()

	gen := workload.NewSocialGen(1, 256)
	w := socialWriter{pub: p.pub}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w.write(gen.Next(), nil)
				}
			}
		}()
	}

	time.Sleep(cfg.Warmup)
	rate := applyRate(p.sub, cfg.Duration)
	close(stop)
	wg.Wait()
	return rate
}

// FormatFig13b renders the sweep as a paper-style series table.
func FormatFig13b(points []Fig13bPoint) string {
	return formatSeries("Fig 13(b): end-to-end throughput [msg/s] vs number of workers", "workers", 28,
		points, func(p Fig13bPoint) (string, int, string) { return p.Pair, p.Workers, fmtRate(p.Throughput) })
}

// ---------------------------------------------------------------------
// Fig 13(c): throughput vs. workers under the three delivery modes.
// ---------------------------------------------------------------------

// Fig13cConfig parameterizes the delivery-mode comparison.
type Fig13cConfig struct {
	Workers  []int
	Callback time.Duration // subscriber processing time per message
	Duration time.Duration
}

// fig13cConfig scales the paper's 100ms callback down to 10ms to keep
// the sweep's wall-clock time reasonable; throughput scales by the same
// factor and the curves' shapes are unchanged.
func fig13cConfig(quick bool) Fig13cConfig {
	cfg := Fig13cConfig{
		Workers:  []int{1, 2, 5, 10, 20, 50, 100, 200, 400},
		Callback: 10 * time.Millisecond,
		Duration: time.Second,
	}
	if quick {
		cfg.Workers = []int{1, 10, 50, 200}
		cfg.Duration = 500 * time.Millisecond
	}
	return cfg
}

// fig13cMaxBacklog caps the pre-published backlog per point.
const fig13cMaxBacklog = 120000

// Fig13cPoint is one measured cell.
type Fig13cPoint struct {
	Mode       core.DeliveryMode
	Workers    int
	Throughput float64
}

// RunFig13c pre-publishes a social workload, then measures how fast
// subscriber worker pools of increasing size can drain it under each
// delivery mode, with every message costing Callback of processing (the
// paper's simulated email send).
func RunFig13c(cfg Fig13cConfig) ([]Fig13cPoint, error) {
	var out []Fig13cPoint
	for _, mode := range []core.DeliveryMode{core.Weak, core.Causal, core.Global} {
		for _, workers := range cfg.Workers {
			out = append(out, Fig13cPoint{
				Mode:       mode,
				Workers:    workers,
				Throughput: runModeOnce(cfg, mode, workers),
			})
		}
	}
	return out, nil
}

func runModeOnce(cfg Fig13cConfig, mode core.DeliveryMode, workers int) float64 {
	p := pair(pairSpec{
		Pub:    core.Config{Mode: mode, VStoreShards: vstoreShards},
		Sub:    core.Config{VStoreShards: vstoreShards},
		Models: socialModels,
		Mode:   mode,
		OnSub: afterWrite(func(*model.CallbackCtx) error {
			time.Sleep(cfg.Callback)
			return nil
		}),
	})
	// Pre-publish enough backlog that the consumers never go idle.
	gen := workload.NewSocialGen(2, 100)
	w := socialWriter{pub: p.pub}
	for i := min(backlog(cfg.Duration, cfg.Callback, workers), fig13cMaxBacklog); i > 0; i-- {
		w.write(gen.Next(), nil)
	}
	return drainRate(p.sub, workers, cfg.Duration)
}

// FormatFig13c renders the sweep as a paper-style series table.
func FormatFig13c(points []Fig13cPoint) string {
	return formatSeries("Fig 13(c): subscriber throughput [msg/s] vs workers per delivery mode", "workers", 28,
		points, func(p Fig13cPoint) (string, int, string) {
			return p.Mode.String() + " delivery", p.Workers, fmtRate(p.Throughput)
		})
}

// formatSeries renders points as one row per series and one column per
// swept x value; the first series' x values head the columns.
func formatSeries[T any](title, xName string, nameWidth int, points []T, get func(T) (series string, x int, cell string)) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	type cell struct {
		x    int
		text string
	}
	bySeries := map[string][]cell{}
	var order []string
	for _, p := range points {
		name, x, text := get(p)
		if _, ok := bySeries[name]; !ok {
			order = append(order, name)
		}
		bySeries[name] = append(bySeries[name], cell{x, text})
	}
	if len(order) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-*s", nameWidth, xName)
	for _, c := range bySeries[order[0]] {
		fmt.Fprintf(&b, "%9d", c.x)
	}
	fmt.Fprintln(&b)
	for _, name := range order {
		fmt.Fprintf(&b, "%-*s", nameWidth, name)
		for _, c := range bySeries[name] {
			fmt.Fprintf(&b, "%9s", c.text)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
