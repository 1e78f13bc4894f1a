// Command synapse-bench regenerates every table and figure of the
// paper's evaluation (§6). Each experiment prints the same rows or
// series the paper reports; EXPERIMENTS.md records the scaling choices
// and compares the measured shapes with the paper's.
//
// Usage:
//
//	synapse-bench -exp table1|table3|fig8|fig9a|fig9b|fig12a|fig12b|
//	                   fig13a|fig13b|fig13c|fig13rt|lostmsg|reliability|
//	                   chaos|overload|ablation-hash|causality|tail|
//	                   cluster|bootstrap|all
//	              [-quick] [-cpuprofile] [-memprofile] [-profiledir DIR]
//
// fig13rt additionally writes BENCH_fig13.json (round trips per message
// by dependency count), chaos writes BENCH_chaos.json (seeded fault
// scripts, convergence + recovery times), overload writes
// BENCH_overload.json (degradation-ladder composition, queue bounds,
// stall-quarantine latency under sustained ~2x overload), causality
// writes BENCH_causality.json (subscriber apply throughput under hashed
// dependency cardinalities vs dotted version vectors), and tail writes
// BENCH_tail.json (open-loop publish→deliver p50/p99/p999 across an
// arrival-rate sweep, knee detection), and cluster writes
// BENCH_cluster.json (sharded-broker throughput scaling at 1/2/4
// shards, crash-to-promotion unavailability window, zero-lost verdict),
// and bootstrap writes BENCH_bootstrap.json (chunked live join time vs
// publisher size under sustained write load, max publish stall,
// crash-resume cost from the journaled chunk cursor) so future changes
// have perf and robustness trajectories.
//
// -quick shrinks every sweep for a fast end-to-end pass. -cpuprofile and
// -memprofile capture pprof profiles of the run into -profiledir
// (default ./profiles).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"synapse/internal/bench"
	"synapse/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	cpuProfile := flag.Bool("cpuprofile", false, "capture a pprof CPU profile of the run")
	memProfile := flag.Bool("memprofile", false, "capture a pprof heap profile after the run")
	profileDir := flag.String("profiledir", "profiles", "directory for pprof output")
	flag.Parse()

	if *cpuProfile {
		path := profilePath(*profileDir, *exp, "cpu")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote %s\n", path)
		}()
	}
	if *memProfile {
		path := profilePath(*profileDir, *exp, "heap")
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Printf("wrote %s\n", path)
		}()
	}

	experiments := []struct {
		name string
		run  func(quick bool)
	}{
		{"table1", runTable1},
		{"table3", runTable3},
		{"fig8", runFig8},
		{"fig9a", runFig9a},
		{"fig9b", runFig9b},
		{"fig12a", runFig12a},
		{"fig12b", runFig12b},
		{"fig13a", runFig13a},
		{"fig13b", runFig13b},
		{"fig13c", runFig13c},
		{"fig13rt", runFig13RT},
		{"lostmsg", runLostMsg},
		{"reliability", runReliability},
		{"chaos", runChaos},
		{"overload", runOverload},
		{"ablation-hash", runAblationHash},
		{"causality", runCausality},
		{"tail", runTail},
		{"cluster", runCluster},
		{"bootstrap", runBootstrap},
	}

	found := false
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			found = true
			start := time.Now()
			fmt.Printf("==== %s ====\n", e.name)
			e.run(*quick)
			fmt.Printf("(%s completed in %s)\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// profilePath places a pprof output file under dir, creating dir if
// needed, named after the experiment and profile kind.
func profilePath(dir, exp, kind string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%s.pprof", exp, kind))
}

func runTable1(bool) { fmt.Print(bench.FormatTable1()) }

func runTable3(bool) {
	rows, err := bench.RunTable3()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatTable3(rows))
}

func runFig8(bool) {
	fmt.Println("Fig 8: dependency and message generation (see the golden test")
	fmt.Println("internal/core/fig8_test.go, which replays the paper's exact trace).")
	fmt.Println("Expected message dependencies, reproduced by the implementation:")
	fmt.Println("  M1: {u1: 0, p1: 0}")
	fmt.Println("  M2: {u2: 0, c1: 0, p1: 1}")
	fmt.Println("  M3: {u1: 1, c2: 0, p1: 1}")
	fmt.Println("  M4: {u1: 2, p1: 3}")
}

func runFig9a(bool) {
	tl := bench.RunFig9a()
	fmt.Println("Fig 9(a): execution sample — user posts on Diaspora; mailer and")
	fmt.Println("semantic analyzer receive in parallel; Diaspora and Spree receive")
	fmt.Println("the decorated User.")
	fmt.Print(tl.String())
}

func runFig9b(bool) {
	tl := bench.RunFig9b()
	fmt.Println("Fig 9(b): execution with subscriber disconnection — two users post")
	fmt.Println("while the mailer is offline; on reconnection it processes the users")
	fmt.Println("in parallel but each user's posts in serial (causal) order.")
	fmt.Print(tl.String())
}

func runFig12a(quick bool) {
	cfg := bench.DefaultFig12a()
	if quick {
		cfg.Calls = 300
		cfg.TimeScale = 0.02
	}
	fmt.Print(bench.RunFig12a(cfg).Format())
}

func runFig12b(quick bool) {
	cfg := bench.DefaultFig12a()
	if quick {
		cfg.TimeScale = 0.02
	}
	fmt.Print(bench.FormatFig12b(bench.RunFig12b(cfg)))
}

func runFig13a(quick bool) {
	cfg := bench.DefaultFig13a()
	if quick {
		cfg.Deps = []int{1, 10, 100, 1000}
		cfg.Samples = 5
	}
	fmt.Print(bench.FormatFig13a(bench.RunFig13a(cfg)))
}

func runFig13b(quick bool) {
	cfg := bench.DefaultFig13b()
	if quick {
		cfg.Workers = []int{1, 10, 50, 200}
		cfg.Duration = 300 * time.Millisecond
	}
	fmt.Print(bench.FormatFig13b(bench.RunFig13b(cfg)))
}

func runFig13c(quick bool) {
	cfg := bench.DefaultFig13c()
	if quick {
		cfg.Workers = []int{1, 10, 50, 200}
		cfg.Duration = 500 * time.Millisecond
	}
	fmt.Print(bench.FormatFig13c(bench.RunFig13c(cfg)))
}

func runFig13RT(quick bool) {
	cfg := bench.DefaultFig13RT()
	if quick {
		cfg.Deps = []int{1, 10, 50}
		cfg.Messages = 10
	}
	points := bench.RunFig13RT(cfg)
	fmt.Print(bench.FormatFig13RT(points))
	doc, err := bench.MarshalFig13RT(points)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_fig13.json", doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_fig13.json")
}

func runLostMsg(quick bool) {
	base := bench.DefaultLostMsg()
	if quick {
		base.Messages = 200
	}
	var results []bench.LostMsgResult
	for _, timeout := range []time.Duration{0, 25 * time.Millisecond, core.WaitForever} {
		cfg := base
		cfg.DepTimeout = timeout
		if timeout == core.WaitForever {
			// Pure causal: rely on queue decommission + rebootstrap.
			cfg.QueueMaxLen = 100
		}
		results = append(results, bench.RunLostMsg(cfg))
	}
	fmt.Print(bench.FormatLostMsg(results))
}

func runReliability(quick bool) {
	base := bench.DefaultReliability()
	if quick {
		base.Writes = 40
	}
	var results []bench.ReliabilityResult
	// MongoDB journals the final payload directly; PostgreSQL stages the
	// journal row inside the data transaction (transactional outbox).
	for _, engine := range []string{bench.MongoDB, bench.PostgreSQL} {
		cfg := base
		cfg.Engine = engine
		results = append(results, bench.RunReliability(cfg))
	}
	fmt.Print(bench.FormatReliability(results))
}

func runChaos(quick bool) {
	cfg := bench.DefaultChaos()
	if quick {
		cfg.Seeds = 6
		cfg.Writes = 20
		cfg.Steps = 5
	}
	results, err := bench.RunChaos(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatChaos(results))
	doc, err := bench.MarshalChaos(results)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_chaos.json", doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_chaos.json")
}

func runOverload(quick bool) {
	cfg := bench.DefaultOverload()
	if quick {
		cfg.Seeds = 2
		cfg.Writes = 90
	}
	results, err := bench.RunOverloadBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The recovery section's round-trip metric is a protocol count, so
	// quick and full runs measure the identical configuration.
	recovery, err := bench.RunOverloadRecovery(2000)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatOverload(results))
	fmt.Print(bench.FormatOverloadRecovery(recovery))
	doc, err := bench.MarshalOverload(results, recovery)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_overload.json", doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_overload.json")
}

func runAblationHash(quick bool) {
	cards := []uint64{1, 4, 16, 256, 0}
	workers, callback, duration := 64, 5*time.Millisecond, time.Second
	if quick {
		cards = []uint64{1, 16, 0}
		duration = 300 * time.Millisecond
	}
	fmt.Print(bench.FormatAblation(bench.RunAblationHashCardinality(cards, workers, callback, duration)))
}

func runCausality(quick bool) {
	cfg := bench.DefaultCausality()
	if quick {
		cfg.Cards = []uint64{1, 256}
		cfg.Workers = 8
		cfg.Duration = 300 * time.Millisecond
		cfg.Objects = 128
	}
	points := bench.RunCausality(cfg)
	fmt.Print(bench.FormatCausality(points))
	doc, err := bench.MarshalCausality(points)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_causality.json", doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_causality.json")
}

func runTail(quick bool) {
	cfg := bench.DefaultTail()
	if quick {
		// Keep the 1000 ops/s anchor point (and every capacity knob)
		// identical to the full sweep so the bench gate can compare
		// quick-run p99 against the committed baseline, and keep the
		// saturating top rate so delivered_capacity (and the serial
		// ablation the capacity gate ratios against) is still measured;
		// only the sweep breadth and horizon shrink.
		cfg.Rates = []float64{250, 1000, 5600}
		cfg.Duration = time.Second
		cfg.Warmup = 250 * time.Millisecond
	}
	r := bench.RunTail(cfg)
	fmt.Print(bench.FormatTail(r))
	doc, err := bench.MarshalTail(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_tail.json", doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_tail.json")
}

func runCluster(quick bool) {
	cfg := bench.DefaultCluster()
	if quick {
		// QuickCluster keeps every capacity knob (service time,
		// publishers, shard counts, lease TTL) identical to the default
		// so the gate-compared metrics — scaling_4x, the failover
		// window, zero_lost — stay config-invariant; only breadth
		// (messages per publisher, chaos seeds) shrinks.
		cfg = bench.QuickCluster()
	}
	r, err := bench.RunCluster(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatCluster(r))
	doc, err := bench.MarshalCluster(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_cluster.json", doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_cluster.json")
}

func runBootstrap(quick bool) {
	cfg := bench.DefaultBootstrap()
	if quick {
		// The gate-compared metrics (exact convergence, stall bound,
		// resumed walk < full walk) are config-invariant; quick only
		// shrinks the populations and the resume section.
		cfg.Sizes = []int{2_000, 20_000}
		cfg.ResumeSize = 4_000
		cfg.SettleTimeout = 30 * time.Second
	}
	r, err := bench.RunBootstrapBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatBootstrap(r))
	doc, err := bench.MarshalBootstrap(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_bootstrap.json", doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_bootstrap.json")
}
