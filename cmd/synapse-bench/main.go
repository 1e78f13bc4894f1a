// Command synapse-bench regenerates every table and figure of the
// paper's evaluation (§6). Each experiment prints the same rows or
// series the paper reports; EXPERIMENTS.md records the scaling choices
// and compares the measured shapes with the paper's.
//
// Usage:
//
//	synapse-bench -exp NAME|all [-quick] [-cpuprofile] [-memprofile] [-profiledir DIR]
//	synapse-bench -gate
//
// The experiments are the entries of bench.Experiments (an unknown NAME
// lists them). One that has a committed baseline also writes it:
// fig13rt BENCH_fig13.json and tail BENCH_tail.json, so future changes
// have perf trajectories. -quick shrinks every
// sweep for a fast end-to-end pass. -cpuprofile and -memprofile capture
// pprof profiles of the run into -profiledir (default ./profiles).
//
// -gate is the bench-regression gate: it quick-runs every gated
// experiment in memory, checks each fresh document against the committed
// BENCH_*.json in the working directory with that experiment's rule, and
// exits non-zero on any breach. It writes no file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"synapse/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	gate := flag.Bool("gate", false, "quick-run the gated experiments and check them against the committed BENCH_*.json")
	cpuProfile := flag.Bool("cpuprofile", false, "capture a pprof CPU profile of the run")
	memProfile := flag.Bool("memprofile", false, "capture a pprof heap profile after the run")
	profileDir := flag.String("profiledir", "profiles", "directory for pprof output")
	flag.Parse()
	os.Exit(run(*exp, *quick, *gate, *cpuProfile, *memProfile, *profileDir))
}

func run(exp string, quick, gate, cpuProfile, memProfile bool, profileDir string) int {
	if cpuProfile || memProfile {
		if err := os.MkdirAll(profileDir, 0o755); err != nil {
			return fail(err)
		}
	}
	if cpuProfile {
		path := filepath.Join(profileDir, exp+"-cpu.pprof")
		f, err := os.Create(path)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote %s\n", path)
		}()
	}
	if memProfile {
		defer func() {
			path := filepath.Join(profileDir, exp+"-heap.pprof")
			f, err := os.Create(path)
			if err != nil {
				fail(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
				return
			}
			fmt.Printf("wrote %s\n", path)
		}()
	}

	if gate {
		breaches, err := bench.RunGate(os.Stdout, ".")
		if err != nil {
			return fail(err)
		}
		if breaches > 0 {
			fmt.Fprintf(os.Stderr, "bench gate: %d breach(es) against the committed baselines\n", breaches)
			fmt.Fprintln(os.Stderr, "(if intentional, regenerate them: make bench-NAME for each breached experiment)")
			return 1
		}
		fmt.Println("bench gate OK: all baselines within tolerance")
		return 0
	}

	var names []string
	found := false
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
		if exp != "all" && exp != e.Name {
			continue
		}
		found = true
		start := time.Now()
		fmt.Printf("==== %s ====\n", e.Name)
		doc, err := e.Run(quick)
		if err != nil {
			return fail(err)
		}
		fmt.Print(e.Table(doc))
		if e.Baseline != "" {
			out, err := json.MarshalIndent(doc, "", "  ")
			if err == nil {
				err = os.WriteFile(e.Baseline, out, 0o644)
			}
			if err != nil {
				return fail(err)
			}
			fmt.Printf("wrote %s\n", e.Baseline)
		}
		fmt.Printf("(%s completed in %s)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s, all)\n", exp, strings.Join(names, " "))
		return 2
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
