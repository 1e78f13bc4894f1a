// Command benchmark is the repository's benchmark: four replication
// workloads driven through the public synapse facade, eight end-to-end
// metrics per workload, a correctness oracle inside every run, and — in
// a separate traced run — a per-layer cost ledger. See README.md.
//
//	go run . --workload social_causal --seed 1 --seconds 20 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Without --workload every
// workload runs in turn; --check n runs two interleaved sets of n runs of
// each workload and compares their medians with the declared bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// defaultSeconds is the measuring time one run is sized for (run_seconds
// in BENCHMARK.json).
const defaultSeconds = 20

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result object.
type report struct {
	Workload  string                 `json:"workload,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring time the run is sized for")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		check    = flag.Int("check", 0, "run two interleaved sets of n runs per workload and compare their medians with the bounds")
		outDir   = flag.String("out", "benchmark/out", "directory the traced run writes trace-<workload>.json to")
		verbose  = flag.Bool("v", false, "print per-segment and harness-side figures to stderr")
		describe = flag.Bool("describe", false, "print the BENCHMARK.json that declares this benchmark and exit")
	)
	flag.Parse()
	if *describe {
		os.Stdout.Write(describeBenchmark())
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be between 1 and 60")
		os.Exit(2)
	}
	specs := workloads
	if *workload != "" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		specs = []workloadSpec{spec}
	}
	if *check > 0 {
		os.Exit(runCheck(specs, *check, *seed, *seconds))
	}
	ok := true
	for _, spec := range specs {
		rep := runOne(spec, *seed, *seconds, *trace != 0, *outDir, *verbose, os.Stderr)
		if *workload == "" {
			rep.Workload = spec.name
			printHuman(os.Stderr, rep)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne executes one workload once and shapes the contract's report:
// the end-to-end metrics of an untraced run, or the per-layer metrics of
// a traced one.
func runOne(spec workloadSpec, seed int64, seconds float64, traced bool, outDir string, verbose bool, log io.Writer) report {
	if traced {
		return runTraced(spec, seed, seconds, outDir, verbose, log)
	}
	res := newRun(spec, seed, seconds, setupRepeats, nil, log).execute()
	if verbose {
		printVerbose(log, spec, res)
	}
	rep := report{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range endToEndMetrics {
		rep.Metrics[m.name] = metricValue{Value: res.endToEnd[m.name], Unit: m.unit}
	}
	return rep
}

func printVerbose(w io.Writer, spec workloadSpec, res result) {
	fmt.Fprintf(w, "%s: fingerprint=%s attempted=%d failed=%d\n", spec.name, res.fingerprint, res.attempted, res.failed)
	for _, row := range []struct {
		name string
		vals []float64
	}{
		{"set-ups raw s", res.setupRaw},
		{"set-ups factor", res.setupFactor},
		{"segments raw msgs/s", res.segments},
		{"segments raw cpu us", res.segCPU},
		{"segments factor", res.segFactor},
	} {
		fmt.Fprintf(w, "  %s:", row.name)
		for _, v := range row.vals {
			fmt.Fprintf(w, " %.4f", v)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(res.harness))
	for n := range res.harness {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %.4f\n", n, res.harness[n])
	}
}

func printHuman(w io.Writer, rep report) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", rep.Workload, rep.Correct, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

// describeBenchmark renders BENCHMARK.json from the tables this program
// reports from, so the declaration cannot drift from the code (a test
// compares the committed file with this output).
func describeBenchmark() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
