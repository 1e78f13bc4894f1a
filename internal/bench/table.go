package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Experiment is one §6 run: what it executes, how its result prints,
// and — when the result is a committed BENCH_*.json document — the rule
// that gates a fresh run against that baseline.
type Experiment struct {
	Name string
	// Run executes the experiment (quick shrinks the sweep) and returns
	// its document: the typed value that json.MarshalIndent turns into
	// the Baseline file.
	Run func(quick bool) (doc any, err error)
	// Table renders the document as the paper-style table.
	Table func(doc any) string
	// Baseline is the committed document's file name ("" = none).
	Baseline string
	// Reads lists every field the Gate rule reads, as dotted JSON paths
	// ("points[].deps" descends into each element). A path absent from
	// either document is a breach: a renamed field cannot disable a rule.
	Reads []string
	// Gate compares a fresh document with the committed baseline, both
	// as JSON (nil = ungated).
	Gate func(base, fresh []byte) Verdict
}

// Experiments is every experiment synapse-bench knows, in `-exp all`
// order.
var Experiments = []Experiment{
	{Name: "table1", Run: static(table1()), Table: text},
	{Name: "table3", Run: run(RunTable3), Table: table(FormatTable3)},
	{Name: "fig8", Run: static(fig8), Table: text},
	{Name: "fig9a", Run: run(RunFig9a), Table: timeline(fig9aHeader)},
	{Name: "fig9b", Run: run(RunFig9b), Table: timeline(fig9bHeader)},
	{Name: "fig12a", Run: sweep(fig12Config, RunFig12a), Table: table(Fig12aResult.Format)},
	{Name: "fig12b", Run: sweep(fig12Config, RunFig12b), Table: table(FormatFig12b)},
	{Name: "fig13a", Run: sweep(fig13aConfig, RunFig13a), Table: table(FormatFig13a)},
	{Name: "fig13b", Run: sweep(fig13bConfig, RunFig13b), Table: table(FormatFig13b)},
	{Name: "fig13c", Run: sweep(fig13cConfig, RunFig13c), Table: table(FormatFig13c)},
	{Name: "fig13rt", Run: sweep(fig13RTConfig, RunFig13RT), Table: table(FormatFig13RT),
		Baseline: "BENCH_fig13.json", Gate: gate(gateFig13RT),
		Reads: []string{"points[].deps", "points[].batched.total_rt_per_msg"}},
	{Name: "lostmsg", Run: sweep(lostMsgConfig, RunLostMsgSweep), Table: table(FormatLostMsg)},
	{Name: "tail", Run: sweep(tailConfig, RunTail), Table: table(FormatTail),
		Baseline: "BENCH_tail.json", Gate: gate(gateTail),
		Reads: []string{"points[].rate_ops_per_sec", "points[].p99_ms", "serial_capacity_msgs_per_sec", "delivered_capacity_msgs_per_sec"}},
}

// The adapters below put typed experiment functions into the table:
// sweep is "default config → quick overrides → run", run and static are
// for experiments with nothing to configure, table and gate assert the
// document back to its type.

func sweep[C, D any](config func(quick bool) C, f func(C) (D, error)) func(bool) (any, error) {
	return func(quick bool) (any, error) { return f(config(quick)) }
}

func run[D any](f func() (D, error)) func(bool) (any, error) {
	return func(bool) (any, error) { return f() }
}

func static(s string) func(bool) (any, error) {
	return func(bool) (any, error) { return s, nil }
}

func table[D any](f func(D) string) func(any) string {
	return func(doc any) string { return f(doc.(D)) }
}

func text(doc any) string { return doc.(string) }

func gate[D any](rule func(base, fresh D, v *Verdict)) func(base, fresh []byte) Verdict {
	return func(base, fresh []byte) (v Verdict) {
		var b, f D
		if err := json.Unmarshal(base, &b); err != nil {
			v.breachf("baseline does not decode: %v", err)
		} else if err := json.Unmarshal(fresh, &f); err != nil {
			v.breachf("fresh document does not decode: %v", err)
		} else {
			rule(b, f, &v)
		}
		return v
	}
}

// Verdict is what a gate found: breaches fail it; skips are comparisons
// it could not make, printed and passed.
type Verdict struct{ Breaches, Skips []string }

func (v *Verdict) breachf(format string, args ...any) {
	v.Breaches = append(v.Breaches, fmt.Sprintf(format, args...))
}

func (v *Verdict) skipf(format string, args ...any) {
	v.Skips = append(v.Skips, fmt.Sprintf(format, args...))
}

// Check gates a fresh document against a baseline: first that every
// field the rule reads is present in both (on the decoded JSON keys, not
// a zero-value guess), then the rule itself.
func (e Experiment) Check(base, fresh []byte) Verdict {
	var v Verdict
	for _, side := range []struct {
		name string
		doc  []byte
	}{{"baseline", base}, {"fresh document", fresh}} {
		var root any
		if err := json.Unmarshal(side.doc, &root); err != nil {
			v.breachf("%s is not JSON: %v", side.name, err)
			continue
		}
		for _, path := range e.Reads {
			if !present(root, strings.Split(path, ".")) {
				v.breachf("field %s is absent from the %s", path, side.name)
			}
		}
	}
	if len(v.Breaches) > 0 {
		return v
	}
	return e.Gate(base, fresh)
}

// present reports whether the decoded JSON value has a non-null value at
// the path; a "name[]" element must hold in every element of the array.
func present(v any, path []string) bool {
	if len(path) == 0 {
		return v != nil
	}
	name, each := strings.CutSuffix(path[0], "[]")
	obj, _ := v.(map[string]any)
	child, ok := obj[name]
	if !ok || !each {
		return ok && present(child, path[1:])
	}
	elems, ok := child.([]any)
	for _, el := range elems {
		ok = ok && present(el, path[1:])
	}
	return ok
}

// RunGate quick-runs every gated experiment in memory and checks each
// fresh document against the committed baseline under dir. It writes no
// file. It returns the number of breaches; err is a run that failed or a
// baseline that could not be read.
func RunGate(w io.Writer, dir string) (breaches int, err error) {
	for _, e := range Experiments {
		if e.Gate == nil {
			continue
		}
		base, err := os.ReadFile(filepath.Join(dir, e.Baseline))
		if err != nil {
			return breaches, err
		}
		fmt.Fprintf(w, "==== %s (quick) vs %s ====\n", e.Name, e.Baseline)
		doc, err := e.Run(true)
		if err != nil {
			return breaches, fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprint(w, e.Table(doc))
		fresh, err := json.Marshal(doc)
		if err != nil {
			return breaches, fmt.Errorf("%s: %w", e.Name, err)
		}
		v := e.Check(base, fresh)
		for _, s := range v.Skips {
			fmt.Fprintf(w, "skip: %s: %s\n", e.Name, s)
		}
		for _, b := range v.Breaches {
			fmt.Fprintf(w, "BREACH: %s: %s\n", e.Name, b)
		}
		breaches += len(v.Breaches)
	}
	return breaches, nil
}
