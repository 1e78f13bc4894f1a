package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func experiment(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q in the table", name)
	return Experiment{}
}

// baseline reads an experiment's committed BENCH_*.json.
func baseline(t *testing.T, e Experiment) []byte {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", e.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// perturbed decodes the committed baseline into the experiment's own
// document type, applies the injected regression, and re-encodes it as
// the "fresh" run.
func perturbed[D any](name string, perturb func(*D)) func(t *testing.T) (Experiment, []byte) {
	return func(t *testing.T) (Experiment, []byte) {
		e := experiment(t, name)
		var doc D
		if err := json.Unmarshal(baseline(t, e), &doc); err != nil {
			t.Fatal(err)
		}
		perturb(&doc)
		fresh, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return e, fresh
	}
}

// TestGatePerturbations proves every rule trips on its injected
// regression, with the committed baselines as both sides otherwise, and
// that tolerated jitter passes.
func TestGatePerturbations(t *testing.T) {
	tailAnchor := func(d *TailDoc) *TailPoint {
		for i := range d.Points {
			if d.Points[i].Rate == 1000 {
				return &d.Points[i]
			}
		}
		t.Fatal("BENCH_tail.json has no 1000 ops/s point")
		return nil
	}
	cases := []struct {
		name   string
		fresh  func(t *testing.T) (Experiment, []byte)
		passes bool
	}{
		{"fig13 batched +1 round trip", perturbed("fig13rt", func(d *Fig13RTDoc) { d.Points[0].Batched.TotalRT++ }), false},
		{"fig13 half a round trip under a stale baseline", perturbed("fig13rt", func(d *Fig13RTDoc) { d.Points[0].Batched.TotalRT -= 0.5 }), false},
		{"fig13 one coalesced window (a tenth low)", perturbed("fig13rt", func(d *Fig13RTDoc) { d.Points[0].Batched.TotalRT -= 0.1 }), true},
		{"tail p99 10x collapse at the anchor rate", perturbed("tail", func(d *TailDoc) { tailAnchor(d).P99Ms *= 10 }), false},
		{"tail delivered capacity 1.5x the serial ceiling", perturbed("tail", func(d *TailDoc) { d.DeliveredCapacity = 1.5 * d.SerialCapacity }), false},
		{"tail delivered capacity 0.3x collapse", perturbed("tail", func(d *TailDoc) { d.DeliveredCapacity *= 0.3 }), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, fresh := c.fresh(t)
			v := e.Check(baseline(t, e), fresh)
			if passed := len(v.Breaches) == 0; passed != c.passes {
				t.Errorf("gate passed = %v, want %v (breaches: %q)", passed, c.passes, v.Breaches)
			}
		})
	}
}

// TestGateBaselinesPass: the committed baselines pass their own gate.
func TestGateBaselinesPass(t *testing.T) {
	for _, e := range Experiments {
		if e.Gate == nil {
			continue
		}
		base := baseline(t, e)
		if v := e.Check(base, base); len(v.Breaches)+len(v.Skips) > 0 {
			t.Errorf("%s: committed baseline fails its own gate: %+v", e.Name, v)
		}
	}
}

// TestGateMissingFieldBreaches: removing any field a rule reads, from
// either side, is a breach — never a skipped rule.
func TestGateMissingFieldBreaches(t *testing.T) {
	for _, e := range Experiments {
		if e.Gate == nil {
			continue
		}
		if len(e.Reads) == 0 {
			t.Errorf("%s is gated but declares no fields", e.Name)
		}
		base := baseline(t, e)
		for _, path := range e.Reads {
			var root any
			if err := json.Unmarshal(base, &root); err != nil {
				t.Fatal(err)
			}
			if !remove(root, strings.Split(path, ".")) {
				t.Errorf("%s: committed baseline has no field %s", e.Name, path)
				continue
			}
			cut, err := json.Marshal(root)
			if err != nil {
				t.Fatal(err)
			}
			if v := e.Check(cut, base); len(v.Breaches) == 0 {
				t.Errorf("%s: baseline without %s passed the gate", e.Name, path)
			}
			if v := e.Check(base, cut); len(v.Breaches) == 0 {
				t.Errorf("%s: fresh document without %s passed the gate", e.Name, path)
			}
		}
	}
}

// remove deletes the field at path (in the first element of each "[]"
// array) and reports whether it was there.
func remove(v any, path []string) bool {
	name, each := strings.CutSuffix(path[0], "[]")
	obj, _ := v.(map[string]any)
	child, ok := obj[name]
	switch {
	case !ok:
		return false
	case each:
		elems, _ := child.([]any)
		return len(elems) > 0 && remove(elems[0], path[1:])
	case len(path) == 1:
		delete(obj, name)
		return true
	}
	return remove(child, path[1:])
}

// TestGateSkipsUnknownDeps: a deps value the baseline sweep lacks is the
// one legitimate skip, and is reported as one.
func TestGateSkipsUnknownDeps(t *testing.T) {
	e, fresh := perturbed("fig13rt", func(d *Fig13RTDoc) { d.Points[0].Deps = 3 })(t)
	if v := e.Check(baseline(t, e), fresh); len(v.Breaches) != 0 || len(v.Skips) != 1 {
		t.Errorf("verdict = %+v, want no breach and one skip", v)
	}
}

// TestDocumentedExperimentsExist: every `-exp NAME` the docs, the
// Makefile, the scripts and the workflow mention is in the table.
func TestDocumentedExperimentsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", ".github/workflows/ci.yml"}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no scripts found: %v", err)
	}
	known := map[string]bool{"all": true}
	for _, e := range Experiments {
		known[e.Name] = true
	}
	// The docs' placeholders for "any experiment" (<name>, $*) do not
	// match; NAME does and is let through.
	mention := regexp.MustCompile("-exp[ =]+([A-Za-z0-9_-]+)")
	for _, file := range files {
		scripts = append(scripts, filepath.Join(root, file))
	}
	for _, path := range scripts {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllStringSubmatch(string(text), -1) {
			if name := m[1]; !known[name] && name != "NAME" {
				t.Errorf("%s mentions -exp %s, which is not an experiment", path, name)
			}
		}
	}
}
