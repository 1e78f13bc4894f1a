package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"synapse"
)

// smallPopulation keeps the fabric tests fast; the op mix and every code
// path are those of a full run.
var smallPopulation = population{posts: 128, comments: 400}

// smokeRun is a 2,000-message run of a workload: small population, one
// set-up, short deadlines.
func smokeRun(spec workloadSpec, tr *tracer, log io.Writer) *run {
	r := newRun(spec, 7, 1, 1, tr, log)
	r.pop = smallPopulation
	r.sizes = sizes{warm: 300, paced: 400, seg: 100}
	r.limits = limits{setup: 20 * time.Second, drain: 20 * time.Second, stall: 10 * time.Second, total: 60 * time.Second}
	return r
}

func TestSameSeedSameStream(t *testing.T) {
	stream := func(seed int64) string {
		g := newGenerator(seed, false, fullPopulation)
		g.preload()
		g.stream(20_000)
		return g.fingerprint()
	}
	if a, b := stream(42), stream(42); a != b {
		t.Errorf("same seed gave fingerprints %s and %s", a, b)
	}
	if a, b := stream(42), stream(43); a == b {
		t.Errorf("seeds 42 and 43 gave the same fingerprint %s", a)
	}
}

func TestPopulationStaysBounded(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		g := newGenerator(3, zipf, fullPopulation)
		g.preload()
		size := g.population()
		lo, hi := size, size
		for i := 0; i < 100; i++ {
			g.stream(1000)
			lo, hi = min(lo, g.population()), max(hi, g.population())
		}
		if float64(lo) < 0.99*float64(size) || float64(hi) > 1.01*float64(size) {
			t.Errorf("zipf=%v: population wandered to [%d, %d] from %d over 100k ops", zipf, lo, hi, size)
		}
	}
}

func TestOpMix(t *testing.T) {
	g := newGenerator(5, false, fullPopulation)
	g.preload()
	counts := map[opKind]int{}
	for _, o := range g.stream(100_000) {
		counts[o.kind]++
	}
	for kind, want := range map[opKind]float64{opUpdatePost: 0.4, opCreateComment: 0.3, opDestroyComment: 0.3} {
		if got := float64(counts[kind]) / 100_000; math.Abs(got-want) > 0.01 {
			t.Errorf("op kind %d is %.3f of the stream, want %.2f", kind, got, want)
		}
	}
}

// Every workload, 2,000 messages: no operation fails and the report
// carries exactly the end-to-end metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			var log bytes.Buffer
			res := smokeRun(spec, nil, &log).execute()
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d\n%s", res.attempted, res.failed, log.String())
			}
			if len(res.endToEnd) != len(endToEndMetrics) {
				t.Errorf("run measured %d end-to-end metrics, %d declared", len(res.endToEnd), len(endToEndMetrics))
			}
			for _, m := range endToEndMetrics {
				if v, ok := res.endToEnd[m.name]; !ok || v <= 0 || m.unit == "" {
					t.Errorf("%s = %v (present %v, unit %q)", m.name, v, ok, m.unit)
				}
			}
		})
	}
}

// A traced run reports exactly the declared per-layer metrics, writes the
// span file, and leaves the publisher on the path it takes untraced: the
// same version-store round trips and engine writes per message (a proxy
// that hid orm.Transactional or orm.TxJournaler would move PostgreSQL
// onto journalDirect and change both).
func TestTracedRunMatchesUntraced(t *testing.T) {
	spec, _ := findWorkload("social_causal")
	var log bytes.Buffer
	plain := smokeRun(spec, nil, &log)
	plain.execute()
	tr := newTracer()
	traced := smokeRun(spec, tr, &log)
	res := traced.execute()
	if res.failed != 0 {
		t.Fatalf("traced run failed %d operations\n%s", res.failed, log.String())
	}
	for _, probe := range []struct {
		name string
		of   func(r *run) float64
	}{
		{"publisher vstore round trips", func(r *run) float64 { return float64(r.fab.pub.Stats().VStoreRoundTrips) }},
		{"publisher engine writes", func(r *run) float64 { _, w, _ := r.fab.pub.Mapper().Stats().Snapshot(); return float64(w) }},
		{"publisher engine reads", func(r *run) float64 { rd, _, x := r.fab.pub.Mapper().Stats().Snapshot(); return float64(rd + x) }},
		{"journal rows left", func(r *run) float64 { return float64(r.fab.pub.Stats().JournalDepth) }},
	} {
		if a, b := probe.of(plain), probe.of(traced); a != b {
			t.Errorf("%s: %v untraced, %v traced", probe.name, a, b)
		}
	}
	if n, _ := tr.total(func(a *agg) bool { return a.name == "core.journal.write" }); n == 0 {
		t.Error("the traced publisher staged no journal row through the proxy")
	}
	if n, _ := tr.total(func(a *agg) bool { return a.name == "orm.activerecord.tx_commit" }); n == 0 {
		t.Error("the traced publisher committed no transaction through the proxy")
	}
}

func TestTracedReportNames(t *testing.T) {
	spec, _ := findWorkload("fanout_hetero")
	dir := t.TempDir()
	var log bytes.Buffer
	rep := tracedReport(spec, 7, dir, false, &log,
		func(tr *tracer) *run { return smokeRun(spec, tr, &log) })
	if !rep.Correct {
		t.Fatalf("traced smoke failed %d of %d\n%s", rep.Failed, rep.Attempted, log.String())
	}
	var got, want []string
	for name, v := range rep.Metrics {
		got = append(got, name)
		if v.Unit == "" {
			t.Errorf("%s has no unit", name)
		}
	}
	for _, m := range perLayerMetrics {
		want = append(want, m.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("traced report names differ from the declared per-layer metrics\n got %v\nwant %v", got, want)
	}
	for _, name := range []string{"core.publish.write_ns", "core.subscribe.process_ns", "orm.graphorm.save_ns",
		"orm.searchorm.inrun_save_us", "wire.unmarshal_ns", "broker.publish_fanout5_ns", "ledger.layer_sum_us"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, rep.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-fanout_hetero.json")); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// The oracle must trip on a corrupted subscriber row, a missing one and
// an extra one.
func TestOracleTrips(t *testing.T) {
	spec, _ := findWorkload("social_causal")
	var log bytes.Buffer
	r := smokeRun(spec, nil, &log)
	r.execute() // leaves the fabric's databases in place, workers stopped
	if r.checkConvergence() != 0 {
		t.Fatalf("healthy run does not converge\n%s", log.String())
	}
	sub := r.fab.subs[0].app.Mapper()
	bad := synapse.NewRecord("Post", "p0001")
	bad.Set("body", "corrupted")
	if err := sub.Save(bad); err != nil {
		t.Fatal(err)
	}
	if n := r.checkConvergence(); n != 1 {
		t.Errorf("corrupted row: oracle counted %d mismatches, want 1", n)
	}
	if err := sub.Delete("Post", "p0002"); err != nil {
		t.Fatal(err)
	}
	extra := synapse.NewRecord("Comment", "c9999999")
	extra.Set("post_id", "p0001")
	extra.Set("body", "never published")
	if err := sub.Save(extra); err != nil {
		t.Fatal(err)
	}
	if n := r.checkConvergence(); n < 3 {
		t.Errorf("corrupted + missing + extra: oracle counted %d mismatches, want at least 3", n)
	}
}

// A subscriber that stops applying mid-run must cost failed operations
// within the deadline, not a hang.
func TestWedgeFailsWithinDeadline(t *testing.T) {
	spec, _ := findWorkload("social_causal")
	var log bytes.Buffer
	r := smokeRun(spec, nil, &log)
	r.sizes = sizes{warm: 300, paced: 400, seg: 400} // enough to fill the window
	r.limits = limits{setup: 10 * time.Second, drain: time.Second, stall: time.Second, total: 20 * time.Second}
	r.afterSetup = func() { r.fab.stop() }
	done := make(chan result, 1)
	go func() { done <- r.execute() }()
	select {
	case res := <-done:
		if res.failed == 0 {
			t.Errorf("stopped workers, yet no operation failed (attempted %d)", res.attempted)
		}
		if !strings.Contains(log.String(), "pending=") {
			t.Errorf("no diagnostics dumped:\n%s", log.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run still going 30 s after its subscriber stopped")
	}
}

func TestDeclarationMatchesTables(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, describeBenchmark()) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with: go run . --describe > ../BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
	if len(perLayerMetrics) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayerMetrics))
	}
	// The limits the benchmark contract puts on the declaration.
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for name := range seen {
		if !nameOK.MatchString(name) {
			t.Errorf("metric name %q is outside the contract", name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !unitOK.MatchString(m.unit) {
			t.Errorf("%s: unit %q is outside the contract", m.name, m.unit)
		}
	}
	for _, m := range endToEndMetrics {
		if m.bound <= 0 || m.bound > endToEndMetrics[0].bound || endToEndMetrics[0].bound > 0.25 {
			t.Errorf("%s: bound %v (set-up must have the largest, at most 0.25)", m.name, m.bound)
		}
	}
	for _, w := range workloads {
		if !nameOK.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: name or reason (%d characters) is outside the contract", w.name, len(w.why))
		}
	}
}

// Only layers.go and proxy.go may reach into internal/, and nothing may
// import the packages ROADMAP item 4 will rewrite.
func TestImportRule(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "synapse/internal/bench" || path == "synapse/internal/workload" {
				t.Errorf("%s imports %s", file, path)
			}
			if strings.HasPrefix(path, "synapse/internal/") && file != "layers.go" && file != "proxy.go" {
				t.Errorf("%s imports %s; only layers.go and proxy.go may import internal packages", file, path)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestWindowQuantileIgnoresDisturbedWindows(t *testing.T) {
	var s []sample
	for w := 0; w < 10; w++ {
		for i := 0; i < 100; i++ {
			v := int64(100 + i%10)
			if w < 3 {
				v *= 8 // three disturbed windows out of ten
			}
			s = append(s, sample{due: int64(w)*int64(time.Second) + int64(i), val: v})
		}
	}
	if got := windowQuantile(s, time.Second, 0.5, 20); got > 110 {
		t.Errorf("median of window medians = %v, want the undisturbed ~104", got)
	}
}
