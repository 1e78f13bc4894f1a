package bench

import (
	"strings"
	"testing"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/storage"
)

func TestNewMapperAllEngines(t *testing.T) {
	for _, e := range engines {
		m := NewMapper(e.name, storage.Profile{})
		if m == nil {
			t.Fatalf("NewMapper(%s) = nil", e.name)
		}
		if m.Engine() != e.name {
			t.Errorf("engine %s reports %s", e.name, m.Engine())
		}
	}
	if NewMapper(Ephemeral, storage.Profile{}) != nil {
		t.Error("ephemeral mapper should be nil")
	}
}

func TestEngineParametersSane(t *testing.T) {
	for _, e := range engines {
		if engineProfile(e.name).WriteLatency <= 0 {
			t.Errorf("%s has no write latency", e.name)
		}
		if engineProfile(e.name).MaxWriteRate <= 0 {
			t.Errorf("%s has no rate cap", e.name)
		}
	}
	if engineProfile(Ephemeral) != (storage.Profile{}) {
		t.Error("ephemeral should be unconstrained")
	}
}

func TestFig13aSmall(t *testing.T) {
	points, _ := RunFig13a(Fig13aConfig{
		Engines: []string{PostgreSQL, MySQL, Ephemeral},
		Deps:    []int{1, 10, 100},
		Samples: 3,
	})
	if len(points) != 9 {
		t.Fatalf("points = %d", len(points))
	}
	// Overhead grows with dependency count for every engine.
	byEngine := map[string][]Fig13aPoint{}
	for _, p := range points {
		byEngine[p.Engine] = append(byEngine[p.Engine], p)
	}
	for engine, series := range byEngine {
		if series[2].Overhead <= series[0].Overhead {
			t.Errorf("%s: overhead at 100 deps (%v) not above 1 dep (%v)",
				engine, series[2].Overhead, series[0].Overhead)
		}
	}
	out := FormatFig13a(points)
	if !strings.Contains(out, "postgresql") || !strings.Contains(out, "deps") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestFig13bSmall(t *testing.T) {
	points, _ := RunFig13b(Fig13bConfig{
		Pairs:    []EnginePair{{Ephemeral, Ephemeral}, {MongoDB, RethinkDB}},
		Workers:  []int{1, 8},
		Duration: 150 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
	})
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Errorf("%s @%d workers: zero throughput", p.Pair, p.Workers)
		}
	}
	// More workers should help (generously allowing noise).
	if points[1].Throughput < points[0].Throughput*1.2 {
		t.Logf("warning: 8 workers (%f) not faster than 1 (%f)", points[1].Throughput, points[0].Throughput)
	}
	out := FormatFig13b(points)
	if !strings.Contains(out, "ephemeral -> ephemeral") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestFig13cSmall(t *testing.T) {
	points, _ := RunFig13c(Fig13cConfig{
		Workers:  []int{1, 16},
		Callback: 5 * time.Millisecond,
		Duration: 300 * time.Millisecond,
	})
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	rate := map[string]float64{}
	for _, p := range points {
		key := p.Mode.String()
		if p.Workers == 16 {
			rate[key] = p.Throughput
		}
	}
	// At 16 workers: weak and causal must scale; global must not.
	if rate["weak"] < 3*rate["global"] {
		t.Errorf("weak (%f) should dwarf global (%f) at 16 workers", rate["weak"], rate["global"])
	}
	if rate["causal"] < 2*rate["global"] {
		t.Errorf("causal (%f) should beat global (%f) at 16 workers", rate["causal"], rate["global"])
	}
}

func TestFig12aSmall(t *testing.T) {
	res, _ := RunFig12a(Fig12Config{Calls: 120, TimeScale: 0.01})
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.CtrlTimeMean <= 0 {
			t.Errorf("%s: zero controller time", row.Controller)
		}
		// Read-only controllers must show (near-)zero Synapse time.
		if row.Controller == "me/show" && row.SynTimeMean > time.Millisecond {
			t.Errorf("read-only controller overhead = %v", row.SynTimeMean)
		}
	}
	out := res.Format()
	if !strings.Contains(out, "actions/update") || !strings.Contains(out, "mean=") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestFig12bSmall(t *testing.T) {
	rows, _ := RunFig12b(Fig12Config{TimeScale: 0.01})
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Read-only controllers show near-zero overhead; write
		// controllers show some.
		readOnly := strings.Contains(r.Controller, "index") && r.Controller != "actions/index"
		if readOnly && r.OverheadPct > 5 {
			t.Errorf("%s/%s read-only overhead = %.1f%%", r.App, r.Controller, r.OverheadPct)
		}
	}
	out := FormatFig12b(rows)
	if !strings.Contains(out, "diaspora") {
		t.Errorf("format output:\n%s", out)
	}
}

// TestFig9aTimeline: every subscriber of the ecosystem records its
// receipt, the mailer emails, and the analyzer's decoration is published
// after the post it was extracted from.
func TestFig9aTimeline(t *testing.T) {
	tl, err := RunFig9a()
	if err != nil {
		t.Fatal(err)
	}
	sub := map[string]bool{}
	var postAt, decoAt time.Duration
	var sawMail bool
	for _, e := range tl.Events() {
		switch {
		case e.Phase == "synapse-sub":
			sub[e.Actor] = true
		case e.Actor == "diaspora" && e.Phase == "synapse-pub" && strings.Contains(e.Label, "Post/"):
			postAt = e.At
		case e.Actor == "analyzer" && e.Phase == "synapse-pub":
			decoAt = e.At
		case e.Actor == "mailer" && strings.Contains(e.Label, "emailed"):
			sawMail = true
		}
	}
	for _, actor := range []string{"diaspora", "analyzer", "spree", "mailer"} {
		if !sub[actor] {
			t.Errorf("no synapse-sub row for %s", actor)
		}
	}
	if postAt == 0 || decoAt == 0 || decoAt < postAt {
		t.Errorf("post published at %v, decoration at %v: want both, post first", postAt, decoAt)
	}
	if !sawMail {
		t.Error("the mailer emailed nobody")
	}
	if t.Failed() {
		t.Logf("timeline:\n%s", tl)
	}
}

func TestTimelineOrderingAndFormat(t *testing.T) {
	tl := &Timeline{origin: time.Now()}
	tl.Record("Diaspora", "app", "post created")
	tl.Record("Mailer", "synapse-sub", "received post")
	events := tl.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].At > events[1].At {
		t.Error("events out of order")
	}
	s := tl.String()
	if !strings.Contains(s, "Diaspora") || !strings.Contains(s, "synapse-sub") {
		t.Errorf("String() = %q", s)
	}
}

func TestFig9bTimelinePerUserSerial(t *testing.T) {
	tl, err := RunFig9b()
	if err != nil {
		t.Fatal(err)
	}
	// Each user's emails must appear in post order.
	var user1, user2 []int
	for i, e := range tl.Events() {
		if e.Actor != "mailer" || !strings.Contains(e.Label, "emailed") {
			continue
		}
		switch {
		case strings.Contains(e.Label, "u1-post"):
			user1 = append(user1, i)
		case strings.Contains(e.Label, "u2-post"):
			user2 = append(user2, i)
		}
	}
	if len(user1) != 2 || len(user2) != 2 {
		t.Fatalf("emails per user = %d/%d\n%s", len(user1), len(user2), tl.String())
	}
	// Ordering within each user is guaranteed by causality; the labels
	// carry post numbers so verify them.
	check := func(events []int, user string) {
		var labels []string
		for _, idx := range events {
			labels = append(labels, tl.Events()[idx].Label)
		}
		if !strings.Contains(labels[0], "post1") || !strings.Contains(labels[1], "post2") {
			t.Errorf("user %s emails out of order: %v", user, labels)
		}
	}
	check(user1, "1")
	check(user2, "2")
}

func TestLostMsgTimeoutRecovers(t *testing.T) {
	res := RunLostMsg(LostMsgConfig{Messages: 150, LossEvery: 25, DepTimeout: 15 * time.Millisecond})
	if res.Lost == 0 {
		t.Fatal("no messages were lost")
	}
	if !res.Converged {
		t.Fatal("subscriber with finite timeout did not converge")
	}
}

func TestWeakNoStaleWriteLast(t *testing.T) {
	// Hammer one object with updates under a parallel weak pool: the
	// final mapper value must be the newest version. Without the apply
	// locks (claim and DB write atomic per object), a worker preempted
	// between winning a version claim and persisting the row writes
	// stale data last — a divergence no later message repairs.
	for round := 0; round < 10; round++ {
		p := pair(pairSpec{Pub: core.Config{Mode: core.Causal}, Models: itemModel("v", model.Int), Mode: core.Weak})
		pub, sub := p.pub, p.sub
		sub.StartWorkers(8)

		ctl := pub.NewController(nil)
		rec := model.NewRecord("Item", "obj")
		rec.Set("v", 0)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
		const updates = 200
		for i := 1; i <= updates; i++ {
			patch := model.NewRecord("Item", "obj")
			patch.Set("v", i)
			if _, err := ctl.Update(patch); err != nil {
				t.Fatal(err)
			}
		}

		deadline := time.Now().Add(5 * time.Second)
		converged := false
		for time.Now().Before(deadline) {
			got, err := sub.Mapper().Find("Item", "obj")
			if err == nil && got.Int("v") == updates {
				converged = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		sub.StopWorkers()
		if !converged {
			got, _ := sub.Mapper().Find("Item", "obj")
			t.Fatalf("round %d: stale write last: sub=%v want=%d (queue=%d unacked=%d)",
				round, got, updates, sub.Queue().Len(), sub.Queue().Unacked())
		}
	}
}

func TestLostMsgDecommissionRecovers(t *testing.T) {
	// LossEvery must leave more than QueueMaxLen messages after the last
	// loss (here: losses at delivery 41/82/123 of 160, 37 trailing): a
	// message lost at the very tail of the stream has nothing queued
	// behind it, so the overflow decommission this test exercises could
	// never trigger and the loss would be unrecoverable by design (§6.5
	// — pure causal mode heals only through decommission+rebootstrap).
	res := RunLostMsg(LostMsgConfig{Messages: 150, LossEvery: 41, DepTimeout: core.WaitForever, QueueMaxLen: 30})
	if !res.Converged {
		t.Fatalf("decommission+rebootstrap did not converge: lost=%d, %d still parked: %q", res.Lost, len(res.Parked), res.Parked)
	}
}

func TestTable3Counts(t *testing.T) {
	rows, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.ORMLoC <= 0 || (r.DBLoC <= 0) != (i == 0) { // row 0 is the shared core: no engine
			t.Errorf("%s: LoC = %d/%d", r.DB, r.ORMLoC, r.DBLoC)
		}
		if i > 0 && r.ORMLoC >= rows[0].ORMLoC {
			t.Errorf("%s: adapter (%d lines) is no smaller than the shared core (%d)", r.ORM, r.ORMLoC, rows[0].ORMLoC)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Cassandra") {
		t.Errorf("format output:\n%s", out)
	}
	if s := table1(); !strings.Contains(s, "Graph") {
		t.Errorf("table1 output:\n%s", s)
	}
}
