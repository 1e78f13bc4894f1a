package core

import (
	"fmt"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/wire"
)

// TestBootstrapMessageProcessingDeterministic drives the bootstrapping
// message path directly: messages arriving while the Bootstrap?
// predicate is true are applied with weak semantics and counted only
// past the snapshot watermark.
func TestBootstrapMessageProcessingDeterministic(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	msgs := tap(t, f, "pub")

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	drainQueue(t, sub)

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "v0")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	patch := model.NewRecord("User", "u1")
	patch.Set("name", "v1")
	if _, err := ctl.Update(patch); err != nil {
		t.Fatal(err)
	}
	got := msgs()

	// Simulate "still bootstrapping": set the predicate and a snapshot
	// watermark equal to the first message's seq.
	sub.bootDepth.Add(1)
	sub.setBootSeq("pub", got[0].Seq)
	if !sub.Bootstrapping() {
		t.Fatal("predicate not set")
	}

	// Deliver newest first: weak semantics keep the newer state.
	if err := sub.ProcessMessage(got[1]); err != nil {
		t.Fatal(err)
	}
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	u, err := subMapper.Find("User", "u1")
	if err != nil || u.String("name") != "v1" {
		t.Fatalf("bootstrap-mode state = %+v, %v", u, err)
	}

	// Counter accounting: the message at the watermark must not have
	// incremented counters; the one past it must have.
	k := sub.objectKey(&got[0].Operations[0])
	if ops := sub.Store().Ops(k); ops != 1 {
		t.Errorf("ops = %d, want 1 (only the post-watermark message counted)", ops)
	}
	sub.bootDepth.Add(-1)
}

func TestControllerTxnUpdateAndDestroy(t *testing.T) {
	f := NewFabric()
	pub, _ := newSQLApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name", "likes")
	ctl := pub.NewController(nil)
	for _, id := range []string{"a", "b"} {
		rec := model.NewRecord("User", id)
		rec.Set("name", id)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	msgs := tap(t, f, "pub")
	err := ctl.Transaction(func(tx *Txn) error {
		patch := model.NewRecord("User", "a")
		patch.Set("likes", 7)
		if err := tx.Update(patch); err != nil {
			return err
		}
		return tx.Destroy("User", "b")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := msgs()
	if len(got) != 1 || len(got[0].Operations) != 2 {
		t.Fatalf("transaction messages = %+v", got)
	}
	if got[0].Operations[0].Operation != "update" || got[0].Operations[1].Operation != "destroy" {
		t.Errorf("ops = %+v", got[0].Operations)
	}
	if _, err := pub.Mapper().Find("User", "b"); err == nil {
		t.Error("tx destroy not applied locally")
	}
}

func TestEmptyTransactionIsNoop(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	msgs := tap(t, f, "pub")
	ctl := pub.NewController(nil)
	if err := ctl.Transaction(func(*Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := msgs(); len(got) != 0 {
		t.Fatal("empty transaction published a message")
	}
}

func TestEnvThreadedIntoCallbacks(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, _ := newDocApp(t, f, "sub", Config{})
	d := userDesc()
	var sawOutbox any
	d.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		sawOutbox = ctx.Env["outbox"]
		return nil
	})
	mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"name"}})
	sub.SetEnv("outbox", "mailer-outbox")

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "a")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	if sawOutbox != "mailer-outbox" {
		t.Errorf("env in callback = %v", sawOutbox)
	}
}

func TestFabricAppsAndConfigAccessors(t *testing.T) {
	f := NewFabric()
	a, _ := newDocApp(t, f, "beta", Config{QueueMaxLen: 9})
	newDocApp(t, f, "alpha", Config{})
	apps := f.Apps()
	if len(apps) != 2 || apps[0] != "alpha" || apps[1] != "beta" {
		t.Errorf("Apps = %v", apps)
	}
	if a.Config().QueueMaxLen != 9 {
		t.Errorf("Config round trip = %+v", a.Config())
	}
	if Weak.String() != "weak" || DeliveryMode(42).String() == "" {
		t.Error("mode strings")
	}
}

// TestAddReadDepsExplicit covers the Table 2 explicit-dependency API for
// aggregation queries Synapse cannot see through.
func TestAddReadDepsExplicit(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	mustPublish(t, pub, postDesc(), "body")
	msgs := tap(t, f, "pub")

	ctl := pub.NewController(nil)
	u := model.NewRecord("User", "u1")
	u.Set("name", "a")
	if _, err := ctl.Create(u); err != nil {
		t.Fatal(err)
	}
	_ = msgs()

	// A second controller aggregates over users (not visible to
	// Synapse) and declares the dependency explicitly.
	ctl2 := pub.NewController(nil)
	ctl2.AddReadDeps("User", "u1")
	p := model.NewRecord("Post", "p1")
	p.Set("body", "aggregated")
	if _, err := ctl2.Create(p); err != nil {
		t.Fatal(err)
	}
	got := msgs()
	userKey := pub.Store().KeyFor(depName("pub", "User", "u1"))
	if v, ok := depVersions(got[0])[wire.Token{Key: uint64(userKey)}]; !ok || v != 1 {
		t.Errorf("explicit read dep = %v (deps %v)", v, got[0].Deps)
	}
}

// TestStatsMeansAreFractional: the occupancy and flush-size means are
// counts averaged as floats — fills of 1 and 2 report 1.5, not an
// integer division's 1.
func TestStatsMeansAreFractional(t *testing.T) {
	app, _ := newDocApp(t, NewFabric(), "sub", Config{})
	for _, n := range []int64{1, 2} {
		app.tel.pipelineFill.Record(n)
		app.tel.flushBatch.Record(n)
	}
	st := app.Stats()
	if st.PipelineFillMean != 1.5 || st.FlushBatchMean != 1.5 {
		t.Errorf("PipelineFillMean/FlushBatchMean = %v/%v, want 1.5/1.5", st.PipelineFillMean, st.FlushBatchMean)
	}
	if st.PipelineFillMax != 2 || st.FlushBatchMax != 2 || st.Flushes != 2 {
		t.Errorf("PipelineFillMax/FlushBatchMax/Flushes = %d/%d/%d, want 2/2/2", st.PipelineFillMax, st.FlushBatchMax, st.Flushes)
	}
}

// TestStatsStagesCountEveryDelivery: Stats.Stages holds the six
// pipeline stages, and each counts the deliveries it should — decode
// only what workers fetch, barrier and apply every delivery from any
// entry, dep-wait only a non-empty plan, flush and ack once per group
// commit.
func TestStatsStagesCountEveryDelivery(t *testing.T) {
	const n = 20
	f := NewFabric()
	causal, _ := newDocApp(t, f, "causal", Config{Mode: Causal})
	weak, _ := newDocApp(t, f, "weak", Config{Mode: Causal})
	sub, _ := newDocApp(t, f, "sub", Config{})
	mustPublish(t, causal, userDesc(), "name")
	mustPublish(t, weak, postDesc(), "body")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "causal", Attrs: []string{"name"}})
	mustSubscribe(t, sub, postDesc(), SubSpec{From: "weak", Attrs: []string{"body"}, Mode: Weak})
	create := func(pub *App, modelName, attr string) {
		for i := 0; i < n; i++ {
			rec := model.NewRecord(modelName, fmt.Sprintf("o%d", i))
			rec.Set(attr, "x")
			if _, err := pub.NewController(nil).Create(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	create(causal, "User", "name")
	sub.StartWorkers(2)
	waitFor(t, 10*time.Second, func() bool { return sub.Stats().Processed == n })
	sub.StopWorkers() // the last group commit has landed
	create(weak, "Post", "body")
	drain(t, sub) // ProcessMessage

	st := sub.Stats()
	if len(st.Stages) != len(stageNames) {
		t.Errorf("Stages has %d keys, want %v", len(st.Stages), stageNames)
	}
	want := map[string]int{"decode": n, "barrier": 2 * n, "dep-wait": n, "apply": 2 * n}
	for _, name := range stageNames {
		s, ok := st.Stages[name]
		if !ok {
			t.Errorf("Stages has no %q", name)
		} else if w, counted := want[name]; counted && s.Count != w {
			t.Errorf("%s count = %d, want %d", name, s.Count, w)
		}
	}
	flush, ack := st.Stages["flush"].Count, st.Stages["ack"].Count
	if flush == 0 || int64(flush) != st.Flushes || ack > flush {
		t.Errorf("flush/ack counts = %d/%d with %d flushes: want flush = flushes > 0, ack <= flush", flush, ack, st.Flushes)
	}
}
