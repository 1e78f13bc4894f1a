package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/wire"
)

// TestUnsubscribedModelStillCountsDeps: a subscriber that only wants
// Posts must still maintain dependency counters for User messages from
// the same publisher, or later Post messages reading those deps would
// stall forever.
func TestUnsubscribedModelStillCountsDeps(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	mustPublish(t, pub, postDesc(), "body", "author")

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	// Posts only — no User subscription.
	mustSubscribe(t, sub, postDesc(), SubSpec{From: "pub", Attrs: []string{"body", "author"}})

	// The post is written in a session, so its message carries the user
	// object as a dependency; the user object was itself created first.
	sess := pub.NewSession("User", "u1")
	ctl := pub.NewController(sess)
	u := model.NewRecord("User", "u1")
	u.Set("name", "alice")
	if _, err := ctl.Create(u); err != nil {
		t.Fatal(err)
	}
	p := model.NewRecord("Post", "p1")
	p.Set("author", "u1")
	p.Set("body", "hello")
	if _, err := ctl.Create(p); err != nil {
		t.Fatal(err)
	}

	// Synchronous drain must not stall: the User message increments the
	// counters even though no User data is persisted.
	done := make(chan struct{})
	go func() {
		drain(t, sub)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber stalled on deps of an unsubscribed model")
	}
	if subMapper.Len("User") != 0 {
		t.Error("unsubscribed model was persisted")
	}
	if _, err := subMapper.Find("Post", "p1"); err != nil {
		t.Error("subscribed model missing")
	}
}

// TestAttributeSubsetFiltering: a subscriber asking for fewer attributes
// than published receives only those.
func TestAttributeSubsetFiltering(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name", "email", "likes")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "a")
	rec.Set("email", "a@x.com")
	rec.Set("likes", 3)
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	got, _ := subMapper.Find("User", "u1")
	if got.Has("email") || got.Has("likes") {
		t.Errorf("unsubscribed attributes arrived: %+v", got.Attrs)
	}
}

// TestExplicitWriteDeps: AddWriteDeps serializes an otherwise unrelated
// write behind the named object (Table 2).
func TestExplicitWriteDeps(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	mustPublish(t, pub, postDesc(), "body")
	msgs := tap(t, f, "pub")

	ctl := pub.NewController(nil)
	u := model.NewRecord("User", "agg")
	u.Set("name", "aggregate-row")
	if _, err := ctl.Create(u); err != nil {
		t.Fatal(err)
	}

	ctl2 := pub.NewController(nil)
	ctl2.AddWriteDeps("User", "agg")
	p := model.NewRecord("Post", "p1")
	p.Set("body", "depends on aggregate")
	if _, err := ctl2.Create(p); err != nil {
		t.Fatal(err)
	}
	got := msgs()
	aggKey := wire.Token{Key: uint64(pub.Store().KeyFor(depName("pub", "User", "agg")))}
	v, ok := depVersions(got[1])[aggKey]
	if !ok {
		t.Fatalf("explicit write dep missing from message: %v", got[1].Deps)
	}
	if v != 1 {
		t.Errorf("explicit write dep version = %d, want 1 (serialized after the create)", v)
	}
}

// TestMultiOpMessageWeakSubscriber: a transaction's multi-op message is
// applied per object under weak delivery, with stale versions skipped.
func TestMultiOpMessageWeakSubscriber(t *testing.T) {
	f := NewFabric()
	pub, _ := newSQLApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name", "likes")
	msgs := tap(t, f, "pub")

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name", "likes"}, Mode: Weak})
	drainQueue(t, sub)

	ctl := pub.NewController(nil)
	if err := ctl.Transaction(func(tx *Txn) error {
		for i := 0; i < 3; i++ {
			rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
			rec.Set("name", "v1")
			if err := tx.Create(rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Update one of them afterwards.
	patch := model.NewRecord("User", "u1")
	patch.Set("name", "v2")
	if _, err := ctl.Update(patch); err != nil {
		t.Fatal(err)
	}
	got := msgs()
	if len(got) != 2 || len(got[0].Operations) != 3 {
		t.Fatalf("messages = %d (first has %d ops)", len(got), len(got[0].Operations))
	}

	// Weak subscriber sees the UPDATE first, then the older transaction.
	if err := sub.ProcessMessage(got[1]); err != nil {
		t.Fatal(err)
	}
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	u1, _ := subMapper.Find("User", "u1")
	if u1.String("name") != "v2" {
		t.Errorf("stale transaction op overwrote newer state: %q", u1.String("name"))
	}
	// The other two transaction ops still applied.
	if subMapper.Len("User") != 3 {
		t.Errorf("subscriber has %d users", subMapper.Len("User"))
	}
}

// TestGlobalPublisherWeakSubscriber: a weak subscriber of a global-mode
// publisher ignores all ordering and still converges per object.
func TestGlobalPublisherWeakSubscriber(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Global})
	mustPublish(t, pub, userDesc(), "name")
	msgs := tap(t, f, "pub")
	for i := 0; i < 3; i++ {
		ctl := pub.NewController(nil)
		rec := model.NewRecord("User", "u1")
		if i == 0 {
			rec.Set("name", "v0")
			if _, err := ctl.Create(rec); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rec.Set("name", fmt.Sprintf("v%d", i))
		if _, err := ctl.Update(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := msgs()

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Weak})
	drainQueue(t, sub)
	// Reverse order, no blocking (weak ignores the global dep entirely).
	for i := 2; i >= 0; i-- {
		done := make(chan error, 1)
		go func(i int) { done <- sub.ProcessMessage(got[i]) }(i)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("weak subscriber blocked on global ordering")
		}
	}
	u, _ := subMapper.Find("User", "u1")
	if u.String("name") != "v2" {
		t.Errorf("weak state = %q", u.String("name"))
	}
}

// TestFailingCallbackRedelivery: a subscriber callback that fails
// transiently nacks the message; redelivery eventually applies it.
func TestFailingCallbackRedelivery(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			f := NewFabric()
			pub, _ := newDocApp(t, f, "pub", Config{})
			mustPublish(t, pub, userDesc(), "name")

			sub, subMapper := newDocApp(t, f, "sub", Config{PipelineDepth: depth})
			d := userDesc()
			failures := 3
			d.Callbacks.On(model.BeforeCreate, func(*model.CallbackCtx) error {
				if failures > 0 {
					failures--
					return errors.New("transient downstream failure")
				}
				return nil
			})
			mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"name"}})
			sub.StartWorkers(2)
			defer sub.StopWorkers()

			ctl := pub.NewController(nil)
			rec := model.NewRecord("User", "u1")
			rec.Set("name", "a")
			if _, err := ctl.Create(rec); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool { return subMapper.Len("User") == 1 })
			if failures != 0 {
				t.Errorf("callback failure budget not consumed: %d", failures)
			}
		})
	}
}

// TestEphemeralAndPersistedInOneTransaction: mixing a DB-less model with
// persisted models in one transaction ships a single message and only
// persists the persisted ops.
func TestEphemeralAndPersistedInOneTransaction(t *testing.T) {
	f := NewFabric()
	pub, _ := newSQLApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	click := model.NewDescriptor("Click", model.Field{Name: "target", Type: model.String})
	if err := pub.Publish(click, PubSpec{Attrs: []string{"target"}, Ephemeral: true}); err != nil {
		t.Fatal(err)
	}
	msgs := tap(t, f, "pub")

	ctl := pub.NewController(nil)
	if err := ctl.Transaction(func(tx *Txn) error {
		u := model.NewRecord("User", "u1")
		u.Set("name", "a")
		if err := tx.Create(u); err != nil {
			return err
		}
		c := model.NewRecord("Click", "c1")
		c.Set("target", "signup-button")
		return tx.Create(c)
	}); err != nil {
		t.Fatal(err)
	}
	got := msgs()
	if len(got) != 1 || len(got[0].Operations) != 2 {
		t.Fatalf("message shape = %+v", got)
	}
	if pub.Mapper().Len("User") != 1 {
		t.Error("persisted op missing")
	}
	if pub.Mapper().Len("Click") != 0 {
		t.Error("ephemeral op persisted")
	}
	// The ephemeral op's attributes made it onto the wire.
	var clickOp *wire.Operation
	for i := range got[0].Operations {
		if got[0].Operations[i].Model() == "Click" {
			clickOp = &got[0].Operations[i]
		}
	}
	if clickOp == nil || clickOp.Attributes["target"] != "signup-button" {
		t.Errorf("ephemeral op = %+v", clickOp)
	}
}
