package core

import (
	"testing"
	"time"

	"synapse/internal/model"
)

// TestDecoratorChain reproduces the Fig 3 ecosystem: Pub1 owns User,
// Dec2 decorates it with interests, Sub2 subscribes to both origins.
func TestDecoratorChain(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub1", Config{})
	mustPublish(t, pub, userDesc(), "name")

	dec, decMapper := newDocApp(t, f, "dec2", Config{})
	decUser := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList},
	)
	mustSubscribe(t, dec, decUser, SubSpec{From: "pub1", Attrs: []string{"name"}})
	if err := dec.Publish(decUser, PubSpec{Attrs: []string{"interests"}}); err != nil {
		t.Fatal(err)
	}

	sub, subMapper := newDocApp(t, f, "sub2", Config{})
	subUser := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList},
	)
	mustSubscribe(t, sub, subUser, SubSpec{From: "pub1", Attrs: []string{"name"}})
	mustSubscribe(t, sub, subUser, SubSpec{From: "dec2", Attrs: []string{"interests"}})

	// Owner creates the user.
	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "alice")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, dec)
	if got, err := decMapper.Find("User", "u1"); err != nil || got.String("name") != "alice" {
		t.Fatalf("decorator copy = %+v, %v", got, err)
	}

	// Decorator computes and publishes interests; reading the user first
	// records the external dependency.
	dctl := dec.NewController(nil)
	if _, err := dctl.Find("User", "u1"); err != nil {
		t.Fatal(err)
	}
	deco := model.NewRecord("User", "u1")
	deco.Set("interests", []string{"cats", "dogs"})
	if _, err := dctl.Update(deco); err != nil {
		t.Fatal(err)
	}

	// The downstream subscriber merges both origins' attributes.
	drain(t, sub)
	got, err := subMapper.Find("User", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if got.String("name") != "alice" {
		t.Errorf("name from owner missing: %+v", got.Attrs)
	}
	if in := got.Strings("interests"); len(in) != 2 || in[0] != "cats" {
		t.Errorf("interests from decorator missing: %+v", got.Attrs)
	}
}

// TestDecoratorExternalDependency checks the cross-application causality
// of §4.2: the decorator's message carries an external dependency on the
// origin's object, so a downstream subscriber cannot apply the
// decoration before it has seen the origin state the decorator saw.
func TestDecoratorExternalDependency(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub1", Config{})
	mustPublish(t, pub, userDesc(), "name")
	pubMsgs := tap(t, f, "pub1")

	dec, _ := newDocApp(t, f, "dec2", Config{})
	decUser := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList},
	)
	mustSubscribe(t, dec, decUser, SubSpec{From: "pub1", Attrs: []string{"name"}})
	if err := dec.Publish(decUser, PubSpec{Attrs: []string{"interests"}}); err != nil {
		t.Fatal(err)
	}
	decMsgs := tap(t, f, "dec2")

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "alice")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, dec) // decorator ingests the user (increments its counters)

	dctl := dec.NewController(nil)
	if _, err := dctl.Find("User", "u1"); err != nil {
		t.Fatal(err)
	}
	deco := model.NewRecord("User", "u1")
	deco.Set("interests", []string{"x"})
	if _, err := dctl.Update(deco); err != nil {
		t.Fatal(err)
	}

	dm := decMsgs()
	if len(dm) != 1 {
		t.Fatalf("decorator published %d messages", len(dm))
	}
	if len(dm[0].External) == 0 {
		t.Fatal("decorator message carries no external dependencies")
	}

	// Downstream subscriber: deliver the decorator's message FIRST. It
	// must block until the origin's message is processed.
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	subUser := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList},
	)
	mustSubscribe(t, sub, subUser, SubSpec{From: "pub1", Attrs: []string{"name"}})
	mustSubscribe(t, sub, subUser, SubSpec{From: "dec2", Attrs: []string{"interests"}})
	drainQueue(t, sub)

	pm := pubMsgs()
	done := make(chan error, 1)
	go func() { done <- sub.ProcessMessage(dm[0]) }()
	select {
	case err := <-done:
		t.Fatalf("decoration applied before origin data: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := sub.ProcessMessage(pm[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("decorator message never unblocked")
	}
	got, _ := subMapper.Find("User", "u1")
	if got.String("name") != "alice" || len(got.Strings("interests")) != 1 {
		t.Errorf("merged record = %+v", got.Attrs)
	}
}

// TestExternalDepsNotIncremented: processing a decorator message must
// not advance the origin's dependency counters on the subscriber
// (external deps are "not incremented at the publisher nor the
// subscriber", §4.2).
func TestExternalDepsNotIncremented(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub1", Config{})
	mustPublish(t, pub, userDesc(), "name")

	dec, _ := newDocApp(t, f, "dec2", Config{})
	decUser := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList},
	)
	mustSubscribe(t, dec, decUser, SubSpec{From: "pub1", Attrs: []string{"name"}})
	if err := dec.Publish(decUser, PubSpec{Attrs: []string{"interests"}}); err != nil {
		t.Fatal(err)
	}
	decMsgs := tap(t, f, "dec2")

	// The downstream subscriber must exist before the writes so its
	// queue receives both origins' messages.
	sub, _ := newDocApp(t, f, "sub", Config{})
	subUser := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList},
	)
	mustSubscribe(t, sub, subUser, SubSpec{From: "pub1", Attrs: []string{"name"}})
	mustSubscribe(t, sub, subUser, SubSpec{From: "dec2", Attrs: []string{"interests"}})

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "alice")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, dec)

	dctl := dec.NewController(nil)
	if _, err := dctl.Find("User", "u1"); err != nil {
		t.Fatal(err)
	}
	deco := model.NewRecord("User", "u1")
	deco.Set("interests", []string{"x"})
	if _, err := dctl.Update(deco); err != nil {
		t.Fatal(err)
	}

	drain(t, sub) // everything: origin + decorator messages

	dm := decMsgs()
	for _, ext := range dm[0].External {
		k := sub.Tracker().Resolve(ext.Token)
		// The origin's create incremented it once; the decorator
		// message must not have incremented it again.
		if got := sub.Store().Ops(k); got != 1 {
			t.Errorf("external dep ops = %d, want 1", got)
		}
	}
}
