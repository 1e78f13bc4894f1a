package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/wire"
)

// publishN creates then updates an object repeatedly, returning the
// tapped messages.
func publishUpdates(t *testing.T, pub *App, n int) []*wire.Message {
	t.Helper()
	msgs := tap(t, pub.fabric, pub.Name())
	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "v0")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		patch := model.NewRecord("User", "u1")
		patch.Set("name", fmt.Sprintf("v%d", i))
		if _, err := ctl.Update(patch); err != nil {
			t.Fatal(err)
		}
	}
	return msgs()
}

func TestWeakModeSkipsToLatest(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	got := publishUpdates(t, pub, 5)

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Weak})
	drainQueue(t, sub)

	// Deliver the newest first, then the stale ones.
	if err := sub.ProcessMessage(got[4]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sub.ProcessMessage(got[i]); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := subMapper.Find("User", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.String("name") != "v4" {
		t.Errorf("weak subscriber regressed to %q", rec.String("name"))
	}
}

func TestWeakModeToleratesLoss(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	got := publishUpdates(t, pub, 5)

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Weak})
	drainQueue(t, sub)

	// Messages 1-3 are lost entirely; the subscriber still converges.
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	if err := sub.ProcessMessage(got[4]); err != nil {
		t.Fatal(err)
	}
	rec, _ := subMapper.Find("User", "u1")
	if rec.String("name") != "v4" {
		t.Errorf("weak subscriber stuck at %q after loss", rec.String("name"))
	}
}

func TestCausalModeAppliesEveryUpdateInOrder(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	got := publishUpdates(t, pub, 5)

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)

	// Record every state transition via a callback.
	var mu sync.Mutex
	var seen []string
	d, _ := sub.Descriptor("User")
	d.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		mu.Lock()
		seen = append(seen, ctx.Record.String("name"))
		mu.Unlock()
		return nil
	})
	d.Callbacks.On(model.AfterUpdate, func(ctx *model.CallbackCtx) error {
		mu.Lock()
		seen = append(seen, ctx.Record.String("name"))
		mu.Unlock()
		return nil
	})

	// Apply in reverse order concurrently: causal waits must reorder.
	var wg sync.WaitGroup
	for i := 4; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := sub.ProcessMessage(got[i]); err != nil {
				t.Errorf("M%d: %v", i, err)
			}
		}(i)
		time.Sleep(3 * time.Millisecond)
	}
	wg.Wait()

	if len(seen) != 5 {
		t.Fatalf("saw %d transitions, want all 5 (no overwritten history)", len(seen))
	}
	for i, name := range seen {
		if name != fmt.Sprintf("v%d", i) {
			t.Fatalf("transition order = %v", seen)
		}
	}
	rec, _ := subMapper.Find("User", "u1")
	if rec.String("name") != "v4" {
		t.Errorf("final state = %q", rec.String("name"))
	}
}

func TestGlobalModeTotalOrder(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Global})
	mustPublish(t, pub, userDesc(), "name")
	msgs := tap(t, f, "pub")

	// Write three DIFFERENT objects from three DIFFERENT controllers —
	// only global mode orders across them.
	for i := 0; i < 3; i++ {
		ctl := pub.NewController(nil)
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("name", "x")
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := msgs()
	if len(got) != 3 {
		t.Fatalf("published %d messages", len(got))
	}
	if got[0].GlobalDep == nil {
		t.Fatal("global publisher did not mark the global dependency")
	}

	sub, _ := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Global})
	drainQueue(t, sub)

	// What global mode promises is the order of the applies, so that is
	// what is recorded — not the order ProcessMessage's callers get to run
	// again after them, which the scheduler decides.
	var mu sync.Mutex
	var applied []string
	d, _ := sub.Descriptor("User")
	d.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		mu.Lock()
		applied = append(applied, ctx.Record.ID)
		mu.Unlock()
		return nil
	})
	var wg sync.WaitGroup
	for _, i := range []int{2, 1, 0} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := sub.ProcessMessage(got[i]); err != nil {
				t.Errorf("M%d: %v", i, err)
			}
		}(i)
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	if fmt.Sprint(applied) != "[u0 u1 u2]" {
		t.Errorf("global apply order = %v, want [u0 u1 u2]", applied)
	}
}

func TestCausalSubscriberIgnoresGlobalDep(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Global})
	mustPublish(t, pub, userDesc(), "name")
	msgs := tap(t, f, "pub")

	// Independent controllers: no intra-controller chaining, so the only
	// cross-object ordering comes from the global dependency.
	for i := 0; i < 2; i++ {
		ctl := pub.NewController(nil)
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("name", "x")
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := msgs()

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)

	// Independent objects: a causal subscriber may process M2 before M1
	// (it ignores the global serializer). Processing M2 alone must not
	// block.
	done := make(chan error, 1)
	go func() { done <- sub.ProcessMessage(got[1]) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("causal subscriber blocked on the global dependency")
	}
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	if subMapper.Len("User") != 2 {
		t.Error("not all objects applied")
	}
}

func TestSessionSerialization(t *testing.T) {
	// Two controllers in the same session produce session-ordered
	// messages even for unrelated objects (§3.2 guarantee 3).
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	mustPublish(t, pub, postDesc(), "body")
	msgs := tap(t, f, "pub")

	sess := pub.NewSession("User", "1")
	ctl1 := pub.NewController(sess)
	p := model.NewRecord("Post", "p1")
	p.Set("body", "first")
	if _, err := ctl1.Create(p); err != nil {
		t.Fatal(err)
	}
	ctl2 := pub.NewController(sess)
	p2 := model.NewRecord("Post", "p2")
	p2.Set("body", "second")
	if _, err := ctl2.Create(p2); err != nil {
		t.Fatal(err)
	}
	got := msgs()

	sub, _ := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, postDesc(), SubSpec{From: "pub", Attrs: []string{"body"}, Mode: Causal})
	drainQueue(t, sub)

	// M2 must not complete before M1: both carry the session user as a
	// write dependency.
	done := make(chan error, 1)
	go func() { done <- sub.ProcessMessage(got[1]) }()
	select {
	case err := <-done:
		t.Fatalf("second session write completed before first: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestWeakPublisherSkipsDependencyMachinery(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Weak})
	mustPublish(t, pub, postDesc(), "body")
	msgs := tap(t, f, "pub")

	sess := pub.NewSession("User", "1")
	ctl := pub.NewController(sess)
	p := model.NewRecord("Post", "p1")
	p.Set("body", "x")
	if _, err := ctl.Create(p); err != nil {
		t.Fatal(err)
	}
	got := msgs()
	// Only the object's own write dependency is tracked.
	if len(got[0].Deps) != 1 {
		t.Errorf("weak publisher deps = %v", got[0].Deps)
	}
}

func TestDependencyTimeoutUnblocksCausal(t *testing.T) {
	// §6.5: a causal subscriber with a finite DepTimeout gives up on a
	// missing dependency instead of deadlocking.
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	got := publishUpdates(t, pub, 3)

	sub, subMapper := newDocApp(t, f, "sub", Config{DepTimeout: 50 * time.Millisecond})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
	drainQueue(t, sub)

	// Message 1 is lost; deliver only 0 and 2.
	if err := sub.ProcessMessage(got[0]); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sub.ProcessMessage(got[2]); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("timed-out wait returned after %v", elapsed)
	}
	rec, _ := subMapper.Find("User", "u1")
	if rec.String("name") != "v2" {
		t.Errorf("state after timeout processing = %q", rec.String("name"))
	}
}
