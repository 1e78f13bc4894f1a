package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/model"
)

// TestDeadLetterSetAsideAndReplay drives the subscriber retry policy end
// to end: a message whose apply keeps failing is retried with backoff,
// set aside after Config.MaxDeliveryAttempts failures (the pool keeps
// draining other messages), stays inspectable through App.DeadLetters,
// and applies cleanly after the operator clears the fault and calls
// App.ReplayDeadLetters.
func TestDeadLetterSetAsideAndReplay(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{MaxDeliveryAttempts: 2})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	// The fault: applying the "poison" user fails until cleared.
	var faulty atomic.Bool
	faulty.Store(true)
	d, _ := sub.Descriptor("User")
	d.Callbacks.On(model.BeforeCreate, func(ctx *model.CallbackCtx) error {
		if faulty.Load() && ctx.Record.ID == "poison" {
			return errors.New("downstream dependency offline")
		}
		return nil
	})

	sub.StartWorkers(1)
	defer sub.StopWorkers()

	for _, id := range []string{"poison", "ok1", "ok2"} {
		ctl := pub.NewController(nil)
		rec := model.NewRecord("User", id)
		rec.Set("name", "v-"+id)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	// The healthy messages flow past the failing one...
	waitFor(t, 10*time.Second, func() bool {
		_, e1 := subMapper.Find("User", "ok1")
		_, e2 := subMapper.Find("User", "ok2")
		return e1 == nil && e2 == nil
	})
	// ...and the poison message lands on the dead-letter list after its
	// attempts are exhausted.
	waitFor(t, 10*time.Second, func() bool {
		return sub.Stats().DeadLetters == 1
	})
	if _, err := subMapper.Find("User", "poison"); err == nil {
		t.Fatal("poison message applied despite persistent failure")
	}

	st := sub.Stats()
	if st.DeadLettered != 1 {
		t.Errorf("Stats.DeadLettered = %d, want 1", st.DeadLettered)
	}
	if st.Retries < 1 {
		t.Errorf("Stats.Retries = %d, want >= 1 (one requeue before set-aside)", st.Retries)
	}
	dls := sub.DeadLetters()
	if len(dls) != 1 || dls[0].Exchange != "pub" || dls[0].Attempts != 2 {
		t.Fatalf("DeadLetters = %+v, want one entry from pub with 2 attempts", dls)
	}

	// Operator clears the fault and replays the set-aside messages.
	faulty.Store(false)
	if n := sub.ReplayDeadLetters(); n != 1 {
		t.Fatalf("ReplayDeadLetters = %d, want 1", n)
	}
	waitFor(t, 10*time.Second, func() bool {
		got, err := subMapper.Find("User", "poison")
		return err == nil && got.String("name") == "v-poison"
	})
	if sub.Stats().DeadLetters != 0 {
		t.Errorf("DeadLetters = %d after replay, want 0", sub.Stats().DeadLetters)
	}
}

// TestDeadLetterStaleGenerationDropped pins the interaction between the
// dead-letter shelf and the §4.4 generation barrier: a message
// dead-lettered under generation G and replayed after the subscriber's
// barrier has advanced past G is acked and dropped — never re-applied
// and never re-shelved. Its state was superseded by the generation
// flush; re-applying it would resurrect pre-crash data the new
// generation no longer vouches for.
func TestDeadLetterStaleGenerationDropped(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{MaxDeliveryAttempts: 2})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	// The fault stays on for the whole test: if the stale replay were
	// (wrongly) re-attempted, it would land back on the shelf and the
	// final DeadLetters assertion would catch it.
	d, _ := sub.Descriptor("User")
	d.Callbacks.On(model.BeforeCreate, func(ctx *model.CallbackCtx) error {
		if ctx.Record.ID == "poison" {
			return errors.New("downstream dependency offline")
		}
		return nil
	})

	sub.StartWorkers(1)
	defer sub.StopWorkers()

	// Generation G: the poison write exhausts its attempts and is
	// shelved.
	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "poison")
	rec.Set("name", "doomed")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		return sub.Stats().DeadLetters == 1
	})

	// The publisher's version store dies and recovery bumps the
	// generation; the next write carries G+1 and moves the subscriber's
	// barrier past the shelved message's generation.
	gen := pub.RecoverVersionStore()
	if gen == 0 {
		t.Fatal("RecoverVersionStore did not advance the generation")
	}
	ctl = pub.NewController(nil)
	rec = model.NewRecord("User", "fresh")
	rec.Set("name", "current")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		_, err := subMapper.Find("User", "fresh")
		return err == nil
	})

	// The replayed dead letter is from a dead generation: it must drain
	// off the shelf (acked) without applying.
	if n := sub.ReplayDeadLetters(); n != 1 {
		t.Fatalf("ReplayDeadLetters = %d, want 1", n)
	}
	waitFor(t, 10*time.Second, func() bool {
		return sub.Stats().DeadLetters == 0
	})
	// Settle until the queue is fully drained and acked: were the stale
	// message being retried instead of dropped, it would re-shelve after
	// MaxDeliveryAttempts.
	waitFor(t, 10*time.Second, func() bool {
		q := sub.Queue()
		return q != nil && q.Len() == 0 && q.Unacked() == 0
	})
	if n := sub.Stats().DeadLetters; n != 0 {
		t.Errorf("stale dead letter re-shelved: DeadLetters = %d, want 0", n)
	}
	if _, err := subMapper.Find("User", "poison"); err == nil {
		t.Error("stale dead letter was re-applied after the generation flush")
	}
}
