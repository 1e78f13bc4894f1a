package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/faultinject"
	"synapse/internal/model"
	"synapse/internal/vstore"
)

// TestPublishWaitsOneWindow: with a 20 ms version-store round trip a
// publish waits for the BumpBatch window and nothing else — the unlock
// window is charged behind its back — so Create waits for exactly one
// window, its dependency keys can be locked again at once, and once the
// app is drained the two windows are both on the books. A crash before
// the send still frees the locks on its way out.
func TestPublishWaitsOneWindow(t *testing.T) {
	const rtt = 20 * time.Millisecond
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, VStoreRTT: rtt})
	mustPublish(t, pub, userDesc(), "name")
	var waited atomic.Int32
	pub.Store().OnWait(func() { waited.Add(1) })
	// relock takes and drops a user's lock, which returns only once no
	// publish holds it; the generous bound turns a leaked lock into a
	// failure instead of a hang.
	relock := func(id, when string) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			held, err := pub.Store().LockWrites([]vstore.Key{pub.Tracker().KeyFor(depName("pub", "User", id))})
			if err == nil {
				pub.Store().UnlockWrites(held)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: %s's lock is still held", when, id)
		}
	}

	rec := model.NewRecord("User", "u1")
	rec.Set("name", "v1")
	if _, err := pub.NewController(nil).Create(rec); err != nil {
		t.Fatal(err)
	}
	if n := waited.Load(); n != 1 {
		t.Fatalf("Create waited for %d version-store windows, want 1", n)
	}
	relock("u1", "after Create")
	if err := pub.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// BumpBatch + its unlock window, then relock's lock + unlock windows.
	if got := pub.Stats().VStoreRoundTrips; got != 2+2 {
		t.Fatalf("VStoreRoundTrips = %d after Drain, want exactly 2 for the publish and 2 for the test's own relock", got)
	}
	pub.Resume()

	pub.Faults().Arm(FaultBeforePublish, faultinject.Crash())
	crashPublish(t, pub, "u2", "never sent")
	relock("u2", "after a crash before the send")
}

// TestApplyWaitsOneWindow drives three causal messages through the
// subscriber by hand and counts its version-store windows: a message
// whose dependencies are met pays ONE for probe and claims together, one
// that must park pays one per attempt, and the increments ride the
// group commit — never the three-window probe, claim, increment chain.
func TestApplyWaitsOneWindow(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, subMapper := newSQLApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "v1")
	updateUser(t, ctl, "u1", "v2")
	jobs := fetchJobs(t, sub, 2)
	create, update := jobs[0], jobs[1]
	windows := func(what string, want uint64, run func()) {
		t.Helper()
		before := sub.Store().RoundTrips()
		run()
		if got := sub.Store().RoundTrips() - before; got != want {
			t.Fatalf("%s cost %d version-store windows, want %d", what, got, want)
		}
	}
	drive := func(j *job, want jobState) {
		t.Helper()
		if st, err := sub.drive(j); st != want || err != nil {
			t.Fatalf("%v, %v; want %v", st, err, want)
		}
	}
	commit := func(j *job) {
		sub.commits.Add(j)
		sub.commits.Flush()
	}

	windows("an update ahead of its create (parks)", 1, func() { drive(update, stateParked) })
	if _, err := subMapper.Find("User", "u1"); err == nil {
		t.Fatal("the parked update's claim or write went through")
	}
	windows("a ready create", 1, func() { drive(create, stateDone) })
	windows("its group commit", 1, func() { commit(create) })
	if batch := sub.takeReady(nil, 1); len(batch) != 1 || batch[0] != update {
		t.Fatalf("takeReady = %v, want the update released by the create's increment", batch)
	}
	windows("the released update", 1, func() { drive(update, stateDone) })
	windows("its group commit", 1, func() { commit(update) })
	if got, err := subMapper.Find("User", "u1"); err != nil || got.String("name") != "v2" {
		t.Fatalf("u1 = %v, %v; want v2", got, err)
	}
}
