package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/broker"
	"synapse/internal/faultinject"
	"synapse/internal/model"
	"synapse/internal/vstore"
)

// TestJobStateTable holds DESIGN §2j's table to the code. Forcing a move
// jobEdges does not list panics. The paths below take every move it does
// list, as the transition hook sees them, across the three entries — a
// worker (W: its lanes, or the driver by hand on queue jobs),
// ProcessMessage (P) and bootstrap's drain (B) — through the poison,
// §6.5-timeout, stall and fail-to-front exits.
func TestJobStateTable(t *testing.T) {
	for from := range numJobStates {
		for to := range numJobStates {
			if jobEdges[from]&(1<<to) != 0 {
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v -> %v is outside the table and did not panic", from, to)
					}
				}()
				j := &job{}
				j.state.Store(uint32(from))
				(&App{}).to(j, from, to)
			}()
		}
	}

	var (
		mu      sync.Mutex
		taken   = map[string]int{}             // "W planned->parked": times
		drained = map[*broker.Queue][]uint64{} // the tags handed to bootstrap's drain
	)
	count := func(key string) int {
		mu.Lock()
		defer mu.Unlock()
		return taken[key]
	}
	// pair is a causal publisher and a subscriber whose moves are counted
	// by entry; d, when given, is the subscriber's User descriptor.
	pair := func(t *testing.T, cfg Config, d *model.Descriptor) (*Fabric, *App, *App, *Controller) {
		f := NewFabric()
		pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
		sub, _ := newSQLApp(t, f, "sub", cfg)
		mustPublish(t, pub, userDesc(), "name")
		if d == nil {
			d = userDesc()
		}
		mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"name"}})
		watchJobs(sub, func(j *job, from, to jobState) {
			entry := "W"
			mu.Lock()
			if j.q == nil {
				entry = "P"
			} else if slices.Contains(drained[j.q], j.d.Tag) {
				entry = "B"
			}
			taken[fmt.Sprintf("%s %v->%v", entry, from, to)]++
			mu.Unlock()
		})
		return f, pub, sub, pub.NewController(nil)
	}
	drive := func(t *testing.T, a *App, j *job, want jobState) {
		t.Helper()
		if st, err := a.drive(j); st != want {
			t.Fatalf("drive = %v, %v; want %v", st, err, want)
		}
	}
	commit := func(a *App, j *job) {
		a.commits.Add(j)
		a.commits.Flush()
	}

	t.Run("W parks, times out and applies anyway", func(t *testing.T) {
		_, _, sub, ctl := pair(t, Config{DepTimeout: 20 * time.Millisecond}, nil)
		createUser(t, ctl, "u1", "v1")
		updateUser(t, ctl, "u1", "v2")
		update := fetchJobs(t, sub, 2)[1]
		drive(t, sub, update, stateParked)
		waitFor(t, 2*time.Second, func() bool { _, r := parkedAndReady(sub); return r == 1 })
		drive(t, sub, sub.takeReady(nil, 1)[0], stateDone)
		if sub.Stats().DepTimeouts != 1 {
			t.Fatal("the re-probe did not give up the §6.5 way")
		}
	})

	t.Run("W released mid-probe, then handed back", func(t *testing.T) {
		_, _, sub, ctl := pair(t, Config{}, nil)
		createUser(t, ctl, "u1", "v1")
		updateUser(t, ctl, "u1", "v2")
		updateUser(t, ctl, "u1", "v3")
		jobs := fetchJobs(t, sub, 3)
		create, second, third := jobs[0], jobs[1], jobs[2]
		drive(t, sub, third, stateParked)
		// A release that comes while the job is still in its window.
		wakeDuring := func(j *job, want jobState) {
			sub.Store().OnWait(j.Wake)
			drive(t, sub, j, want)
			sub.Store().OnWait(nil)
		}
		wakeDuring(second, stateParked) // unmet, and on the ready list at once
		wakeDuring(create, stateDone)   // met all the same
		commit(sub, create)
		if p, r := parkedAndReady(sub); p != 1 || r != 1 {
			t.Fatalf("parked=%d ready=%d, want 1, 1", p, r)
		}
		if back := sub.retireParked(nil); len(back) != 2 {
			t.Fatalf("handed back %d jobs, want 2", len(back))
		}
	})

	t.Run("W held at the barrier, then handed back", func(t *testing.T) {
		f, pub, sub, ctl := pair(t, Config{}, nil)
		msgs := tap(t, f, "pub")
		createUser(t, ctl, "u1", "g0")
		updateUser(t, ctl, "u1", "g0-update")
		pub.Store().Kill()
		pub.RecoverVersionStore()
		updateUser(t, ctl, "u1", "g1-update")
		got := msgs()
		errs := make(chan error, 1)
		go func() { errs <- sub.ProcessMessage(got[1]) }() // generation 0 in flight
		waitFor(t, 2*time.Second, func() bool { return sub.Stats().DepWaitsBlocked == 1 })
		drive(t, sub, fetchJobs(t, sub, 3)[2], stateBarrier)
		if back := sub.retireParked(nil); len(back) != 1 {
			t.Fatalf("handed back %d jobs, want 1", len(back))
		}
		if err := sub.ProcessMessage(got[0]); err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("W poison, a failure to the front, the tail", func(t *testing.T) {
		f, _, sub, ctl := pair(t, Config{PipelineDepth: 2}, nil)
		if err := f.Broker.Publish("pub", []byte("not a message")); err != nil {
			t.Fatal(err)
		}
		createUser(t, ctl, "u1", "v1")
		updateUser(t, ctl, "u1", "v2") // shares u1's mask bit: waits behind it
		createUser(t, ctl, "u2", "v1")
		q := sub.Queue()
		ds, err := q.GetBatch(4)
		if err != nil || len(ds) != 4 {
			t.Fatalf("GetBatch = %d, %v", len(ds), err)
		}
		batch := make([]*job, len(ds))
		for i, d := range ds {
			batch[i] = &job{app: sub, trip: trip{q: q, d: d}}
		}
		sub.Faults().Arm(FaultApply, faultinject.Fail(errors.New("injected apply error")))
		w := sub.newWorker(2)
		defer w.close()
		w.run(nil, batch)
		if q.Unacked() != 0 || q.Len() != 3 {
			t.Fatalf("unacked=%d pending=%d, want 0 and the three sent back", q.Unacked(), q.Len())
		}
	})

	t.Run("W stalls waiting for its stripes and applying", func(t *testing.T) {
		release := make(chan struct{})
		d := userDesc()
		d.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
			if ctx.Record.ID == "hang" {
				<-release
			}
			return nil
		})
		cfg := Config{ApplyTimeout: 200 * time.Millisecond}
		_, pub, sub, ctl := pair(t, cfg, d)
		for _, id := range []string{"hang", "p"} {
			createUser(t, pub.NewController(nil), id, "v1") // depends on nothing
		}
		createUser(t, ctl, "r", "v1")
		updateUser(t, ctl, "r", "v2")
		jobs := fetchJobs(t, sub, 4)
		hang, planned, create, update := jobs[0], jobs[1], jobs[2], jobs[3]
		w := sub.newWorker(1)
		defer w.close()
		object := func(j *job) vstore.Key { return sub.objectKey(&j.msg.Operations[0]) }
		stalled := func(j *job, n int64) {
			t.Helper()
			if st := sub.Stats().Stalled; j.load() != stateStalled || st != n {
				t.Fatalf("%v after the batch, Stalled = %d; want stalled, %d", j.load(), st, n)
			}
		}

		held := object(planned) // a straggler holds it, say
		sub.applyLocks.Acquire(held)
		w.run(nil, []*job{planned})
		stalled(planned, 1)
		sub.applyLocks.Release(held)

		drive(t, sub, update, stateParked)
		drive(t, sub, create, stateDone)
		commit(sub, create)
		ready := sub.takeReady(nil, 1)
		if len(ready) != 1 {
			t.Fatal("the update was not released")
		}
		held = object(update)
		sub.applyLocks.Acquire(held)
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.run(nil, ready)
		}()
		waitFor(t, 2*time.Second, func() bool { return update.load() != stateReady })
		update.Wake() // while it waits for the object's lock
		<-done
		stalled(update, 2)
		sub.applyLocks.Release(held)

		w.run(nil, []*job{hang})
		stalled(hang, 3)
		close(release)
	})

	t.Run("P waits at the barrier and on a dependency, fails, is stale", func(t *testing.T) {
		var kill atomic.Bool
		var sub *App
		d := userDesc()
		d.Callbacks.On(model.AfterCreate, func(*model.CallbackCtx) error {
			if kill.CompareAndSwap(true, false) {
				sub.Store().Kill() // after the apply, before its increments
			}
			return nil
		})
		f, pub, sub, ctl := pair(t, Config{}, d)
		msgs := tap(t, f, "pub")
		createUser(t, ctl, "u1", "g0")
		updateUser(t, ctl, "u1", "g0-update")
		pub.Store().Kill()
		pub.RecoverVersionStore()
		updateUser(t, ctl, "u1", "g1-update")
		createUser(t, pub.NewController(nil), "u2", "g1") // depends on nothing
		got := msgs()

		errs := make(chan error, 2)
		go func() { errs <- sub.ProcessMessage(got[1]) }()
		waitFor(t, 2*time.Second, func() bool { return sub.Stats().DepWaitsBlocked == 1 })
		go func() { errs <- sub.ProcessMessage(got[2]) }()
		waitFor(t, 2*time.Second, func() bool { return count("P decoded->barrier") == 1 })
		if err := sub.ProcessMessage(got[0]); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if err := sub.ProcessMessage(got[0]); err != errStaleGeneration {
			t.Fatalf("old generation: %v, want errStaleGeneration", err)
		}
		sub.Store().Kill()
		if err := sub.ProcessMessage(got[3]); err == nil {
			t.Fatal("applied through a dead version store")
		}
		sub.Store().Revive()
		kill.Store(true)
		if err := sub.ProcessMessage(got[3]); err == nil {
			t.Fatal("its increments landed in a dead version store")
		}
	})

	t.Run("B poison, and a job that parks and is resumed", func(t *testing.T) {
		f, _, sub, ctl := pair(t, Config{}, nil)
		createUser(t, ctl, "u1", "v1")
		updateUser(t, ctl, "u1", "v2")
		if err := f.Broker.Publish("pub", []byte("not a message")); err != nil {
			t.Fatal(err)
		}
		q := sub.Queue()
		fetched := make([]func(*worker), 3)
		for i := range fetched {
			d, ok, err := q.TryGet()
			if err != nil || !ok {
				t.Fatalf("TryGet: %v, %v", ok, err)
			}
			fetched[i] = func(w *worker) { w.runFetched(q, d) }
			mu.Lock()
			drained[q] = append(drained[q], d.Tag)
			mu.Unlock()
		}
		drains := [2]*worker{sub.newWorker(1), sub.newWorker(1)}
		defer drains[0].close()
		defer drains[1].close()
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			fetched[1](drains[0]) // the update, ahead of its create
		}()
		select {
		case <-returned:
		case <-time.After(2 * time.Second):
			t.Error("runFetched waited for the update it parked")
		}
		if p, r := parkedAndReady(sub); p != 1 || r != 0 || count("B planned->parked") != 1 {
			t.Errorf("parked=%d ready=%d after the update's runFetched, want it parked", p, r)
		}
		fetched[0](drains[1]) // its create releases it
		<-returned
		fetched[2](drains[0]) // resumes the update, then the poison
		waitFor(t, 2*time.Second, func() bool { return q.Unacked() == 0 && q.Len() == 0 && sub.Stats().Processed == 2 })
	})

	entries := map[string]bool{}
	for from := range numJobStates {
		for to := range numJobStates {
			if jobEdges[from]&(1<<to) == 0 {
				continue
			}
			var by []string
			for _, e := range []string{"W", "P", "B"} {
				if count(fmt.Sprintf("%s %v->%v", e, from, to)) > 0 {
					by = append(by, e)
					entries[e] = true
				}
			}
			if len(by) == 0 {
				t.Errorf("%v -> %v is in the table and no path took it", from, to)
			} else {
				t.Logf("%v -> %v: %s", from, to, strings.Join(by, " "))
			}
		}
	}
	if len(entries) != 3 {
		t.Errorf("moves seen from entries %v, want W, P and B", entries)
	}
}
