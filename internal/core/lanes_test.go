package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// TestWorkerPoolGoroutinesFixed: a worker's window runs on the lanes it
// starts with, so no delivery starts a goroutine — the count taken right
// after StartWorkers is the most any callback sees, the stall watchdog
// armed or not — and StopWorkers returns only once every lane has
// exited, so start/stop cycles leak none.
func TestWorkerPoolGoroutinesFixed(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Second} {
		t.Run(fmt.Sprintf("ApplyTimeout=%v", timeout), func(t *testing.T) { testWorkerPoolGoroutinesFixed(t, timeout) })
	}
}

func testWorkerPoolGoroutinesFixed(t *testing.T, timeout time.Duration) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, _ := newSQLApp(t, f, "sub", Config{PipelineDepth: 4, ApplyTimeout: timeout})
	mustPublish(t, pub, userDesc(), "name")

	var (
		mu           sync.Mutex
		peak, called int
	)
	d := userDesc()
	d.Callbacks.On(model.AfterCreate, func(*model.CallbackCtx) error {
		n := runtime.NumGoroutine()
		mu.Lock()
		peak, called = max(peak, n), called+1
		mu.Unlock()
		return nil
	})
	mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"name"}})

	const messages = 2000
	ctl := pub.NewController(nil)
	for i := range messages {
		createUser(t, ctl, fmt.Sprintf("u%d", i), "n")
	}
	pub.store.WaitReleases() // the publisher's release flusher is idle

	base := runtime.NumGoroutine()
	sub.StartWorkers(2)
	started := runtime.NumGoroutine()
	waitFor(t, 10*time.Second, func() bool { return sub.Stats().Processed >= messages })
	sub.StopWorkers()
	mu.Lock()
	if called < messages || peak > started {
		t.Errorf("%d callbacks saw up to %d goroutines; %d right after StartWorkers(2)", called, peak, started)
	}
	mu.Unlock()

	for range 10 {
		sub.StartWorkers(2)
		sub.StopWorkers()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // StopWorkers' waiter exits just after it returns
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after 11 start/stop cycles, %d before the first", n, base)
	}
}

// TestFlushBatchAllocBudget: a message completing alone — one job per
// group commit, the common case — costs the flush no allocation: the
// counts map and the ack tags are the leader's, reused, and the done job
// goes back to the pool its successor is taken from.
func TestFlushBatchAllocBudget(t *testing.T) {
	skipUnderRace(t)
	const runs = 100
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, _ := newSQLApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	sub.Queue().SetCredits(2 * runs)
	ctl := pub.NewController(nil)
	for i := range runs + 1 { // AllocsPerRun's warm-up call takes one
		createUser(t, ctl, fmt.Sprintf("u%d", i), "n")
	}
	q := sub.Queue()
	ds, err := q.GetBatch(runs + 1)
	if err != nil || len(ds) != runs+1 {
		t.Fatalf("GetBatch(%d) = %d deliveries, %v", runs+1, len(ds), err)
	}

	jobs := make([]*job, 1)
	incr := []vstore.Key{1, 2}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		j := sub.fetched(q, ds[next])
		j.incr = incr
		j.state.Store(uint32(stateDone))
		jobs[0] = j
		next++
		sub.flushBatch(jobs)
	})
	if n != 0 {
		t.Errorf("one-entry flushBatch = %v allocs, want 0", n)
	}
	if got := q.Unacked(); got != 0 {
		t.Errorf("Unacked = %d after the flushes, want 0", got)
	}
}

// TestApplyLocksArePerObject: a delivery waits out another's apply lock
// only when both claim the same object. With one object's lock held
// (a straggler's, say), deliveries of 256 other objects all apply, and
// a delivery of the held object does not claim until it is released.
// With locks striped 64 ways, some of the 256 would share the held
// object's stripe and wait for it.
func TestApplyLocksArePerObject(t *testing.T) {
	const others = 256
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newSQLApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	sub.Queue().SetCredits(others + 1)
	for i := range others {
		createUser(t, pub.NewController(nil), fmt.Sprintf("o%03d", i), "v1") // depends on nothing
	}
	createUser(t, pub.NewController(nil), "held", "v1")
	jobs := fetchJobs(t, sub, others+1)
	held := jobs[others]
	w := sub.newWorker(4)
	var runs sync.WaitGroup
	defer w.close()
	defer runs.Wait() // after release: a blocked run finishes
	key := sub.objectKey(&held.msg.Operations[0])
	sub.applyLocks.Acquire(key)
	release := sync.OnceFunc(func() { sub.applyLocks.Release(key) })
	defer release()

	// run works through a batch on a goroutine, so a delivery blocked for
	// good fails the test instead of hanging it.
	run := func(batch []*job) <-chan struct{} {
		done := make(chan struct{})
		runs.Add(1)
		go func() {
			defer runs.Done()
			defer close(done)
			w.run(nil, batch)
		}()
		return done
	}
	applied := func(id string) bool {
		_, err := sub.Mapper().Find("User", id)
		return err == nil
	}
	select {
	case <-run(jobs[:others]):
	case <-time.After(10 * time.Second):
		t.Fatal("deliveries of other objects waited for the held object's lock")
	}
	for i := range others {
		if id := fmt.Sprintf("o%03d", i); !applied(id) {
			t.Fatalf("%s was not applied", id)
		}
	}

	done := run(jobs[others:])
	waitFor(t, 2*time.Second, func() bool { return held.load() == statePlanned })
	time.Sleep(20 * time.Millisecond) // room to claim, were the lock not held
	if st := held.load(); st != statePlanned || applied("held") {
		t.Fatalf("the held object's delivery is %v (applied: %v) while its lock is held; want planned", st, applied("held"))
	}
	release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the held object's delivery did not apply once its lock was released")
	}
	if !applied("held") {
		t.Fatal("held was not applied")
	}
}

// TestWorkerWindowRefillsPastABlockedDelivery: a worker's window slides.
// With one object's apply lock held, its delivery — first in the queue —
// keeps one of a depth-4 worker's slots, and the deliveries queued
// behind it, of objects on other dispatch-mask bits, all apply through
// the other three before the lock is released. A window that fetched
// again only once its whole batch had returned would apply three.
func TestWorkerWindowRefillsPastABlockedDelivery(t *testing.T) {
	const others = 16
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newSQLApp(t, f, "sub", Config{PipelineDepth: 4})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	payloads := payloadTap(t, f, "pub")
	ids := []string{"held"}
	for i := range others {
		ids = append(ids, fmt.Sprintf("w%02d", i))
	}
	for _, id := range ids {
		createUser(t, pub.NewController(nil), id, "v1") // depends on nothing
	}
	var (
		key      vstore.Key
		heldMask uint64
	)
	for i, p := range payloads() {
		msg, err := wire.UnmarshalProjected(p, sub.resolve)
		if err != nil {
			t.Fatal(err)
		}
		switch mask := sub.applyMask(msg); {
		case i == 0:
			key, heldMask = sub.objectKey(&msg.Operations[0]), mask
		case mask&heldMask != 0:
			t.Fatalf("%s shares held's dispatch-mask bit; pick another id", ids[i])
		}
	}

	sub.applyLocks.Acquire(key)
	sub.StartWorkers(1)
	defer sub.StopWorkers()
	release := sync.OnceFunc(func() { sub.applyLocks.Release(key) })
	defer release() // before StopWorkers, which waits for the held delivery
	applied := func(id string) bool {
		_, err := sub.Mapper().Find("User", id)
		return err == nil
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		n := 0
		for _, id := range ids[1:] {
			if applied(id) {
				n++
			}
		}
		if n == others {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the %d deliveries behind the held one applied while its lock was held", n, others)
		}
	}
	if applied("held") {
		t.Fatal("held was applied while its lock was held")
	}
	release()
	mustSettle(t, 10*time.Second, pub, sub)
}
