package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/faultinject"
	"synapse/internal/model"
)

// TestBootstrapNewSubscriber: a subscriber that comes online late
// receives the publisher's full state through the three-step bootstrap.
func TestBootstrapNewSubscriber(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name", "likes")

	// Fifty objects exist before the subscriber is born.
	ctl := pub.NewController(nil)
	for i := 0; i < 50; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%02d", i))
		rec.Set("name", fmt.Sprintf("user-%d", i))
		rec.Set("likes", i)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name", "likes"}})
	if err := sub.Bootstrap("pub"); err != nil {
		t.Fatal(err)
	}
	if n := subMapper.Len("User"); n != 50 {
		t.Fatalf("bootstrapped %d users, want 50", n)
	}
	got, _ := subMapper.Find("User", "u07")
	if got.String("name") != "user-7" || got.Int("likes") != 7 {
		t.Errorf("bootstrapped record = %+v", got.Attrs)
	}

	// Post-bootstrap updates flow causally with the loaded counters.
	patch := model.NewRecord("User", "u07")
	patch.Set("likes", 999)
	if _, err := ctl.Update(patch); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	got, _ = subMapper.Find("User", "u07")
	if got.Int("likes") != 999 {
		t.Errorf("post-bootstrap update = %+v", got.Attrs)
	}
}

// TestBootstrapPredicateInCallbacks reproduces Fig 2: a mailer callback
// skips sending during bootstrap.
func TestBootstrapPredicateInCallbacks(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name", "email")

	ctl := pub.NewController(nil)
	for i := 0; i < 5; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("name", "x")
		rec.Set("email", fmt.Sprintf("u%d@example.com", i))
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	mailer, _ := newDocApp(t, f, "mailer", Config{})
	d := userDesc()
	var sent []string
	d.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		if !ctx.Bootstrapping {
			sent = append(sent, ctx.Record.String("email"))
		}
		return nil
	})
	mustSubscribe(t, mailer, d, SubSpec{From: "pub", Attrs: []string{"name", "email"}})
	if err := mailer.Bootstrap("pub"); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 0 {
		t.Fatalf("mailer sent %d emails during bootstrap", len(sent))
	}

	// New users after bootstrap do get welcome emails.
	rec := model.NewRecord("User", "new")
	rec.Set("name", "x")
	rec.Set("email", "new@example.com")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, mailer)
	if len(sent) != 1 || sent[0] != "new@example.com" {
		t.Errorf("post-bootstrap emails = %v", sent)
	}
}

// TestBootstrapConcurrentWithLiveTraffic: writes racing a chunked join
// are neither lost nor double-applied; the subscriber converges to the
// publisher's state, and no chunk holds the publisher's write locks for
// more than the 250ms zero-pause ceiling.
func TestBootstrapConcurrentWithLiveTraffic(t *testing.T) {
	const n = 2000
	f := NewFabric()
	pub, pubMapper := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "likes")

	ctl := pub.NewController(nil)
	for i := 0; i < n; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%04d", i))
		rec.Set("likes", 0)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	sub, subMapper := newDocApp(t, f, "sub", Config{BootstrapChunkSize: 256})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"likes"}})

	// Live writes for the whole join, one every 500µs: object w%n gets
	// the value w, so the writes last until the walk is over, not run
	// out before it starts.
	var writes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wctl := pub.NewController(nil)
		for w := 1; ; w++ {
			select {
			case <-stop:
				return
			default:
			}
			patch := model.NewRecord("User", fmt.Sprintf("u%04d", w%n))
			patch.Set("likes", w)
			if _, err := wctl.Update(patch); err != nil {
				t.Error(err)
				return
			}
			writes.Add(1)
			time.Sleep(500 * time.Microsecond)
		}
	}()
	waitFor(t, time.Second, func() bool { return writes.Load() > 0 })
	err := sub.Bootstrap("pub")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	drain(t, sub)

	t.Logf("%d live writes raced %d chunks; max publish stall %v",
		writes.Load(), sub.Stats().BootstrapChunks, pub.Stats().MaxPublishStall)
	if chunks := sub.Stats().BootstrapChunks; chunks < n/256 {
		t.Fatalf("join walked %d chunks, want >= %d", chunks, n/256)
	}
	if stall := pub.Stats().MaxPublishStall; stall >= 250*time.Millisecond {
		t.Fatalf("a chunk held the publisher's writes for %v, want < 250ms", stall)
	}
	if got := subMapper.Len("User"); got != n {
		t.Fatalf("subscriber holds %d users, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("u%04d", i)
		want, _ := pubMapper.Find("User", id)
		got, err := subMapper.Find("User", id)
		if err != nil {
			t.Fatalf("missing %s: %v", id, err)
		}
		if got.Int("likes") != want.Int("likes") {
			t.Errorf("%s: sub=%d pub=%d", id, got.Int("likes"), want.Int("likes"))
		}
	}
}

// TestDecommissionAndRecovery reproduces §4.4: a subscriber that stays
// away past its queue limit is decommissioned; on return, a partial
// bootstrap brings it back in sync.
func TestDecommissionAndRecovery(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")

	sub, subMapper := newDocApp(t, f, "sub", Config{QueueMaxLen: 5})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	// The subscriber is away; 20 creates overflow its queue.
	ctl := pub.NewController(nil)
	for i := 0; i < 20; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%02d", i))
		rec.Set("name", "x")
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !sub.Queue().Dead() {
		t.Fatal("queue not decommissioned")
	}

	// The subscriber comes back: workers detect the dead queue and run
	// the partial bootstrap automatically.
	sub.StartWorkers(2)
	defer sub.StopWorkers()
	waitFor(t, 5*time.Second, func() bool { return subMapper.Len("User") == 20 })

	// And live traffic flows again afterwards.
	rec := model.NewRecord("User", "fresh")
	rec.Set("name", "y")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return subMapper.Len("User") == 21 })
}

// TestGenerationRecovery reproduces the publisher version-store death of
// §4.4: the generation number increments, subscribers flush and resync,
// and causality resumes within the new generation.
func TestGenerationRecovery(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "before")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)

	// The publisher's version store dies.
	pub.Store().Kill()
	patch := model.NewRecord("User", "u1")
	patch.Set("name", "during")
	if _, err := ctl.Update(patch); err == nil {
		t.Fatal("write succeeded with a dead version store")
	}

	// Recovery: generation bump + revive.
	gen := pub.RecoverVersionStore()
	if gen != 1 {
		t.Fatalf("generation = %d", gen)
	}

	// Publishing resumes; the new-generation message carries gen 1 and
	// fresh (restarted) counters.
	patch2 := model.NewRecord("User", "u1")
	patch2.Set("name", "after")
	if _, err := ctl.Update(patch2); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	got, _ := subMapper.Find("User", "u1")
	if got.String("name") != "after" {
		t.Errorf("post-recovery state = %q", got.String("name"))
	}

	// The subscriber flushed its version store at the barrier; ordering
	// within the new generation still works.
	patch3 := model.NewRecord("User", "u1")
	patch3.Set("name", "after2")
	if _, err := ctl.Update(patch3); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	got, _ = subMapper.Find("User", "u1")
	if got.String("name") != "after2" {
		t.Errorf("second post-recovery update = %q", got.String("name"))
	}
}

// TestStaleGenerationMessagesDropped: once the barrier has advanced,
// leftover previous-generation messages are discarded.
func TestStaleGenerationMessagesDropped(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	msgs := tap(t, f, "pub")

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	drainQueue(t, sub)

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "old-gen")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	oldGen := msgs()

	pub.Store().Kill()
	pub.RecoverVersionStore()
	patch := model.NewRecord("User", "u1")
	patch.Set("name", "new-gen")
	if _, err := ctl.Update(patch); err != nil {
		t.Fatal(err)
	}
	newGen := msgs()

	// New-generation message first: advances the barrier.
	if err := sub.ProcessMessage(newGen[0]); err != nil {
		t.Fatal(err)
	}
	// Old-generation message afterwards: dropped as stale.
	if err := sub.ProcessMessage(oldGen[0]); err != errStaleGeneration {
		t.Fatalf("stale message error = %v", err)
	}
	got, _ := subMapper.Find("User", "u1")
	if got.String("name") != "new-gen" {
		t.Errorf("state = %q", got.String("name"))
	}
}

// TestLostMessageDecommissionCycle reproduces the §6.5 production
// incident end to end: a lost message deadlocks a pure-causal
// subscriber, its queue fills and is decommissioned, and the automatic
// partial bootstrap recovers the system without human intervention.
func TestLostMessageDecommissionCycle(t *testing.T) {
	f := NewFabric()
	pub, pubMapper := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")

	sub, subMapper := newDocApp(t, f, "sub", Config{QueueMaxLen: 6})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	sub.StartWorkers(2)
	defer sub.StopWorkers()

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "v0")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return subMapper.Len("User") == 1 })

	// Drop exactly one update on the wire (the RabbitMQ upgrade story).
	dropped := false
	f.Broker.SetLoss(func(queue, exchange string, payload []byte) bool {
		if queue == "sub" && !dropped {
			dropped = true
			return true
		}
		return false
	})
	patch := model.NewRecord("User", "u1")
	patch.Set("name", "lost")
	if _, err := ctl.Update(patch); err != nil {
		t.Fatal(err)
	}
	f.Broker.SetLoss(nil)

	// Subsequent updates pile up behind the missing dependency until the
	// queue overflows and the subscriber is decommissioned, then
	// re-bootstrapped by its own workers.
	for i := 1; i <= 12; i++ {
		p := model.NewRecord("User", "u1")
		p.Set("name", fmt.Sprintf("v%d", i))
		if _, err := ctl.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		got, err := subMapper.Find("User", "u1")
		if err != nil {
			return false
		}
		want, _ := pubMapper.Find("User", "u1")
		return got.String("name") == want.String("name")
	})
	// The updates parked behind the lost one died with the decommissioned
	// queue handle; recovery must not leave them parked.
	waitFor(t, 5*time.Second, func() bool { return len(sub.Stats().Parked) == 0 })
}

// TestRecoverQueueRestartsJournaledScan: a recovery bootstrap that had
// journaled its scan as done and then lost its queue again (a second
// overflow before the drain finished) must scan again on the next
// recovery — the live messages that kept the scanned rows current died
// with the queue. Resuming from the cursor skipped the snapshot and left
// the subscriber permanently stale (the TestDecommissionLastResort
// flake, ~1 run in 20).
func TestRecoverQueueRestartsJournaledScan(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{QueueMaxLen: 4})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "v0")
	if err := sub.writeCursor("pub", "User", "u1", true); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		updateUser(t, ctl, "u1", fmt.Sprintf("v%d", i))
	}
	if !sub.Queue().Dead() {
		t.Fatal("queue did not decommission")
	}
	if err := sub.RecoverQueue(); err != nil {
		t.Fatal(err)
	}
	if got, err := subMapper.Find("User", "u1"); err != nil || got.String("name") != "v6" {
		t.Fatalf("after recovery u1 = %v, %v; want v6", got, err)
	}
}

// TestBootstrapDrainDeadLettersFailingDelivery: bootstrap's drain runs a
// delivery the way a worker does, so a failed apply is a counted attempt
// and a delivery that keeps failing is set aside after
// MaxDeliveryAttempts. Handed back uncounted, it came straight back to
// the drain and Bootstrap never returned.
func TestBootstrapDrainDeadLettersFailingDelivery(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustPublish(t, pub, postDesc(), "body")
	sub, _ := newDocApp(t, f, "sub", Config{MaxDeliveryAttempts: 3})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	mustSubscribe(t, sub, postDesc(), SubSpec{From: "pub", Attrs: []string{"body"}})

	p := model.NewRecord("Post", "p1")
	p.Set("body", "b")
	if _, err := pub.NewController(nil).Create(p); err != nil {
		t.Fatal(err)
	}
	sub.Faults().ArmN(FaultApply, 0, -1, faultinject.Fail(errors.New("injected apply error")))

	done := make(chan error, 1)
	go func() { done <- sub.Bootstrap("pub", "User") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		sub.Faults().Disarm(FaultApply) // let the drain finish
		<-done
		t.Fatal("Bootstrap did not return within 2s: the drain kept retrying the failing delivery")
	}
	if n := sub.Stats().DeadLetters; n != 1 {
		t.Fatalf("DeadLetters = %d, want the failing delivery set aside", n)
	}
}

// TestBootstrapDrainParkedJobResumesOnWorker: a drain job that is not
// ready parks like a worker's, and its runFetched returns. A worker
// started later on the same app applies the create it waits for, takes
// it off the ready list and finishes it: the rows converge and nothing
// stays unacked.
func TestBootstrapDrainParkedJobResumesOnWorker(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newSQLApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "v1")
	updateUser(t, ctl, "u1", "v2")
	reorderFront(t, sub, 1, 0) // the update, ahead of its create

	q := sub.Queue()
	d, ok, err := q.TryGet()
	if err != nil || !ok {
		t.Fatalf("TryGet: %v, %v", ok, err)
	}
	var resumedBy atomic.Pointer[worker]
	watchJobs(sub, func(j *job, from, to jobState) {
		if j.d.Tag == d.Tag && from == stateReady {
			resumedBy.Store(j.lane.w)
		}
	})
	drain := sub.newWorker(1)
	defer drain.close()
	drain.runFetched(q, d)
	if p, r := parkedAndReady(sub); p != 1 || r != 0 {
		t.Fatalf("parked=%d ready=%d after the drain ran the update, want it parked", p, r)
	}

	sub.StartWorkers(1)
	defer sub.StopWorkers()
	mustSettle(t, 2*time.Second, pub, sub)
	if w := resumedBy.Load(); w == nil || w == drain {
		t.Fatalf("the update was resumed by %p, want a worker's lane, not the drain's %p", w, drain)
	}
}

// TestPartialBootstrapFillsWhatTheLiveApplySkipped: a live update
// applied under a narrower subscription leaves the object's guard at
// the publisher's version without the attribute a later Subscribe adds.
// The partial bootstrap that follows (§4.3) must still deliver it: its
// row is the publisher's state at that very version.
func TestPartialBootstrapFillsWhatTheLiveApplySkipped(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name", "email")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	subUser := userDesc()
	mustSubscribe(t, sub, subUser, SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	u := model.NewRecord("User", "u1")
	u.Set("name", "ada")
	u.Set("email", "ada@v1")
	if _, err := ctl.Create(u); err != nil {
		t.Fatal(err)
	}
	u.Set("email", "ada@v2")
	if _, err := ctl.Update(u); err != nil {
		t.Fatal(err)
	}
	drain(t, sub) // both versions applied, neither with an email

	mustSubscribe(t, sub, subUser, SubSpec{From: "pub", Attrs: []string{"email"}})
	if err := sub.Bootstrap("pub", "User"); err != nil {
		t.Fatal(err)
	}
	if got, err := subMapper.Find("User", "u1"); err != nil || got.String("email") != "ada@v2" {
		t.Fatalf("u1 after the partial bootstrap = %v, %v; want email ada@v2", got, err)
	}
}

// TestPartialBootstrapSpecificModels only syncs the named models.
func TestPartialBootstrapSpecificModels(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustPublish(t, pub, postDesc(), "body")

	ctl := pub.NewController(nil)
	u := model.NewRecord("User", "u1")
	u.Set("name", "a")
	if _, err := ctl.Create(u); err != nil {
		t.Fatal(err)
	}
	p := model.NewRecord("Post", "p1")
	p.Set("body", "b")
	if _, err := ctl.Create(p); err != nil {
		t.Fatal(err)
	}

	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	mustSubscribe(t, sub, postDesc(), SubSpec{From: "pub", Attrs: []string{"body"}})
	drainQueue(t, sub) // pretend the live messages were never seen

	if err := sub.Bootstrap("pub", "User"); err != nil {
		t.Fatal(err)
	}
	if subMapper.Len("User") != 1 {
		t.Error("partial bootstrap missed the requested model")
	}
	if subMapper.Len("Post") != 0 {
		t.Error("partial bootstrap synced an unrequested model")
	}
}
