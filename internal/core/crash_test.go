package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"synapse/internal/faultinject"
	"synapse/internal/model"
)

// crashPublish runs one Create on the app expecting the armed fault
// site to kill the "process" (a recovered crash panic).
func crashPublish(t *testing.T, pub *App, id, name string) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("crash fault did not fire")
		} else if !faultinject.IsCrash(r) {
			panic(r)
		}
	}()
	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", id)
	rec.Set("name", name)
	_, _ = ctl.Create(rec)
}

// TestCrashBetweenCommitAndPublish simulates the worst 2PC gap: the
// publisher commits locally and dies before the message reaches the
// broker. The durable publish journal closes it: the staged message
// survives in the publisher's own database and RecoverJournal — the
// restarted publisher's first act — republishes it, converging the
// subscriber with NO bootstrap.
func TestCrashBetweenCommitAndPublish(t *testing.T) {
	f := NewFabric()
	pub, pubMapper := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	// Arm the crash: die after the DB commit, before the broker send.
	pub.Faults().Arm(FaultBeforePublish, faultinject.Crash())
	crashPublish(t, pub, "u1", "committed-but-unpublished")

	// The write committed locally, no message reached the broker, and
	// the journal retains the staged message.
	if _, err := pubMapper.Find("User", "u1"); err != nil {
		t.Fatalf("local commit missing: %v", err)
	}
	drain(t, sub)
	if _, err := subMapper.Find("User", "u1"); err == nil {
		t.Fatal("subscriber received a message that was never published")
	}
	if d := pub.JournalDepth(); d != 1 {
		t.Fatalf("journal depth = %d, want 1", d)
	}

	// Recovery: the restarted publisher drains its journal. No
	// subscriber bootstrap anywhere.
	n, err := pub.RecoverJournal()
	if err != nil || n != 1 {
		t.Fatalf("RecoverJournal = %d, %v; want 1, nil", n, err)
	}
	if d := pub.JournalDepth(); d != 0 {
		t.Fatalf("journal depth after drain = %d, want 0", d)
	}
	if got := pub.Stats().Republished; got != 1 {
		t.Errorf("Stats.Republished = %d, want 1", got)
	}
	drain(t, sub)
	got, err := subMapper.Find("User", "u1")
	if err != nil || got.String("name") != "committed-but-unpublished" {
		t.Fatalf("journal replay did not heal the gap: %+v, %v", got, err)
	}

	// And live replication continues normally afterwards.
	ctl := pub.NewController(nil)
	patch := model.NewRecord("User", "u1")
	patch.Set("name", "alive-again")
	if _, err := ctl.Update(patch); err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	got, _ = subMapper.Find("User", "u1")
	if got.String("name") != "alive-again" {
		t.Errorf("post-recovery update = %q", got.String("name"))
	}
}

// TestCrashBetweenCommitAndPublishTransactional is the same crash on a
// transactional (SQL) publisher, where the journal entry rides in the
// SAME engine transaction as the data write (the transactional outbox):
// the committed-but-unsent state is guaranteed to leave a journal entry.
func TestCrashBetweenCommitAndPublishTransactional(t *testing.T) {
	f := NewFabric()
	pub, pubMapper := newSQLApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	pub.Faults().Arm(FaultBeforePublish, faultinject.Crash())
	crashPublish(t, pub, "u1", "committed-but-unpublished")

	if _, err := pubMapper.Find("User", "u1"); err != nil {
		t.Fatalf("local commit missing: %v", err)
	}
	if d := pub.JournalDepth(); d != 1 {
		t.Fatalf("journal depth = %d, want 1", d)
	}
	if n, err := pub.RecoverJournal(); err != nil || n != 1 {
		t.Fatalf("RecoverJournal = %d, %v; want 1, nil", n, err)
	}
	drain(t, sub)
	got, err := subMapper.Find("User", "u1")
	if err != nil || got.String("name") != "committed-but-unpublished" {
		t.Fatalf("journal replay did not heal the gap: %+v, %v", got, err)
	}
}

// TestCrashBeforeJournalAck covers the other half of the window: the
// message reached the broker but the publisher died before deleting the
// journal entry. Recovery republishes a duplicate, which the
// subscriber's per-object version guard absorbs (exactly one apply).
func TestCrashBeforeJournalAck(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	var applies int
	d, _ := sub.Descriptor("User")
	d.Callbacks.On(model.AfterCreate, func(*model.CallbackCtx) error {
		applies++
		return nil
	})
	d.Callbacks.On(model.AfterUpdate, func(*model.CallbackCtx) error {
		applies++
		return nil
	})

	pub.Faults().Arm(FaultBeforeJournalAck, faultinject.Crash())
	crashPublish(t, pub, "u1", "sent-but-unacked")

	if d := pub.JournalDepth(); d != 1 {
		t.Fatalf("journal depth = %d, want 1", d)
	}
	if n, err := pub.RecoverJournal(); err != nil || n != 1 {
		t.Fatalf("RecoverJournal = %d, %v; want 1, nil", n, err)
	}
	// Both the original send and the replay are in the queue.
	drain(t, sub)
	got, err := subMapper.Find("User", "u1")
	if err != nil || got.String("name") != "sent-but-unacked" {
		t.Fatalf("subscriber state: %+v, %v", got, err)
	}
	if applies != 1 {
		t.Errorf("applied %d times, want exactly 1 (duplicate replay must be discarded)", applies)
	}
}

// TestBootstrapHealsLostMessageGap keeps the paper's original recovery
// (§4.4) under test: a message the broker lost leaves no local record of
// the gap — the journal saw it sent — so only a subscriber bootstrap can
// close it.
func TestBootstrapHealsLostMessageGap(t *testing.T) {
	f := NewFabric()
	pub, pubMapper := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	f.Broker.SetLoss(func(queue, exchange string, payload []byte) bool { return queue == "sub" })
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "committed-but-lost")
	if _, err := pub.NewController(nil).Create(rec); err != nil {
		t.Fatal(err)
	}
	f.Broker.SetLoss(nil)

	// The write committed locally and nothing records the lost message.
	if _, err := pubMapper.Find("User", "u1"); err != nil {
		t.Fatalf("local commit missing: %v", err)
	}
	if n, err := pub.RecoverJournal(); err != nil || n != 0 || pub.JournalDepth() != 0 {
		t.Fatalf("RecoverJournal = %d, %v, depth %d; want nothing owed", n, err, pub.JournalDepth())
	}
	drain(t, sub)
	if _, err := subMapper.Find("User", "u1"); err == nil {
		t.Fatal("subscriber received a message the broker lost")
	}

	// Only a (partial) bootstrap closes the gap.
	if err := sub.Bootstrap("pub"); err != nil {
		t.Fatal(err)
	}
	got, err := subMapper.Find("User", "u1")
	if err != nil || got.String("name") != "committed-but-lost" {
		t.Fatalf("bootstrap did not heal the gap: %+v, %v", got, err)
	}
}

// TestPerObjectOrderUnderTimeouts: even when dependency waits time out
// (lost messages), a causal subscriber never applies an older version of
// an object over a newer one — the version guard's core invariant.
func TestPerObjectOrderUnderTimeouts(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "likes")
	msgs := tap(t, f, "pub")

	sub, subMapper := newDocApp(t, f, "sub", Config{DepTimeout: 10 * time.Millisecond})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"likes"}, Mode: Causal})
	drainQueue(t, sub)

	// One object, 12 sequential versions from independent controllers.
	ctl0 := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("likes", 0)
	if _, err := ctl0.Create(rec); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 12; i++ {
		ctl := pub.NewController(nil)
		patch := model.NewRecord("User", "u1")
		patch.Set("likes", i)
		if _, err := ctl.Update(patch); err != nil {
			t.Fatal(err)
		}
	}
	got := msgs()

	// Record the value after every apply via a callback.
	var mu sync.Mutex
	var observed []int64
	d, _ := sub.Descriptor("User")
	record := func(ctx *model.CallbackCtx) error {
		mu.Lock()
		observed = append(observed, ctx.Record.Int("likes"))
		mu.Unlock()
		return nil
	}
	d.Callbacks.On(model.AfterCreate, record)
	d.Callbacks.On(model.AfterUpdate, record)

	// Deliver every third message first (simulating heavy reordering
	// with gaps), concurrently.
	var wg sync.WaitGroup
	order := []int{9, 6, 3, 0, 11, 8, 5, 2, 10, 7, 4, 1}
	for _, i := range order {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := sub.ProcessMessage(got[i]); err != nil {
				t.Errorf("M%d: %v", i, err)
			}
		}(i)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	// Whatever subset applied, the observed sequence must be strictly
	// increasing (no stale overwrite), and the final state is the newest.
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(observed); i++ {
		if observed[i] <= observed[i-1] {
			t.Fatalf("stale apply: observed sequence %v", observed)
		}
	}
	final, _ := subMapper.Find("User", "u1")
	if final.Int("likes") != 11 {
		t.Errorf("final state = %d, want 11 (sequence %v)", final.Int("likes"), observed)
	}
}

// TestRedeliveryAfterMidBatchApplyFailure: a worker that dies partway
// through applying a multi-operation message (first operation persisted,
// second not) must not double-apply after the broker redelivers. The
// claim rollback in applyOpsBatched restores exactly the versions of the
// unapplied operations, so the retry skips the persisted operation as
// stale and applies only what is missing.
func TestRedeliveryAfterMidBatchApplyFailure(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			f := NewFabric()
			pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
			mustPublish(t, pub, userDesc(), "name")
			mustPublish(t, pub, postDesc(), "body", "author")

			sub, subMapper := newDocApp(t, f, "sub", Config{PipelineDepth: depth})
			mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
			mustSubscribe(t, sub, postDesc(), SubSpec{From: "pub", Attrs: []string{"body", "author"}, Mode: Causal})

			// Count applies per record; kill the Post's first attempt before it
			// persists (BeforeCreate runs ahead of the insert, so the operation
			// fails exactly like a worker dying mid-batch: the User is already
			// in the DB, the Post is not, and its version claim must be rolled
			// back for the redelivery to reclaim).
			var mu sync.Mutex
			applied := map[string]int{}
			attempts := 0
			count := func(ctx *model.CallbackCtx) error {
				mu.Lock()
				applied[ctx.Record.Model+"/"+ctx.Record.ID]++
				mu.Unlock()
				return nil
			}
			ud, _ := sub.Descriptor("User")
			ud.Callbacks.On(model.AfterCreate, count)
			ud.Callbacks.On(model.AfterUpdate, count)
			pd, _ := sub.Descriptor("Post")
			pd.Callbacks.On(model.AfterCreate, count)
			pd.Callbacks.On(model.BeforeCreate, func(*model.CallbackCtx) error {
				mu.Lock()
				defer mu.Unlock()
				attempts++
				if attempts == 1 {
					return fmt.Errorf("worker killed mid-apply")
				}
				return nil
			})

			sub.StartWorkers(1)
			defer sub.StopWorkers()

			// One transactional message carrying both operations (§4.2).
			ctl := pub.NewController(nil)
			if err := ctl.Transaction(func(tx *Txn) error {
				u := model.NewRecord("User", "u1")
				u.Set("name", "alice")
				if err := tx.Create(u); err != nil {
					return err
				}
				p := model.NewRecord("Post", "p1")
				p.Set("body", "hello")
				p.Set("author", "u1")
				return tx.Create(p)
			}); err != nil {
				t.Fatal(err)
			}

			// The redelivered message completes the Post.
			waitFor(t, 10*time.Second, func() bool {
				_, err := subMapper.Find("Post", "p1")
				return err == nil
			})

			mu.Lock()
			if n := applied["User/u1"]; n != 1 {
				t.Errorf("User applied %d times, want exactly 1 (double-apply after redelivery)", n)
			}
			if n := applied["Post/p1"]; n != 1 {
				t.Errorf("Post applied %d times, want exactly 1", n)
			}
			if attempts != 2 {
				t.Errorf("Post create attempted %d times, want 2 (fail, then redelivery)", attempts)
			}
			mu.Unlock()

			// Version bookkeeping survived the partial failure: a later update to
			// the already-applied object still replicates.
			patch := model.NewRecord("User", "u1")
			patch.Set("name", "alice-v2")
			if _, err := pub.NewController(nil).Update(patch); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool {
				got, err := subMapper.Find("User", "u1")
				return err == nil && got.String("name") == "alice-v2"
			})
			mu.Lock()
			if n := applied["User/u1"]; n != 2 {
				t.Errorf("User applied %d times after follow-up update, want 2", n)
			}
			mu.Unlock()
		})
	}
}

// TestManyAppsOneFabricSmoke: a larger ecosystem (12 services in a
// chain) replicates end to end — the "ecosystems of Web services that
// subscribe to data from each other, enhance it, and publish it
// further" claim of §3.1, at depth.
func TestManyAppsOneFabricSmoke(t *testing.T) {
	f := NewFabric()
	const hops = 6
	// Owner publishes the base model.
	owner, _ := newDocApp(t, f, "hop0", Config{})
	base := model.NewDescriptor("Doc", model.Field{Name: "base", Type: model.String})
	mustPublish(t, owner, base, "base")

	// Each hop decorates with one more attribute and republished it.
	apps := []*App{owner}
	for h := 1; h <= hops; h++ {
		app, _ := newDocApp(t, f, fmt.Sprintf("hop%d", h), Config{})
		d := model.NewDescriptor("Doc", model.Field{Name: "base", Type: model.String})
		// Subscribe to the owner's base attribute and every upstream
		// decoration.
		mustSubscribe(t, app, d, SubSpec{From: "hop0", Attrs: []string{"base"}})
		for up := 1; up < h; up++ {
			attr := fmt.Sprintf("deco%d", up)
			d.AddField(model.Field{Name: attr, Type: model.String})
			mustSubscribe(t, app, d, SubSpec{From: fmt.Sprintf("hop%d", up), Attrs: []string{attr}})
		}
		own := fmt.Sprintf("deco%d", h)
		d.AddField(model.Field{Name: own, Type: model.String})
		if err := app.Publish(d, PubSpec{Attrs: []string{own}}); err != nil {
			t.Fatal(err)
		}
		app.StartWorkers(1)
		defer app.StopWorkers()
		apps = append(apps, app)

		// The decoration is computed when the base arrives.
		d.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
			if ctx.Bootstrapping {
				return nil
			}
			ctl := apps[h].NewController(nil)
			deco := model.NewRecord("Doc", ctx.Record.ID)
			deco.Set(own, fmt.Sprintf("added-by-hop%d", h))
			_, err := ctl.Update(deco)
			return err
		})
	}

	ctl := owner.NewController(nil)
	rec := model.NewRecord("Doc", "d1")
	rec.Set("base", "origin")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}

	// The last hop eventually has the base attribute plus every
	// upstream decoration.
	last := apps[hops]
	waitFor(t, 15*time.Second, func() bool {
		got, err := last.Mapper().Find("Doc", "d1")
		if err != nil {
			return false
		}
		if got.String("base") != "origin" {
			return false
		}
		for up := 1; up < hops; up++ {
			if got.String(fmt.Sprintf("deco%d", up)) == "" {
				return false
			}
		}
		return true
	})
}

// TestCrashBetweenIncrFlushAndAckFlush kills a pipelined subscriber in
// the group-commit window the ack-after-increment ordering exists for:
// a flush's counter increments have landed, its coalesced acks have
// not. The broker still holds every delivery unacked, so a restart
// redelivers all of them; the per-object version guard must discard
// the duplicate applies as stale — each record mutates exactly once —
// and replication must keep working afterwards.
func TestCrashBetweenIncrFlushAndAckFlush(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{PipelineDepth: 4})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})

	var mu sync.Mutex
	applied := map[string]int{}
	count := func(ctx *model.CallbackCtx) error {
		mu.Lock()
		applied[ctx.Record.ID]++
		mu.Unlock()
		return nil
	}
	ud, _ := sub.Descriptor("User")
	ud.Callbacks.On(model.AfterCreate, count)
	ud.Callbacks.On(model.AfterUpdate, count)

	// "Die" at every ack flush: increments land, acks never follow.
	// (Fail, not Crash: flushes run on worker goroutines, where a panic
	// would be unrecoverable.)
	sub.Faults().ArmN(FaultBeforeAckFlush, 0, -1,
		faultinject.Fail(fmt.Errorf("simulated crash before ack flush")))

	sub.StartWorkers(2)
	defer sub.StopWorkers()

	const writes = 6
	ctl := pub.NewController(nil)
	for i := 0; i < writes; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("name", fmt.Sprintf("name%d", i))
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	// Everything applies and increments; nothing acks.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(applied) == writes
	})
	q := sub.Queue()
	waitFor(t, 10*time.Second, func() bool {
		return q.Unacked() == writes && q.Len() == 0
	})
	if hits := sub.Faults().Hits(FaultBeforeAckFlush); hits == 0 {
		t.Fatal("ack-flush fault never fired")
	}

	// Crash-restart the broker: the log replays the publishes and, with
	// no acks on it, every delivery returns to the queue front flagged
	// Redelivered. The "restarted" subscriber (fault disarmed) rides
	// ErrBrokerDown, reattaches, and re-processes the lot.
	sub.Faults().Disarm(FaultBeforeAckFlush)
	f.Broker.Crash()
	f.Broker.Restart()

	mustSettle(t, 10*time.Second, pub, sub)
	if got := sub.Stats().Redelivered; got < writes {
		t.Errorf("Redelivered = %d, want >= %d (every unacked delivery replays)", got, writes)
	}
	// The version guard discarded every duplicate apply.
	mu.Lock()
	for id, n := range applied {
		if n != 1 {
			t.Errorf("record %s applied %d times, want exactly 1 (stale redelivery leaked through the guard)", id, n)
		}
	}
	mu.Unlock()

	// Replication stays live past the re-incremented counters: a fresh
	// update still claims and applies.
	patch := model.NewRecord("User", "u0")
	patch.Set("name", "after-crash")
	if _, err := pub.NewController(nil).Update(patch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		got, err := subMapper.Find("User", "u0")
		return err == nil && got.String("name") == "after-crash"
	})
}
