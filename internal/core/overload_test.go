package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"synapse/internal/broker"
	"synapse/internal/model"
)

// --- publisher admission control --------------------------------------

// A publisher facing a pressured subscriber queue must stop growing it:
// past the high watermark every journaled publish degrades to
// journal-and-defer, and once consumers drain the queue below the low
// watermark the journal drain republishes everything.
func TestPublishDefersPastHighWatermarkAndResumes(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, _ := newSQLApp(t, f, "sub", Config{
		QueueHighWatermark: 4,
		Workers:            2,
	})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	const writes = 20
	ctl := pub.NewController(nil)
	for i := 0; i < writes; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("name", "n")
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	q := sub.Queue()
	if got := q.MaxDepthSeen(); got > 4 {
		t.Fatalf("queue depth reached %d, want <= high watermark 4", got)
	}
	st := pub.Stats()
	if st.Deferred != writes-4 {
		t.Fatalf("Deferred = %d, want %d (everything past the watermark)", st.Deferred, writes-4)
	}
	if st.JournalDepth != writes-4 {
		t.Fatalf("JournalDepth = %d, want %d", st.JournalDepth, writes-4)
	}
	if q.Pressure() != broker.PressureHigh {
		t.Fatal("queue should signal PressureHigh at the watermark")
	}

	// Consumers drain; the publisher's journal drain, paced, observes
	// the cleared signal and republishes every deferred message — zero
	// updates lost.
	pub.StartWorkers(1) // the journal drain (pub subscribes to nothing)
	defer pub.StopWorkers()
	sub.StartWorkers(0)
	defer sub.StopWorkers()
	mustSettle(t, 10*time.Second, pub, sub)
	if got := sub.Queue().MaxDepthSeen(); got > 4+2 {
		t.Fatalf("drain overshoot: depth reached %d", got)
	}
}

// --- slow-consumer isolation ------------------------------------------

// A subscriber callback that hangs forever must not wedge its worker:
// the stall watchdog abandons the apply after its escalating budget,
// sibling messages keep flowing, and the poison message quarantines to
// the dead-letter set-aside after MaxDeliveryAttempts.
func TestStallWatchdogQuarantinesHungCallback(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			f := NewFabric()
			pub, _ := newDocApp(t, f, "pub", Config{})
			sub, subMapper := newSQLApp(t, f, "sub", Config{
				Workers:             2,
				PipelineDepth:       depth,
				ApplyTimeout:        5 * time.Millisecond,
				MaxDeliveryAttempts: 2,
				DepTimeout:          20 * time.Millisecond,
			})
			mustPublish(t, pub, userDesc(), "name")

			release := make(chan struct{})
			d := userDesc()
			hang := func(ctx *model.CallbackCtx) error {
				if ctx.Record.ID == "poison" {
					<-release
				}
				return nil
			}
			d.Callbacks.On(model.AfterCreate, hang)
			d.Callbacks.On(model.AfterUpdate, hang)
			mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"name"}})
			sub.StartWorkers(0)
			defer sub.StopWorkers()
			started := runtime.NumGoroutine()

			ctl := pub.NewController(nil)
			poison := model.NewRecord("User", "poison")
			poison.Set("name", "hang")
			if _, err := ctl.Create(poison); err != nil {
				t.Fatal(err)
			}
			// Sibling ids are chosen to land on dispatch-mask bits distinct
			// from the poison object's: a message sharing the hung apply's
			// bit waits in that worker's dispatch until the watchdog takes
			// the hung job — correct isolation, but not what this test
			// measures.
			const siblings = 6
			for i := 0; i < siblings; i++ {
				rec := model.NewRecord("User", fmt.Sprintf("sib%d", i))
				rec.Set("name", "n")
				if _, err := ctl.Create(rec); err != nil {
					t.Fatal(err)
				}
			}

			// Quarantine within the escalation budget (5ms + 10ms + backoffs,
			// asserted with generous race-detector slack) while siblings drain.
			start := time.Now()
			waitFor(t, 5*time.Second, func() bool { return sub.Stats().DeadLettered >= 1 })
			quarantine := time.Since(start)
			if quarantine > 2*time.Second {
				t.Fatalf("quarantine took %v", quarantine)
			}
			waitFor(t, 5*time.Second, func() bool { return sub.Stats().Processed >= siblings })
			st := sub.Stats()
			if st.Stalled < 2 {
				t.Fatalf("Stalled = %d, want >= 2 (one per delivery attempt)", st.Stalled)
			}
			if st.DeadLetters != 1 {
				t.Fatalf("DeadLetters = %d, want 1", st.DeadLetters)
			}

			// Operator clears the fault: the hung applies unblock and the
			// replayed dead letter converges the subscriber.
			close(release)
			if n := sub.ReplayDeadLetters(); n != 1 {
				t.Fatalf("ReplayDeadLetters = %d, want 1", n)
			}
			waitFor(t, 5*time.Second, func() bool {
				_, err := subMapper.Find("User", "poison")
				return err == nil && sub.Stats().DeadLetters == 0
			})
			// Each straggler exits once its callback returns; the lanes that
			// replaced them are all that is left.
			waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= started })
		})
	}
}

// TestStallClockStartsAtClaim: the watchdog times the apply from its
// claim, not the version-store window before it nor a parked wait, so a
// 20ms budget against a 50ms window stalls nothing. (A 2ms budget shows
// the same, but a descheduled apply under -race can outlast it.) A clock
// that counted the window stalled and nacked every delivery while the
// straggler went on to apply and increment, and the redelivery
// incremented again.
func TestStallClockStartsAtClaim(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newSQLApp(t, f, "sub", Config{Workers: 1, ApplyTimeout: 20 * time.Millisecond, VStoreRTT: 50 * time.Millisecond})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "v1")
	updateUser(t, ctl, "u1", "v2")
	reorderFront(t, sub, 1, 0)

	sub.StartWorkers(1)
	defer sub.StopWorkers()
	mustSettle(t, 5*time.Second, pub, sub)
	if st := sub.Stats(); st.Stalled != 0 {
		t.Fatalf("Stalled = %d, want 0: no callback is slow", st.Stalled)
	}
	want, err := pub.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sub.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subscriber counters %v, publisher's %v", got, want)
	}
}

// --- graceful drain ----------------------------------------------------

// Drain on a publisher flushes every journal-deferred send before
// quiescing, and refuses new writes until Resume.
func TestDrainFlushesPublisherJournal(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, subMapper := newSQLApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	f.Broker.Crash()
	ctl := pub.NewController(nil)
	const writes = 5
	for i := 0; i < writes; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("name", "n")
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	if st := pub.Stats(); st.Deferred != writes || st.JournalDepth != writes {
		t.Fatalf("after crash: Deferred=%d JournalDepth=%d, want %d/%d", st.Deferred, st.JournalDepth, writes, writes)
	}
	f.Broker.Restart()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pub.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if depth := pub.JournalDepth(); depth != 0 {
		t.Fatalf("JournalDepth = %d after Drain, want 0", depth)
	}
	if _, err := ctl.Create(model.NewRecord("User", "late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("write while draining: %v, want ErrDraining", err)
	}

	// The subscriber's own workers re-bind its queue handle across the
	// broker bounce and apply the flushed messages.
	sub.StartWorkers(0)
	defer sub.StopWorkers()
	waitFor(t, 10*time.Second, func() bool { return sub.Stats().Processed >= writes })
	for i := 0; i < writes; i++ {
		if _, err := subMapper.Find("User", fmt.Sprintf("u%d", i)); err != nil {
			t.Fatalf("u%d lost across drain: %v", i, err)
		}
	}

	pub.Resume()
	if _, err := ctl.Create(model.NewRecord("User", "late")); err != nil {
		t.Fatalf("write after Resume: %v", err)
	}
}

// Drain on a subscriber waits for in-flight deliveries and hands
// unprocessed prefetch back cleanly: nothing is left unacked on the
// broker, so the next consumer sees no redelivery storm.
func TestDrainHandsBackUnackedWork(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, _ := newSQLApp(t, f, "sub", Config{Workers: 2})
	mustPublish(t, pub, userDesc(), "name")

	d := userDesc()
	d.Callbacks.On(model.AfterCreate, func(*model.CallbackCtx) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"name"}})
	sub.StartWorkers(0)

	ctl := pub.NewController(nil)
	for i := 0; i < 30; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
		rec.Set("name", "n")
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sub.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	q := sub.Queue()
	if got := q.Unacked(); got != 0 {
		t.Fatalf("Unacked = %d after Drain, want 0", got)
	}
	if sub.PendingAcks() != 0 {
		t.Fatal("parked acks survived Drain")
	}
	// Redeliveries only happen for messages a consumer dropped unacked;
	// a clean drain hands work back via nack, which does not mark
	// messages redelivered for the NEXT consumer... it does (nack sets
	// the flag). The real invariant: processed + still-pending accounts
	// for every message, none stuck in unacked limbo.
	if got := int(sub.Stats().Processed) + q.Len(); got != 30 {
		t.Fatalf("processed+pending = %d, want 30", got)
	}
}

// --- decommission as last resort (satellite) ---------------------------

// End-to-end §4.4 cliff under live load: with no soft backpressure
// configured, a flood overflows maxLen, the queue decommissions, and
// the running workers recover it via partial bootstrap — converging
// without losing updates. The same flood against watermarks + credits
// never reaches the cliff.
func TestDecommissionLastResortUnderLiveLoad(t *testing.T) {
	flood := func(t *testing.T, subCfg Config) (pubApp, subApp *App, q0 *broker.Queue) {
		t.Helper()
		f := NewFabric()
		pub, _ := newDocApp(t, f, "pub", Config{})
		sub, _ := newSQLApp(t, f, "sub", subCfg)
		mustPublish(t, pub, userDesc(), "likes")
		d := userDesc()
		d.Callbacks.On(model.AfterCreate, func(*model.CallbackCtx) error {
			time.Sleep(200 * time.Microsecond)
			return nil
		})
		d.Callbacks.On(model.AfterUpdate, func(*model.CallbackCtx) error {
			time.Sleep(200 * time.Microsecond)
			return nil
		})
		mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"likes"}})
		q0 = sub.Queue()
		pub.StartWorkers(1)
		sub.StartWorkers(0)
		t.Cleanup(pub.StopWorkers)
		t.Cleanup(sub.StopWorkers)

		ctl := pub.NewController(nil)
		for i := 0; i < 80; i++ {
			rec := model.NewRecord("User", fmt.Sprintf("u%d", i%8))
			rec.Set("likes", i)
			var err error
			if i < 8 {
				_, err = ctl.Create(rec)
			} else {
				_, err = ctl.Update(rec)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return pub, sub, q0
	}

	t.Run("cliff", func(t *testing.T) {
		pub, sub, q0 := flood(t, Config{
			QueueMaxLen: 12,
			Workers:     1,
			DepTimeout:  10 * time.Millisecond,
		})
		// Overflow decommissions, workers partial-bootstrap a
		// replacement, and the final state still converges.
		waitFor(t, 20*time.Second, func() bool { return q0.Dead() })
		waitFor(t, 20*time.Second, func() bool {
			q := sub.Queue()
			return q != nil && q != q0 && !q.Dead()
		})
		mustSettle(t, 20*time.Second, pub, sub)
	})

	t.Run("soft backpressure avoids the cliff", func(t *testing.T) {
		pub, sub, q0 := flood(t, Config{
			QueueMaxLen:        12,
			QueueHighWatermark: 4,
			Workers:            1,
			DepTimeout:         10 * time.Millisecond,
		})
		mustSettle(t, 20*time.Second, pub, sub)
		if q0.Dead() {
			t.Fatal("queue decommissioned despite soft backpressure")
		}
		if sub.Queue() != q0 {
			t.Fatal("queue handle was replaced")
		}
		if got := q0.MaxDepthSeen(); got >= 12 {
			t.Fatalf("depth reached %d, want < maxLen 12", got)
		}
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("u%d", i)
			want, err := pub.Mapper().Find("User", id)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool {
				got, err := sub.Mapper().Find("User", id)
				return err == nil && got.Int("likes") == want.Int("likes")
			})
		}
	})
}
