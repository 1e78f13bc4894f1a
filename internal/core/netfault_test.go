package core

import (
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/netsim"
)

// TestPublishDegradesToJournalAndDefer pins the publisher's behaviour
// when the broker link is partitioned: the write itself succeeds (the
// journal entry is durable), the send is deferred rather than failed,
// and the periodic journal drain republishes once the link heals — the
// subscriber converges with no Bootstrap and no error surfaced to the
// writer.
func TestPublishDegradesToJournalAndDefer(t *testing.T) {
	f := NewFabric()
	f.Net = netsim.New(1)
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	// StartWorkers on the publisher runs the periodic journal drain (it
	// consumes nothing).
	pub.StartWorkers(1)
	defer pub.StopWorkers()
	sub.StartWorkers(1)
	defer sub.StopWorkers()

	f.Net.Partition("pub", EndpointBroker)

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "stranded")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatalf("write during partition must succeed via journal-and-defer, got %v", err)
	}
	st := pub.Stats()
	if st.Deferred == 0 {
		t.Errorf("Stats.Deferred = 0, want >= 1 (send failed after retries)")
	}
	if st.JournalDepth == 0 {
		t.Errorf("JournalDepth = 0, want the deferred entry to survive")
	}
	if _, err := subMapper.Find("User", "u1"); err == nil {
		t.Fatal("subscriber saw the write through a partitioned link")
	}

	f.Net.Heal("pub", EndpointBroker)
	mustSettle(t, 10*time.Second, pub, sub)
	if pub.Stats().Republished == 0 {
		t.Errorf("Stats.Republished = 0, want the drain to have resent the entry")
	}
}

// TestWorkersReattachAfterBrokerRestart drives the subscriber side of a
// broker bounce end to end: workers consuming through defunct pre-crash
// queue handles must await the restart, reattach to the rebuilt queue,
// and process both redelivered (unacked at crash time) and fresh
// messages.
func TestWorkersReattachAfterBrokerRestart(t *testing.T) {
	f := NewFabric()
	f.Net = netsim.New(2)
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	pub.StartWorkers(1)
	defer pub.StopWorkers()
	sub.StartWorkers(2)
	defer sub.StopWorkers()

	write := func(id, name string) {
		ctl := pub.NewController(nil)
		rec := model.NewRecord("User", id)
		rec.Set("name", name)
		if _, err := ctl.Create(rec); err != nil {
			t.Fatal(err)
		}
	}

	write("before", "pre-crash")
	waitFor(t, 10*time.Second, func() bool {
		_, err := subMapper.Find("User", "before")
		return err == nil
	})

	f.Broker.Crash()
	f.Broker.Restart()

	write("after", "post-restart")
	waitFor(t, 10*time.Second, func() bool {
		got, err := subMapper.Find("User", "after")
		return err == nil && got.String("name") == "post-restart"
	})
	waitFor(t, 10*time.Second, func() bool {
		q := sub.Queue()
		return q != nil && q.Len() == 0 && q.Unacked() == 0
	})
}

// TestParkedAcksFlushAndDefunctDrop exercises the two exits of the
// parked-ack path directly: an ack that fails on a partitioned link is
// parked and re-parked until the link heals, then flushed; an ack
// parked on a queue handle that died with a broker crash is dropped
// (its tag is gone for good — the restarted broker redelivers and the
// version guard absorbs the duplicate).
func TestParkedAcksFlushAndDefunctDrop(t *testing.T) {
	f := NewFabric()
	f.Net = netsim.New(3)
	pub, _ := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	sub, _ := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "v1")
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	q := sub.Queue()
	ds, err := q.GetBatch(1)
	if err != nil || len(ds) != 1 {
		t.Fatalf("GetBatch = %v, %v", ds, err)
	}

	// Partitioned ack: parks, survives a failed flush, then lands.
	f.Net.Partition("sub", EndpointBroker)
	sub.ackMultiDelivery(q, []uint64{ds[0].Tag})
	if n := sub.PendingAcks(); n != 1 {
		t.Fatalf("PendingAcks = %d after partitioned ack, want 1", n)
	}
	sub.flushPendingAcks()
	if n := sub.PendingAcks(); n != 1 {
		t.Fatalf("PendingAcks = %d after flush through partition, want still 1", n)
	}
	f.Net.Heal("sub", EndpointBroker)
	// The breaker may still be open from the partitioned attempts; it
	// half-opens after the cooldown.
	waitFor(t, 10*time.Second, func() bool {
		sub.flushPendingAcks()
		return sub.PendingAcks() == 0
	})
	if q.Unacked() != 0 {
		t.Fatalf("Unacked = %d after flushed ack, want 0", q.Unacked())
	}

	// Defunct-handle ack: the tag died with the crash; the flush must
	// drop it, not retry forever.
	rec = model.NewRecord("User", "u2")
	rec.Set("name", "v2")
	if _, err := pub.NewController(nil).Create(rec); err != nil {
		t.Fatal(err)
	}
	ds, err = q.GetBatch(1)
	if err != nil || len(ds) != 1 {
		t.Fatalf("GetBatch = %v, %v", ds, err)
	}
	f.Broker.Crash()
	f.Broker.Restart()
	sub.parkAck(pendingAck{q: q, tag: ds[0].Tag, kind: ackAck})
	waitFor(t, 10*time.Second, func() bool {
		sub.flushPendingAcks()
		return sub.PendingAcks() == 0
	})
}
