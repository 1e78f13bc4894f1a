package broker

import (
	"errors"
	"fmt"
	"testing"
)

// TestReplicationRoundTrip: a broker built from shipped log records
// must be behaviourally identical to the primary restarting from its
// own log — pending messages in publish order, the delivered-but-
// unacked message back at the front flagged Redelivered, dead-letter
// parks and bindings intact, and fresh publishes non-colliding.
func TestReplicationRoundTrip(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("q", 0)
	if err := b.Bind("q", "ex"); err != nil {
		t.Fatal(err)
	}
	q.SetMaxAttempts(1)
	for i := 0; i < 6; i++ {
		if err := b.Publish("ex", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := q.Get() // m0: processed
	_ = q.Ack(d.Tag)
	if _, err := q.Get(); err != nil { // m1: in flight, never acked
		t.Fatal(err)
	}
	d, _ = q.Get() // m2: poison, parks immediately (maxAttempts 1)
	if dead, err := q.NackError(d.Tag); err != nil || !dead {
		t.Fatalf("NackError = (%v, %v), want parked", dead, err)
	}

	ship, ok := b.ShipLog(Cursor{})
	if !ok || ship.Next != b.LogCursor() {
		t.Fatalf("full ship: ok=%v cursor %v != LogCursor %v", ok, ship.Next, b.LogCursor())
	}
	r := FromReplica(ship)
	rq, ok := r.Queue("q")
	if !ok {
		t.Fatal("replica lost the queue")
	}
	if rq.Len() != 4 {
		t.Fatalf("replica pending = %d, want 4 (m1 redelivered + m3..m5)", rq.Len())
	}
	if n := rq.DeadLetterCount(); n != 1 {
		t.Fatalf("replica dead letters = %d, want 1", n)
	}
	// m1's delivery died with the primary: it must come back first,
	// flagged Redelivered.
	d, err := rq.Get()
	if err != nil || string(d.Payload) != "m1" || !d.Redelivered {
		t.Fatalf("first replica delivery = %q (redelivered=%v, err=%v), want m1 redelivered", d.Payload, d.Redelivered, err)
	}
	_ = rq.Ack(d.Tag)
	for _, want := range []string{"m3", "m4", "m5"} {
		d, err := rq.Get()
		if err != nil || string(d.Payload) != want {
			t.Fatalf("replica delivery = %q/%v, want %q", d.Payload, err, want)
		}
		_ = rq.Ack(d.Tag)
	}
	// Bindings survived the ship, and fresh ids cannot collide with
	// replicated ones.
	if err := r.Publish("ex", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	d, err = rq.Get()
	if err != nil || string(d.Payload) != "fresh" {
		t.Fatalf("post-promotion publish = %q/%v", d.Payload, err)
	}
}

// TestShipLogIncrementalAndBehindHeadFallback walks the follower
// protocol: pull everything once, tail the log and the changed cursor
// states by cursor, and — there being no history to rewrite — a
// follower that fell behind the head is served from the head, which is
// all a fresh full pull would hold.
func TestShipLogIncrementalAndBehindHeadFallback(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("q", 0)
	_ = b.Bind("q", "ex")
	idle, _ := b.DeclareQueue("idle", 0)
	_ = idle

	// Follower joins: a full pull.
	var f Replica
	pull := func() Replica {
		t.Helper()
		d, ok := b.ShipLog(f.Next)
		if !ok {
			t.Fatalf("ShipLog(%v) refused", f.Next)
		}
		f.Merge(d)
		return d
	}
	if d := pull(); len(d.queues) != 2 {
		t.Fatalf("full pull shipped %d queue states, want 2", len(d.queues))
	}

	for i := 0; i < 5; i++ {
		_ = b.Publish("ex", []byte(fmt.Sprintf("live%d", i)))
	}
	if d := pull(); len(d.recs) != 5 || len(d.queues) != 1 || d.queues["q"] == nil {
		t.Fatalf("incremental pull = %d records, %d states; want the 5 live records and q's state", len(d.recs), len(d.queues))
	}
	// Pulling from an up-to-date cursor is an empty, valid batch.
	if d := pull(); len(d.recs) != 0 || len(d.queues) != 0 {
		t.Fatalf("up-to-date pull = %d records, %d states", len(d.recs), len(d.queues))
	}
	// A cursor from the future is rejected, not silently served.
	if _, ok := b.ShipLog(Cursor{Seq: f.Next.Seq + 1}); ok {
		t.Fatal("ShipLog accepted a cursor past the log end")
	}
	// A delivery and an ack append nothing, and still reach the follower.
	d0, _ := q.Get()
	if d := pull(); len(d.recs) != 0 || len(d.queues["q"].open) != 1 {
		t.Fatalf("delivery not shipped: %d records, state %+v", len(d.recs), d.queues["q"])
	}
	_ = q.Ack(d0.Tag)
	if d := pull(); len(d.recs) != 0 || len(d.queues["q"].open) != 0 {
		t.Fatalf("ack not shipped: %d records, state %+v", len(d.recs), d.queues["q"])
	}

	// Churn enough acked traffic to truncate the log well past the
	// follower's cursor.
	stale := f.Next
	for i := 0; i < 3*segmentSize; i++ {
		_ = b.Publish("ex", []byte("churn"))
		d, _ := q.Get()
		_ = q.Ack(d.Tag)
	}
	if b.log.head <= stale.Seq {
		t.Fatalf("log head %d never passed the follower's cursor %d", b.log.head, stale.Seq)
	}
	behind, ok := b.ShipLog(stale)
	full, _ := b.ShipLog(Cursor{})
	if !ok || behind.head != full.head || len(behind.recs) != len(full.recs) || behind.Next != full.Next {
		t.Fatalf("pull from behind the head: ok=%v head=%d records=%d next=%v; a full pull has head=%d records=%d next=%v",
			ok, behind.head, len(behind.recs), behind.Next, full.head, len(full.recs), full.Next)
	}
	f.Merge(behind)
	if len(f.recs) > segmentSize {
		t.Fatalf("follower buffers %d records: not trimmed to the primary's head", len(f.recs))
	}
	_ = b.Publish("ex", []byte("tail"))
	pull()
	b.DeleteQueue("idle")
	pull()

	// The follower's copy must now reproduce the primary's live state:
	// the churn loop kept depth at 4 (each iteration consumed the head
	// and published one), plus the tail message; the deleted queue is
	// gone.
	r := FromReplica(f)
	rq, _ := r.Queue("q")
	if got, want := rq.Len(), q.Len(); got != want || want != 5 {
		t.Fatalf("replica pending = %d, primary = %d, want 5", got, want)
	}
	if d, err := rq.Get(); err != nil || string(d.Payload) != "churn" || d.Redelivered {
		t.Fatalf("replica's first delivery = %q redelivered=%v, %v", d.Payload, d.Redelivered, err)
	}
	if _, ok := r.Queue("idle"); ok {
		t.Fatal("deleted queue survived on the follower")
	}
}

// TestFencePermanentlyDown: a fenced broker is dead forever — Restart
// must refuse to revive the superseded primary's stale state.
func TestFencePermanentlyDown(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("q", 0)
	_ = b.Bind("q", "ex")
	_ = b.Publish("ex", []byte("stale"))

	b.Fence()
	if !b.Down() || !b.Fenced() {
		t.Fatal("fenced broker not down")
	}
	if err := b.Publish("ex", []byte("x")); !errors.Is(err, ErrBrokerDown) {
		t.Fatalf("publish on fenced broker: %v", err)
	}
	if _, err := q.Get(); !errors.Is(err, ErrBrokerDown) {
		t.Fatalf("queue handle on fenced broker: %v", err)
	}
	b.Restart()
	if !b.Down() {
		t.Fatal("Restart revived a fenced broker")
	}

	// Crash-then-fence (partitioned primary fenced while down) pins too.
	b2 := New()
	_, _ = b2.DeclareQueue("q", 0)
	b2.Crash()
	b2.Fence()
	b2.Restart()
	if !b2.Down() {
		t.Fatal("Restart revived a crashed-then-fenced broker")
	}
	// ShipLog from a fenced broker fails closed.
	if _, ok := b.ShipLog(Cursor{}); ok {
		t.Fatal("fenced broker shipped log records")
	}
}
