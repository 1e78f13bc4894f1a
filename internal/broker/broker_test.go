package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFanout(t *testing.T) {
	b := New()
	q1, _ := b.DeclareQueue("sub1", 0)
	q2, _ := b.DeclareQueue("sub2", 0)
	if err := b.Bind("sub1", "pub"); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("sub2", "pub"); err != nil {
		t.Fatal(err)
	}
	b.Publish("pub", []byte("m1"))
	for _, q := range []*Queue{q1, q2} {
		d, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if string(d.Payload) != "m1" || d.Exchange != "pub" {
			t.Errorf("delivery = %+v", d)
		}
		if err := q.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	if b.Published() != 1 {
		t.Errorf("Published = %d", b.Published())
	}
}

func TestBindIdempotentAndUnbound(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	_ = b.Bind("s", "p") // no double delivery
	b.Publish("p", []byte("x"))
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	// Messages to unbound exchanges go nowhere.
	b.Publish("other", []byte("y"))
	if q.Len() != 1 {
		t.Fatal("message from unbound exchange delivered")
	}
	if err := b.Bind("ghost", "p"); !errors.Is(err, ErrUnknownQueue) {
		t.Errorf("Bind unknown queue = %v", err)
	}
}

func TestFIFOAndAck(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	for i := 0; i < 5; i++ {
		b.Publish("p", []byte(fmt.Sprintf("m%d", i)))
	}
	for i := 0; i < 5; i++ {
		d, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if string(d.Payload) != fmt.Sprintf("m%d", i) {
			t.Errorf("got %s at position %d", d.Payload, i)
		}
		if err := q.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 0 || q.Unacked() != 0 {
		t.Errorf("Len=%d Unacked=%d after draining", q.Len(), q.Unacked())
	}
	if err := q.Ack(999); !errors.Is(err, ErrBadTag) {
		t.Errorf("Ack bad tag = %v", err)
	}
}

func TestNackRequeueFront(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	b.Publish("p", []byte("first"))
	b.Publish("p", []byte("second"))
	d, _ := q.Get()
	if err := q.Nack(d.Tag, true); err != nil {
		t.Fatal(err)
	}
	d2, _ := q.Get()
	if string(d2.Payload) != "first" || !d2.Redelivered {
		t.Errorf("redelivery = %+v", d2)
	}
	_ = q.Ack(d2.Tag)
	d3, _ := q.Get()
	if string(d3.Payload) != "second" || d3.Redelivered {
		t.Errorf("second delivery = %+v", d3)
	}
}

func TestNackDrop(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	b.Publish("p", []byte("gone"))
	d, _ := q.Get()
	if err := q.Nack(d.Tag, false); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 || q.Unacked() != 0 {
		t.Error("dropped message still tracked")
	}
}

func TestGetBlocksUntilPublish(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	got := make(chan string, 1)
	go func() {
		d, err := q.Get()
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(d.Payload)
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish("p", []byte("late"))
	select {
	case v := <-got:
		if v != "late" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get never woke")
	}
}

func TestTryGet(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	if _, ok, err := q.TryGet(); ok || err != nil {
		t.Fatalf("TryGet on empty = %v %v", ok, err)
	}
	b.Publish("p", []byte("x"))
	d, ok, err := q.TryGet()
	if !ok || err != nil || string(d.Payload) != "x" {
		t.Fatalf("TryGet = %+v %v %v", d, ok, err)
	}
}

func TestDecommissionOnOverflow(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 3)
	_ = b.Bind("s", "p")
	for i := 0; i < 4; i++ {
		b.Publish("p", []byte("x"))
	}
	if !q.Dead() {
		t.Fatal("queue not decommissioned after overflow")
	}
	if q.Len() != 0 {
		t.Error("decommissioned queue kept messages")
	}
	if _, err := q.Get(); !errors.Is(err, ErrDecommissioned) {
		t.Errorf("Get on dead queue = %v", err)
	}
	// Other queues are unaffected.
	q2, _ := b.DeclareQueue("s2", 0)
	_ = b.Bind("s2", "p")
	b.Publish("p", []byte("y"))
	if q2.Len() != 1 {
		t.Error("healthy queue affected by sibling decommission")
	}
}

func TestDecommissionWakesBlockedConsumer(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 1)
	_ = b.Bind("s", "p")
	errc := make(chan error, 1)
	go func() {
		// Consume the first message, do not ack, block on the next Get.
		d, err := q.Get()
		if err != nil {
			errc <- err
			return
		}
		_ = d
		_, err = q.Get()
		errc <- err
	}()
	b.Publish("p", []byte("1"))
	time.Sleep(10 * time.Millisecond)
	b.Publish("p", []byte("2"))
	b.Publish("p", []byte("3")) // overflow -> decommission
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDecommissioned) {
			t.Fatalf("blocked Get = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked consumer never woke on decommission")
	}
}

func TestDeleteQueueRebootstrapCycle(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 1)
	_ = b.Bind("s", "p")
	b.Publish("p", []byte("1"))
	b.Publish("p", []byte("2")) // decommission
	if !q.Dead() {
		t.Fatal("expected dead queue")
	}
	b.DeleteQueue("s")
	if _, ok := b.Queue("s"); ok {
		t.Fatal("queue still registered after delete")
	}
	// Redeclare: fresh queue, must rebind.
	q2, _ := b.DeclareQueue("s", 10)
	if q2 == q {
		t.Fatal("DeclareQueue returned the dead queue")
	}
	b.Publish("p", []byte("x"))
	if q2.Len() != 0 {
		t.Fatal("fresh queue received without binding")
	}
	_ = b.Bind("s", "p")
	b.Publish("p", []byte("y"))
	if q2.Len() != 1 {
		t.Fatal("fresh queue not receiving after rebind")
	}
}

func TestLossInjection(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	n := 0
	b.SetLoss(func(queue, exchange string, payload []byte) bool {
		n++
		return n == 2 // drop exactly the second message
	})
	for i := 0; i < 3; i++ {
		b.Publish("p", []byte(fmt.Sprintf("m%d", i)))
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after one loss", q.Len())
	}
	d1, _ := q.Get()
	d2, _ := q.Get()
	if string(d1.Payload) != "m0" || string(d2.Payload) != "m2" {
		t.Errorf("surviving messages = %s, %s", d1.Payload, d2.Payload)
	}
}

func TestConcurrentConsumersNoDuplicates(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	const n = 500
	for i := 0; i < n; i++ {
		b.Publish("p", []byte(fmt.Sprintf("m%d", i)))
	}
	var mu sync.Mutex
	seen := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				d, ok, err := q.TryGet()
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				mu.Lock()
				seen[string(d.Payload)]++
				mu.Unlock()
				if err := q.Ack(d.Tag); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("consumed %d distinct messages, want %d", len(seen), n)
	}
	for msg, count := range seen {
		if count != 1 {
			t.Fatalf("message %s delivered %d times", msg, count)
		}
	}
}

func TestQueuesListing(t *testing.T) {
	b := New()
	b.DeclareQueue("beta", 0)
	b.DeclareQueue("alpha", 0)
	qs := b.Queues()
	if len(qs) != 2 || qs[0] != "alpha" || qs[1] != "beta" {
		t.Errorf("Queues = %v", qs)
	}
}

func TestGetBatchDrainsUpToMax(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 0)
	if err := b.Bind("sub", "pub"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b.Publish("pub", []byte(fmt.Sprintf("m%d", i)))
	}
	batch, err := q.GetBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch = %d deliveries, want 3", len(batch))
	}
	for i, d := range batch {
		if string(d.Payload) != fmt.Sprintf("m%d", i) {
			t.Errorf("batch[%d] = %q", i, d.Payload)
		}
		if err := q.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := q.GetBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 {
		t.Fatalf("rest = %d deliveries, want 2", len(rest))
	}
	if string(rest[0].Payload) != "m3" || string(rest[1].Payload) != "m4" {
		t.Errorf("rest = %q, %q", rest[0].Payload, rest[1].Payload)
	}
}

func TestGetBatchBlocksLikeGet(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 0)
	if err := b.Bind("sub", "pub"); err != nil {
		t.Fatal(err)
	}
	got := make(chan []Delivery, 1)
	go func() {
		batch, err := q.GetBatch(4)
		if err != nil {
			t.Error(err)
			return
		}
		got <- batch
	}()
	select {
	case <-got:
		t.Fatal("GetBatch returned on empty queue")
	case <-time.After(10 * time.Millisecond):
	}
	b.Publish("pub", []byte("m"))
	select {
	case batch := <-got:
		if len(batch) != 1 {
			t.Fatalf("batch = %d deliveries, want 1", len(batch))
		}
	case <-time.After(time.Second):
		t.Fatal("GetBatch did not wake")
	}
}

// TestGetBatchFairShare: a consumer must not drain the whole queue while
// other consumers are blocked waiting — each blocked waiter is left a
// share of the pending messages.
func TestGetBatchFairShare(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 0)
	if err := b.Bind("sub", "pub"); err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	sizes := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch, err := q.GetBatch(16)
			if err != nil {
				t.Error(err)
				return
			}
			sizes <- len(batch)
			for _, d := range batch {
				_ = q.Ack(d.Tag)
			}
		}()
	}
	// Let all three consumers block, then release 9 messages at once.
	time.Sleep(20 * time.Millisecond)
	q.mu.Lock()
	for i := 0; i < 9; i++ {
		b.log.append("pub", []byte("m"))
	}
	q.st.pending += 9
	q.cond.Broadcast()
	q.mu.Unlock()
	wg.Wait()
	close(sizes)
	total := 0
	for n := range sizes {
		if n == 0 || n > 8 {
			t.Errorf("batch size %d outside fair range", n)
		}
		total += n
	}
	if rem := q.Len(); total+rem != 9 {
		t.Errorf("consumed %d + pending %d, want 9 total", total, rem)
	}
}

func TestGetBatchCancelAndDecommission(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 0)
	errs := make(chan error, 1)
	go func() {
		_, err := q.GetBatch(8)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.CancelWaiters()
	if err := <-errs; !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	// A cancel that finds nobody blocked is owed to the next Get that
	// would block — once — and never to one that finds a message.
	if err := b.Bind("sub", "pub"); err != nil {
		t.Fatal(err)
	}
	q.CancelWaiters()
	b.Publish("pub", []byte("m"))
	if ds, err := q.GetBatch(8); err != nil || len(ds) != 1 {
		t.Fatalf("GetBatch with a message pending = %v, %v; the owed cancel must not preempt it", ds, err)
	}
	if _, err := q.GetBatch(8); !errors.Is(err, ErrCanceled) {
		t.Fatalf("GetBatch on the empty queue after an unobserved cancel: err = %v, want ErrCanceled", err)
	}
	go func() {
		_, err := q.GetBatch(8)
		errs <- err
	}()
	select {
	case err := <-errs:
		t.Fatalf("the owed cancel was delivered twice: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	b.Publish("pub", []byte("m"))
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestDecommissionCountsUnacked: messages held unacked by a prefetching
// consumer still count against the queue bound — a stuck consumer must
// not mask the overflow that triggers decommission (§4.4).
func TestDecommissionCountsUnacked(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 3)
	_ = b.Bind("s", "p")
	for i := 0; i < 3; i++ {
		b.Publish("p", []byte("x"))
	}
	// A consumer drains everything into unacked; pending is now empty.
	batch, err := q.GetBatch(3)
	if err != nil || len(batch) != 3 {
		t.Fatalf("GetBatch = %d msgs, %v", len(batch), err)
	}
	if q.Dead() {
		t.Fatal("queue died below the bound")
	}
	b.Publish("p", []byte("x"))
	if !q.Dead() {
		t.Fatal("overflow hidden by unacked prefetch batch")
	}
}

func TestAckMulti(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	for i := 0; i < 6; i++ {
		b.Publish("p", []byte(fmt.Sprintf("m%d", i)))
	}
	batch, err := q.GetBatch(6)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]uint64, 0, len(batch))
	for _, d := range batch {
		tags = append(tags, d.Tag)
	}

	// A batch containing one stale tag still acks every valid tag and
	// reports the staleness as ErrBadTag.
	if err := q.AckMulti(append(tags[:4:4], 9999)); !errors.Is(err, ErrBadTag) {
		t.Fatalf("AckMulti with stale tag = %v, want ErrBadTag", err)
	}
	if got := q.Unacked(); got != 2 {
		t.Fatalf("Unacked after partial AckMulti = %d, want 2", got)
	}
	if err := q.AckMulti(tags[4:]); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 || q.Unacked() != 0 {
		t.Errorf("Len=%d Unacked=%d after AckMulti drain", q.Len(), q.Unacked())
	}
	if err := q.AckMulti(nil); err != nil {
		t.Errorf("empty AckMulti = %v", err)
	}

	// The batched acks must be as durable as single acks: after a
	// crash/restart log replay, none of the acked messages reappear.
	b.Publish("p", []byte("tail"))
	b.Crash()
	b.Restart()
	q2, ok := b.Queue("s")
	if !ok {
		t.Fatal("queue lost across restart")
	}
	if got := q2.Len(); got != 1 {
		t.Fatalf("Len after restart = %d, want 1 (only the unacked tail)", got)
	}
	d, err := q2.Get()
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "tail" {
		t.Fatalf("replayed %q, want tail", d.Payload)
	}
}

// TestOneRecordPerPublish: a publish is one log record however many
// queues are bound, and deliveries and acks append none — N publishes
// into five queues drained by GetBatch(4) + AckMulti may advance the log
// tail by no more than a record per publish plus one per coalesced ack.
func TestOneRecordPerPublish(t *testing.T) {
	b := New()
	queues := make([]*Queue, 5)
	for i := range queues {
		name := fmt.Sprintf("sub%d", i)
		queues[i], _ = b.DeclareQueue(name, 0)
		_ = b.Bind(name, "pub")
	}
	const n = 1000
	payload := []byte("the one copy")
	before := b.log.tail.Load()
	for i := 0; i < n; i++ {
		_ = b.Publish("pub", payload)
	}
	for _, q := range queues {
		for got := 0; got < n; {
			batch, err := q.GetBatch(4)
			if err != nil {
				t.Fatal(err)
			}
			tags := make([]uint64, len(batch))
			for i, d := range batch {
				tags[i] = d.Tag
				if &d.Payload[0] != &payload[0] {
					t.Fatal("delivery carries a copy of the payload, not the published bytes")
				}
			}
			if err := q.AckMulti(tags); err != nil {
				t.Fatal(err)
			}
			got += len(batch)
		}
	}
	if adv := b.log.tail.Load() - before; float64(adv) > 2.25*n {
		t.Fatalf("log tail advanced %d for %d publishes (%.2f per message), want <= 2.25", adv, n, float64(adv)/n)
	}
}

// TestSlowConsumerPinsTheLog: the log follows the slowest live queue.
// Four queues drain, one holds 10k messages: the retained records track
// that backlog, and fall to at most a segment once the laggard is
// decommissioned — or deleted.
func TestSlowConsumerPinsTheLog(t *testing.T) {
	for _, end := range []string{"decommission", "delete"} {
		t.Run(end, func(t *testing.T) {
			b := New()
			checkTruncation(t, b)
			const backlog = 10_000
			fast := make([]*Queue, 4)
			for i := range fast {
				name := fmt.Sprintf("fast%d", i)
				fast[i], _ = b.DeclareQueue(name, 0)
				_ = b.Bind(name, "pub")
			}
			slow, _ := b.DeclareQueue("slow", backlog)
			_ = b.Bind("slow", "pub")
			for i := 0; i < backlog; i++ {
				_ = b.Publish("pub", []byte("m"))
				for _, q := range fast {
					d, _ := q.Get()
					_ = q.Ack(d.Tag)
				}
				if got := retained(b); got < slow.Depth() || got > slow.Depth()+segmentSize {
					t.Fatalf("after %d publishes the log retains %d records for a backlog of %d", i+1, got, slow.Depth())
				}
			}
			// The laggard works through a third of it: retention follows.
			for i := 0; i < backlog/3; i++ {
				d, _ := slow.Get()
				_ = slow.Ack(d.Tag)
			}
			if got := retained(b); got < slow.Depth() || got > slow.Depth()+segmentSize {
				t.Fatalf("log retains %d records for a backlog of %d", got, slow.Depth())
			}
			if end == "delete" {
				b.DeleteQueue("slow")
			} else {
				for !slow.Dead() {
					_ = b.Publish("pub", []byte("overflow"))
					for _, q := range fast {
						d, _ := q.Get()
						_ = q.Ack(d.Tag)
					}
				}
			}
			if got := retained(b); got > segmentSize || b.LogSegments() > 1 {
				t.Fatalf("log still retains %d records in %d segments after the %s", got, b.LogSegments(), end)
			}
		})
	}
}

// TestConcurrentPublishConsumeTruncate is the -race exercise: two
// publishers on two exchanges, five consumers on five queues (one bound
// to both exchanges), truncation running underneath. Every queue must
// see exactly its exchanges' messages, each once, in publish order.
func TestConcurrentPublishConsumeTruncate(t *testing.T) {
	b := New()
	checkTruncation(t, b)
	const perExchange = 8 * segmentSize
	bound := [][]string{{"exA"}, {"exA"}, {"exB"}, {"exB"}, {"exA", "exB"}}
	queues := make([]*Queue, len(bound))
	for i, exs := range bound {
		name := fmt.Sprintf("q%d", i)
		queues[i], _ = b.DeclareQueue(name, 0)
		for _, ex := range exs {
			_ = b.Bind(name, ex)
		}
	}
	var wg sync.WaitGroup
	for _, ex := range []string{"exA", "exB"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perExchange; i++ {
				if err := b.Publish(ex, []byte(fmt.Sprintf("%s-%d", ex, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i, q := range queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := map[string]int{}
			for got := 0; got < perExchange*len(bound[i]); {
				batch, err := q.GetBatch(4)
				if err != nil {
					t.Error(err)
					return
				}
				tags := make([]uint64, len(batch))
				for k, d := range batch {
					tags[k] = d.Tag
					if want := fmt.Sprintf("%s-%d", d.Exchange, next[d.Exchange]); string(d.Payload) != want {
						t.Errorf("%s got %q, want %q", q.Name(), d.Payload, want)
						return
					}
					next[d.Exchange]++
				}
				if err := q.AckMulti(tags); err != nil {
					t.Error(err)
					return
				}
				got += len(batch)
			}
		}()
	}
	wg.Wait()
	if n := b.LogSegments(); n > 1 {
		t.Fatalf("drained broker retains %d segments", n)
	}
}

// BenchmarkNackRequeue measures the failure-requeue cycle — deliver +
// NackError — against a queue with a deep backlog behind the cursor.
func BenchmarkNackRequeue(b *testing.B) {
	br := New()
	q, _ := br.DeclareQueue("sub", 0)
	if err := br.Bind("sub", "pub"); err != nil {
		b.Fatal(err)
	}
	payload := []byte(`{"app":"pub"}`)
	for i := 0; i < 2048; i++ {
		if err := br.Publish("pub", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, ok, err := q.TryGet()
		if err != nil || !ok {
			b.Fatal(err, ok)
		}
		if _, err := q.NackError(d.Tag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishFanout measures the publish path against eight bound
// queues. Each iteration drains what it published, so queue depth stays
// constant and the log is truncated as it goes.
func BenchmarkPublishFanout(b *testing.B) {
	br := New()
	queues := make([]*Queue, 8)
	for i := range queues {
		name := fmt.Sprintf("sub%d", i)
		queues[i], _ = br.DeclareQueue(name, 0)
		if err := br.Bind(name, "pub"); err != nil {
			b.Fatal(err)
		}
	}
	payload := []byte(`{"app":"pub"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish("pub", payload); err != nil {
			b.Fatal(err)
		}
		for _, q := range queues {
			d, ok, err := q.TryGet()
			if err != nil || !ok {
				b.Fatal(err, ok)
			}
			if err := q.Ack(d.Tag); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestTryAppendBatch: the non-blocking take returns at once, empty and
// with no error, from an empty queue; takes no more than the credit
// window has left; leaves a consumer blocked in GetBatch its fair
// share; and reports a decommissioned queue.
func TestTryAppendBatch(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 0)
	if err := b.Bind("sub", "pub"); err != nil {
		t.Fatal(err)
	}
	if ds, err := q.TryAppendBatch(nil, 4); len(ds) != 0 || err != nil {
		t.Fatalf("TryAppendBatch on an empty queue = %d deliveries, %v; want 0, nil", len(ds), err)
	}

	q.SetCredits(3)
	for range 5 {
		b.Publish("pub", []byte("m"))
	}
	ds, err := q.TryAppendBatch(nil, 8)
	if len(ds) != 3 || err != nil {
		t.Fatalf("TryAppendBatch(8) with 3 credits = %d deliveries, %v; want 3", len(ds), err)
	}
	if more, err := q.TryAppendBatch(nil, 8); len(more) != 0 || err != nil {
		t.Fatalf("TryAppendBatch with the credit spent = %d deliveries, %v; want 0, nil", len(more), err)
	}
	if err := q.Ack(ds[0].Tag); err != nil {
		t.Fatal(err)
	}
	if more, err := q.TryAppendBatch(ds[:0], 8); len(more) != 1 || err != nil {
		t.Fatalf("TryAppendBatch after one ack = %d deliveries, %v; want 1", len(more), err)
	}

	// Fair share: a consumer blocked in GetBatch when 4 messages arrive
	// is left 2 of them. The arrivals are made by hand, without the
	// wake-up, so the waiter is still blocked when TryAppendBatch looks.
	fair, _ := b.DeclareQueue("fair", 0)
	if err := b.Bind("fair", "pub"); err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	go func() {
		ds, err := fair.GetBatch(8)
		if err != nil {
			t.Error(err)
		}
		got <- len(ds)
	}()
	for blocked := false; !blocked; time.Sleep(time.Millisecond) {
		fair.mu.Lock()
		blocked = fair.waiters == 1
		fair.mu.Unlock()
	}
	fair.mu.Lock()
	for range 4 {
		b.log.append("pub", []byte("m"))
	}
	fair.st.pending += 4
	fair.mu.Unlock()
	if ds, err := fair.TryAppendBatch(nil, 8); len(ds) != 2 || err != nil {
		t.Fatalf("TryAppendBatch beside a blocked consumer = %d of 4 deliveries, %v; want 2", len(ds), err)
	}
	fair.mu.Lock()
	fair.cond.Broadcast()
	fair.mu.Unlock()
	if n := <-got; n != 2 {
		t.Fatalf("the blocked consumer got %d deliveries, want the 2 left to it", n)
	}

	small, _ := b.DeclareQueue("small", 1)
	if err := b.Bind("small", "pub"); err != nil {
		t.Fatal(err)
	}
	b.Publish("pub", []byte("m"))
	b.Publish("pub", []byte("m")) // past the bound: decommissioned
	if _, err := small.TryAppendBatch(nil, 4); !errors.Is(err, ErrDecommissioned) {
		t.Fatalf("TryAppendBatch on a decommissioned queue: err = %v, want ErrDecommissioned", err)
	}
}
