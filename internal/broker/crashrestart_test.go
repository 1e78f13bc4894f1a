package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCrashRestartBasics walks the contract end to end: down-state
// errors, durability of pending messages, redelivery of unacked
// in-flight messages, and invalidation of pre-crash handles.
func TestCrashRestartBasics(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 0)
	if err := b.Bind("sub", "pub"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Publish("pub", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Take m0 in flight but never ack it.
	d, err := q.Get()
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "m0" {
		t.Fatalf("got %q, want m0", d.Payload)
	}

	b.Crash()
	if !b.Down() {
		t.Fatal("Down() should report true after Crash")
	}
	if err := b.Publish("pub", []byte("lost")); !errors.Is(err, ErrBrokerDown) {
		t.Fatalf("Publish while down: got %v, want ErrBrokerDown", err)
	}
	if got, err := b.DeclareQueue("other", 0); !errors.Is(err, ErrBrokerDown) || got != nil {
		t.Fatalf("DeclareQueue while down: got (%v, %v), want (nil, ErrBrokerDown)", got, err)
	}
	// The old handle is defunct for every operation.
	if err := q.Ack(d.Tag); !errors.Is(err, ErrBrokerDown) {
		t.Fatalf("Ack on crashed handle: got %v, want ErrBrokerDown", err)
	}
	if _, err := q.Get(); !errors.Is(err, ErrBrokerDown) {
		t.Fatalf("Get on crashed handle: got %v, want ErrBrokerDown", err)
	}

	b.Restart()
	if b.Down() {
		t.Fatal("Down() should report false after Restart")
	}
	q2, ok := b.Queue("sub")
	if !ok {
		t.Fatal("queue lost across restart")
	}
	if q2 == q {
		t.Fatal("Restart should produce a fresh queue handle")
	}
	// The unacked m0 is redelivered first, flagged; then m1, m2 fresh.
	want := []struct {
		payload     string
		redelivered bool
	}{{"m0", true}, {"m1", false}, {"m2", false}}
	for i, w := range want {
		d, err := q2.Get()
		if err != nil {
			t.Fatal(err)
		}
		if string(d.Payload) != w.payload || d.Redelivered != w.redelivered {
			t.Fatalf("delivery %d: got (%q, redelivered=%v), want (%q, %v)",
				i, d.Payload, d.Redelivered, w.payload, w.redelivered)
		}
		if err := q2.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	// Binding survived too: a fresh publish still lands.
	if err := b.Publish("pub", []byte("m3")); err != nil {
		t.Fatal(err)
	}
	if d, err := q2.Get(); err != nil || string(d.Payload) != "m3" {
		t.Fatalf("post-restart publish: %q, %v", d.Payload, err)
	}
}

// TestCrashWakesBlockedConsumer proves a consumer parked in GetBatch is
// woken with ErrBrokerDown rather than hanging across the crash.
func TestCrashWakesBlockedConsumer(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 0)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := q.Get()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Crash()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrBrokerDown) {
			t.Fatalf("blocked Get returned %v, want ErrBrokerDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked consumer not woken by Crash")
	}
	wg.Wait()
}

// TestRestartPreservesDeadLettersAndAttempts: parked messages, failure
// counts, and the max-attempts policy all survive a bounce.
func TestRestartPreservesDeadLettersAndAttempts(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 0)
	q.SetMaxAttempts(2)
	_ = b.Bind("sub", "pub")
	if err := b.Publish("pub", []byte("poison")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		dead, err := q.NackError(d.Tag)
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 1; dead != want {
			t.Fatalf("attempt %d: deadLettered=%v, want %v", i, dead, want)
		}
	}
	if q.DeadLetterCount() != 1 || q.DeadLettered() != 1 {
		t.Fatalf("park state: count=%d total=%d", q.DeadLetterCount(), q.DeadLettered())
	}

	b.Crash()
	b.Restart()
	q2, _ := b.Queue("sub")
	if q2.DeadLetterCount() != 1 {
		t.Fatalf("dead letters lost across restart: %d", q2.DeadLetterCount())
	}
	if q2.DeadLettered() != 1 {
		t.Fatalf("cumulative dead-letter count lost: %d", q2.DeadLettered())
	}
	if n := q2.ReplayDeadLetters(); n != 1 {
		t.Fatalf("ReplayDeadLetters = %d, want 1", n)
	}
	d, err := q2.Get()
	if err != nil || string(d.Payload) != "poison" {
		t.Fatalf("replayed delivery: %q, %v", d.Payload, err)
	}
	if d.Attempts != 0 {
		t.Fatalf("replayed attempts = %d, want 0 (reset)", d.Attempts)
	}
	// Policy survived: two more failures park it again.
	if _, err := q2.NackError(d.Tag); err != nil {
		t.Fatal(err)
	}
	d, err = q2.Get()
	if err != nil {
		t.Fatal(err)
	}
	dead, err := q2.NackError(d.Tag)
	if err != nil || !dead {
		t.Fatalf("max-attempts policy lost across restart: dead=%v err=%v", dead, err)
	}
}

// TestRestartPreservesDecommission: a queue killed by overflow stays
// dead after a bounce (the subscriber must still re-bootstrap).
func TestRestartPreservesDecommission(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("sub", 2)
	_ = b.Bind("sub", "pub")
	for i := 0; i < 3; i++ {
		_ = b.Publish("pub", []byte("m"))
	}
	if !q.Dead() {
		t.Fatal("queue should decommission past maxLen")
	}
	b.Crash()
	b.Restart()
	q2, _ := b.Queue("sub")
	if !q2.Dead() {
		t.Fatal("decommission must survive restart")
	}
}

// TestLogTruncationBoundsTheLog: sustained traffic must not grow the log
// without bound — truncation keeps at most the segment being written
// once the queue has drained — and a bounce right after a truncation
// still restores the live state.
func TestLogTruncationBoundsTheLog(t *testing.T) {
	b := New()
	checkTruncation(t, b)
	q, _ := b.DeclareQueue("q", 0)
	_ = b.Bind("q", "ex")
	for i := 0; i < 12*segmentSize; i++ {
		if err := b.Publish("ex", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		d, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
		if n := b.LogSegments(); n > 1 {
			t.Fatalf("log holds %d segments after draining message %d", n, i)
		}
	}
	// Leave two live messages and bounce: the truncated log carries them.
	_ = b.Publish("ex", []byte("a"))
	_ = b.Publish("ex", []byte("b"))
	b.Crash()
	b.Restart()
	q, _ = b.Queue("q")
	if q.Len() != 2 {
		t.Fatalf("live messages after truncated restart: %d, want 2", q.Len())
	}
	for _, want := range []string{"a", "b"} {
		d, err := q.Get()
		if err != nil || string(d.Payload) != want {
			t.Fatalf("got %q/%v, want %q", d.Payload, err, want)
		}
		_ = q.Ack(d.Tag)
	}
}
