package broker

import (
	"fmt"
	"testing"
)

// churn publishes and acks enough traffic through q to roll the log
// over several segments, and checks that truncation followed.
func churn(t *testing.T, b *Broker, q *Queue, exchange string) {
	t.Helper()
	checkTruncation(t, b)
	for i := 0; i < 4*segmentSize; i++ {
		_ = b.Publish(exchange, []byte("churn"))
		d, _ := q.Get()
		_ = q.Ack(d.Tag)
	}
	if n := b.LogSegments(); n > 1 {
		t.Fatalf("log never truncated: %d segments", n)
	}
}

// TestStatsSurviveRestart: Redelivered and MaxDepthSeen are cumulative
// observability counters; like the dead-letter total they are part of
// the cursor state and must survive crash/restart instead of silently
// resetting under the bench gate.
func TestStatsSurviveRestart(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("q", 0)
	_ = b.Bind("q", "ex")
	for i := 0; i < 8; i++ {
		_ = b.Publish("ex", []byte(fmt.Sprintf("m%d", i)))
	}
	// Three redeliveries: nack-requeue three messages and take them again.
	for i := 0; i < 3; i++ {
		d, _ := q.Get()
		_ = q.Nack(d.Tag, true)
		d, _ = q.Get()
		_ = q.Ack(d.Tag)
	}
	wantRedeliv, wantDepth := q.Redelivered(), q.MaxDepthSeen()
	if wantRedeliv != 3 {
		t.Fatalf("pre-crash Redelivered = %d, want 3", wantRedeliv)
	}
	if wantDepth != 8 {
		t.Fatalf("pre-crash MaxDepthSeen = %d, want 8", wantDepth)
	}

	b.Crash()
	b.Restart()
	q, _ = b.Queue("q")
	if got := q.Redelivered(); got != wantRedeliv {
		t.Fatalf("Redelivered after restart = %d, want %d", got, wantRedeliv)
	}
	if got := q.MaxDepthSeen(); got != wantDepth {
		t.Fatalf("MaxDepthSeen after restart = %d, want %d", got, wantDepth)
	}
}

// TestStatsSurviveTruncationAndRestart: the counters must also survive
// the log being truncated under them — they live in the cursor state,
// not in the records that went away.
func TestStatsSurviveTruncationAndRestart(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("q", 0)
	_ = b.Bind("q", "ex")
	// One early redelivery, then enough acked churn to truncate the log
	// several times over.
	_ = b.Publish("ex", []byte("early"))
	d, _ := q.Get()
	_ = q.Nack(d.Tag, true)
	d, _ = q.Get()
	_ = q.Ack(d.Tag)
	churn(t, b, q, "ex")
	wantRedeliv, wantDepth := q.Redelivered(), q.MaxDepthSeen()
	if wantRedeliv < 1 {
		t.Fatalf("pre-crash Redelivered = %d, want >= 1", wantRedeliv)
	}

	b.Crash()
	b.Restart()
	q, _ = b.Queue("q")
	if got := q.Redelivered(); got != wantRedeliv {
		t.Fatalf("Redelivered after truncated restart = %d, want %d", got, wantRedeliv)
	}
	if got := q.MaxDepthSeen(); got != wantDepth {
		t.Fatalf("MaxDepthSeen after truncated restart = %d, want %d", got, wantDepth)
	}
}

// TestTruncationInterleavedWithDecommission: a queue decommissions,
// the log is truncated past everything it ever held, and the tombstone
// must survive the truncation and a restart.
func TestTruncationInterleavedWithDecommission(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("victim", 4)
	_ = b.Bind("victim", "vex")
	other, _ := b.DeclareQueue("churn", 0)
	_ = b.Bind("churn", "cex")

	// Overflow the victim: maxLen 4 means the 5th pending message kills it.
	for i := 0; i < 5; i++ {
		_ = b.Publish("vex", []byte("overflow"))
	}
	if !q.Dead() {
		t.Fatal("victim not decommissioned at overflow")
	}
	// Truncate past the dead queue's records: it pins none of them.
	churn(t, b, other, "cex")
	b.Crash()
	b.Restart()
	q, ok := b.Queue("victim")
	if !ok {
		t.Fatal("decommissioned queue vanished from restart (must survive as tombstone)")
	}
	if !q.Dead() {
		t.Fatal("decommission lost across truncation + restart")
	}
	// Recovery path still works: delete and re-declare.
	b.DeleteQueue("victim")
	q2, err := b.DeclareQueue("victim", 4)
	if err != nil || q2.Dead() {
		t.Fatalf("re-declare after decommission: dead=%v err=%v", q2.Dead(), err)
	}
}

// TestTruncationInterleavedWithDeadLetterReplay: parked messages and
// their replay must survive truncations landing between the park, the
// replay, and the restart — a park holds its own copy, so the log is
// free to drop the record under it.
func TestTruncationInterleavedWithDeadLetterReplay(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("q", 0)
	_ = b.Bind("q", "ex")
	q.SetMaxAttempts(2)

	// Park a poison message.
	_ = b.Publish("ex", []byte("poison"))
	for i := 0; i < 2; i++ {
		d, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		_, _ = q.NackError(d.Tag)
	}
	if q.DeadLetterCount() != 1 {
		t.Fatalf("dead letters = %d, want 1", q.DeadLetterCount())
	}
	// Truncate with the park in place: its record goes, its copy stays.
	churn(t, b, q, "ex")
	if dls := q.DeadLetters(); len(dls) != 1 || string(dls[0].Payload) != "poison" {
		t.Fatalf("park lost its copy: %+v", dls)
	}
	b.Crash()
	b.Restart()
	q, _ = b.Queue("q")
	if q.DeadLetterCount() != 1 || q.DeadLettered() != 1 {
		t.Fatalf("park lost: count=%d total=%d", q.DeadLetterCount(), q.DeadLettered())
	}
	// Replay, then truncate again: the replayed message is live with a
	// reset failure budget, and the cumulative total still reads 1.
	if n := q.ReplayDeadLetters(); n != 1 {
		t.Fatalf("ReplayDeadLetters = %d, want 1", n)
	}
	if d, _ := q.Get(); string(d.Payload) != "poison" || d.Attempts != 0 {
		t.Fatalf("replayed delivery = %q attempts=%d", d.Payload, d.Attempts)
	} else {
		_ = q.Ack(d.Tag) // process it this time
	}
	churn(t, b, q, "ex")
	b.Crash()
	b.Restart()
	q, _ = b.Queue("q")
	if q.DeadLetterCount() != 0 {
		t.Fatalf("replayed park reappeared: %d", q.DeadLetterCount())
	}
	if q.DeadLettered() != 1 {
		t.Fatalf("cumulative dead-letter total = %d, want 1", q.DeadLettered())
	}
}
