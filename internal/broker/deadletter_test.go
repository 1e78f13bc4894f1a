package broker

import (
	"errors"
	"testing"

	"synapse/internal/faultinject"
)

func TestNackErrorRequeuesUntilMaxAttempts(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	q.SetMaxAttempts(3)
	_ = b.Bind("s", "p")
	b.Publish("p", []byte("poison"))
	b.Publish("p", []byte("good"))

	for attempt := 1; attempt <= 3; attempt++ {
		d, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if string(d.Payload) != "poison" {
			t.Fatalf("attempt %d delivered %q", attempt, d.Payload)
		}
		if d.Attempts != attempt-1 {
			t.Errorf("attempt %d: Attempts = %d, want %d", attempt, d.Attempts, attempt-1)
		}
		dead, err := q.NackError(d.Tag)
		if err != nil {
			t.Fatal(err)
		}
		if wantDead := attempt == 3; dead != wantDead {
			t.Fatalf("attempt %d: dead = %v, want %v", attempt, dead, wantDead)
		}
	}

	// The pool keeps draining past the parked message.
	d, err := q.Get()
	if err != nil || string(d.Payload) != "good" {
		t.Fatalf("after dead-letter: %q, %v", d.Payload, err)
	}
	_ = q.Ack(d.Tag)

	if q.DeadLetterCount() != 1 || q.DeadLettered() != 1 {
		t.Errorf("DeadLetterCount=%d DeadLettered=%d, want 1, 1", q.DeadLetterCount(), q.DeadLettered())
	}
	dls := q.DeadLetters()
	if len(dls) != 1 || string(dls[0].Payload) != "poison" || dls[0].Attempts != 3 {
		t.Errorf("DeadLetters = %+v", dls)
	}
}

func TestSpillNackDoesNotCountAsFailure(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	q.SetMaxAttempts(1)
	_ = b.Bind("s", "p")
	b.Publish("p", []byte("m"))

	// Hand-backs (plain Nack) never dead-letter, no matter how
	// many times they happen.
	for i := 0; i < 5; i++ {
		d, _ := q.Get()
		if d.Attempts != 0 {
			t.Fatalf("spill %d bumped Attempts to %d", i, d.Attempts)
		}
		if err := q.Nack(d.Tag, true); err != nil {
			t.Fatal(err)
		}
	}
	if q.DeadLetterCount() != 0 {
		t.Fatalf("spill handbacks dead-lettered the message")
	}
	// One real failure hits the (tight) bound.
	d, _ := q.Get()
	if dead, _ := q.NackError(d.Tag); !dead {
		t.Fatal("failure nack did not dead-letter at maxAttempts=1")
	}
}

func TestReplayDeadLetters(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	q.SetMaxAttempts(1)
	_ = b.Bind("s", "p")
	b.Publish("p", []byte("a"))
	b.Publish("p", []byte("b"))
	for i := 0; i < 2; i++ {
		d, _ := q.Get()
		if dead, _ := q.NackError(d.Tag); !dead {
			t.Fatal("expected immediate dead-letter")
		}
	}
	if n := q.ReplayDeadLetters(); n != 2 {
		t.Fatalf("ReplayDeadLetters = %d, want 2", n)
	}
	if q.DeadLetterCount() != 0 {
		t.Error("set-aside list not cleared by replay")
	}
	if q.DeadLettered() != 2 {
		t.Errorf("DeadLettered = %d, want 2 (historical count survives replay)", q.DeadLettered())
	}
	// Replay preserves park order and resets the failure count, so each
	// message gets a fresh round of attempts.
	for _, want := range []string{"a", "b"} {
		d, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if string(d.Payload) != want || d.Attempts != 0 {
			t.Errorf("replayed delivery = %q attempts=%d, want %q attempts=0", d.Payload, d.Attempts, want)
		}
		_ = q.Ack(d.Tag)
	}
}

func TestNackErrorUnboundedByDefault(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	b.Publish("p", []byte("m"))
	for i := 0; i < 10; i++ {
		d, _ := q.Get()
		dead, err := q.NackError(d.Tag)
		if err != nil || dead {
			t.Fatalf("iteration %d: dead=%v err=%v (maxAttempts=0 must retry forever)", i, dead, err)
		}
	}
	if err := func() error { _, err := q.NackError(999); return err }(); !errors.Is(err, ErrBadTag) {
		t.Errorf("NackError bad tag = %v", err)
	}
}

func TestFaultBrokerDrop(t *testing.T) {
	b := New()
	q, _ := b.DeclareQueue("s", 0)
	_ = b.Bind("s", "p")
	faults := faultinject.New()
	b.SetFaults(faults)

	// Drop exactly the second delivery.
	faults.ArmN(FaultBrokerDrop, 1, 1, faultinject.Fail(errors.New("dropped")))
	b.Publish("p", []byte("m1"))
	b.Publish("p", []byte("m2")) // dropped between exchange and queue
	b.Publish("p", []byte("m3"))

	var got []string
	for {
		d, ok, err := q.TryGet()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, string(d.Payload))
		_ = q.Ack(d.Tag)
	}
	if len(got) != 2 || got[0] != "m1" || got[1] != "m3" {
		t.Errorf("delivered %v, want [m1 m3]", got)
	}
	if faults.Hits(FaultBrokerDrop) != 3 {
		t.Errorf("Hits = %d, want 3", faults.Hits(FaultBrokerDrop))
	}
}
