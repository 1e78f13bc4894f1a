package netsim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPerfectLinkPassesThrough(t *testing.T) {
	n := New(1)
	ran := 0
	if err := n.Do("a", "b", func() error { ran++; return nil }); err != nil {
		t.Fatalf("Do on perfect link: %v", err)
	}
	if ran != 1 {
		t.Fatalf("fn ran %d times, want 1", ran)
	}
	if err := n.Call("a", "b"); err != nil {
		t.Fatalf("Call on perfect link: %v", err)
	}
}

func TestPartitionIsBidirectionalAndHeals(t *testing.T) {
	n := New(1)
	n.Partition("app", "broker")
	if err := n.Call("app", "broker"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("app→broker: got %v, want ErrPartitioned", err)
	}
	if err := n.Call("broker", "app"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("broker→app: got %v, want ErrPartitioned", err)
	}
	ran := false
	if err := n.Do("app", "broker", func() error { ran = true; return nil }); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Do under partition: got %v, want ErrPartitioned", err)
	}
	if ran {
		t.Fatal("fn ran despite partition")
	}
	if !n.Partitioned("broker", "app") {
		t.Fatal("Partitioned should report true for either order")
	}
	n.Heal("broker", "app")
	if err := n.Call("app", "broker"); err != nil {
		t.Fatalf("after Heal: %v", err)
	}
	n.Partition("a", "b")
	n.Partition("c", "d")
	n.HealAll()
	if n.Partitioned("a", "b") || n.Partitioned("c", "d") {
		t.Fatal("HealAll left a partition behind")
	}
}

func TestDropRateDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) (drops int) {
		n := New(seed)
		n.SetDefaultProfile(Profile{DropRate: 0.3})
		for i := 0; i < 200; i++ {
			if err := n.Call("a", "b"); errors.Is(err, ErrDropped) {
				drops++
			}
		}
		return drops
	}
	d1, d2 := run(42), run(42)
	if d1 != d2 {
		t.Fatalf("same seed, different drop counts: %d vs %d", d1, d2)
	}
	if d1 == 0 || d1 == 200 {
		t.Fatalf("drop rate 0.3 produced %d/200 drops", d1)
	}
	if got := run(43); got == d1 {
		t.Logf("seeds 42 and 43 coincided at %d drops (possible, just unlucky)", got)
	}
	n := New(42)
	n.SetDefaultProfile(Profile{DropRate: 0.3})
	for i := 0; i < 10; i++ {
		_ = n.Call("a", "b")
	}
	if s := n.Stats(); s.Calls != 10 {
		t.Fatalf("Stats.Calls = %d, want 10", s.Calls)
	}
}

func TestDuplicateRunsTwice(t *testing.T) {
	n := New(7)
	n.SetProfile("a", "b", Profile{DupRate: 1.0})
	ran := 0
	if err := n.Do("a", "b", func() error { ran++; return nil }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if ran != 2 {
		t.Fatalf("fn ran %d times under DupRate=1, want 2", ran)
	}
	if s := n.Stats(); s.Duplicates != 1 {
		t.Fatalf("Stats.Duplicates = %d, want 1", s.Duplicates)
	}
	// A failed first execution is not retried by the dup path: the
	// "retransmit" models the request landing twice, and the caller's
	// own retry handles the failure.
	calls := 0
	wantErr := errors.New("boom")
	err := n.Do("a", "b", func() error { calls++; return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Do: got %v, want fn error", err)
	}
	if calls != 1 {
		t.Fatalf("failed fn ran %d times, want 1", calls)
	}
}

func TestLatencyWindowRespected(t *testing.T) {
	n := New(9)
	n.SetProfile("a", "b", Profile{LatencyMin: 2 * time.Millisecond, LatencyMax: 4 * time.Millisecond})
	start := time.Now()
	if err := n.Call("a", "b"); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("latency %v below LatencyMin", el)
	}
}

func TestCallerRetriesThroughTransientFailure(t *testing.T) {
	c := NewCaller(1)
	c.deadline = time.Minute // the retry must not depend on the host's pace
	calls := 0
	err := c.Do(func() error {
		calls++
		if calls < callAttempts {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do should succeed on its last attempt: %v", err)
	}
	if calls != callAttempts {
		t.Fatalf("fn called %d times, want %d", calls, callAttempts)
	}
}

// openBreaker fails breakerThreshold Dos in a row, which opens c's
// breaker.
func openBreaker(t *testing.T, c *Caller) {
	t.Helper()
	boom := errors.New("down")
	for i := 0; i < breakerThreshold; i++ {
		if err := c.Do(func() error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("failure %d: got %v, want boom", i, err)
		}
	}
}

// rejects reports whether c fast-fails a Do without running its fn.
func rejects(c *Caller) bool {
	ran := false
	err := c.Do(func() error { ran = true; return nil })
	return errors.Is(err, ErrBreakerOpen) && !ran
}

func TestCallerBreakerOpensAndRecovers(t *testing.T) {
	c := NewCaller(1)
	c.cooldown = 20 * time.Millisecond
	openBreaker(t, c)
	if !rejects(c) {
		t.Fatal("open breaker should fast-fail without running fn")
	}
	time.Sleep(25 * time.Millisecond)
	// Half-open: one probe admitted; success closes the breaker.
	if err := c.Do(func() error { return nil }); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	ran := false
	if err := c.Do(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("breaker should close after successful probe: err=%v ran=%v", err, ran)
	}
}

func TestCallerFailedProbeReopens(t *testing.T) {
	c := NewCaller(1)
	c.cooldown = 10 * time.Millisecond
	openBreaker(t, c)
	time.Sleep(15 * time.Millisecond)
	boom := errors.New("down")
	if err := c.Do(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("half-open probe: got %v, want boom", err)
	}
	if !rejects(c) {
		t.Fatal("failed probe should re-open the breaker")
	}
}

// TestCallerHalfOpenAdmitsOneProbe races Dos at a breaker whose cooldown
// has passed: the first claims the half-open probe and every other
// fast-fails until it lands, rather than all of them dialing the
// endpoint that is still dead.
func TestCallerHalfOpenAdmitsOneProbe(t *testing.T) {
	c := NewCaller(1)
	c.cooldown = 10 * time.Millisecond
	openBreaker(t, c)
	time.Sleep(15 * time.Millisecond)
	// The probe's claim must outlast a slow scheduler: no Do below may
	// find it lapsed.
	c.cooldown = time.Minute

	const callers = 8
	var rejected, ran atomic.Int32
	allRejected := make(chan struct{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			entered := false
			err := c.Do(func() error {
				entered = true
				// The probe fails only once every other caller has been
				// turned away, so none of them can see it land.
				select {
				case <-allRejected:
				case <-time.After(time.Second):
				}
				return errors.New("still down")
			})
			if entered {
				ran.Add(1)
			} else if errors.Is(err, ErrBreakerOpen) && rejected.Add(1) == callers-1 {
				close(allRejected)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d of %d Dos ran fn past the cooldown, want 1 probe", got, callers)
	}
	if got := rejected.Load(); got != callers-1 {
		t.Fatalf("%d Dos fast-failed, want %d", got, callers-1)
	}
	if !rejects(c) {
		t.Fatal("failed probe should re-open the breaker")
	}
}

func TestCallerDeadlineBoundsRetries(t *testing.T) {
	c := NewCaller(1)
	calls := 0
	boom := errors.New("down")
	err := c.Do(func() error {
		calls++
		time.Sleep(callDeadline + time.Millisecond)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Do: %v", err)
	}
	if calls != 1 {
		t.Fatalf("%d attempts ran, want none started past the deadline", calls)
	}
}

// TestCallerBreakerHalfOpenRecoveryOverFabric integrates the breaker
// with the simulated network end to end: a partition trips the breaker
// through real failed calls, fast-fails protect the app while the
// fabric is down, and after the fabric heals the next Do past the
// cooldown is a half-open probe that rides the healthy link — calls
// resume from a single cheap probe, never by waiting out a full RPC
// deadline against a dead link.
func TestCallerBreakerHalfOpenRecoveryOverFabric(t *testing.T) {
	n := New(7)
	n.SetProfile("app", "broker", Profile{
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 50 * time.Microsecond,
	})
	c := NewCaller(7)
	c.cooldown = 10 * time.Millisecond
	attempts := 0
	rpc := func() error {
		attempts++
		return n.Do("app", "broker", func() error { return nil })
	}

	// Fault: every call through the partitioned link fails for real,
	// walking the breaker to its threshold.
	n.Partition("app", "broker")
	for i := 0; i < breakerThreshold; i++ {
		if err := c.Do(rpc); !errors.Is(err, ErrPartitioned) {
			t.Fatalf("call %d through partition: got %v, want ErrPartitioned", i, err)
		}
	}
	// While open and within cooldown, calls fast-fail without touching
	// the (still dead) link.
	before := n.Stats().PartitionRx
	attempts = 0
	if err := c.Do(rpc); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("within cooldown: got %v, want ErrBreakerOpen", err)
	}
	if attempts != 0 || n.Stats().PartitionRx != before {
		t.Fatal("fast-fail still dialed the partitioned link")
	}

	// Heal the fabric; after the cooldown the half-open probe goes
	// through the healthy link and closes the breaker in one attempt.
	n.Heal("app", "broker")
	time.Sleep(12 * time.Millisecond)
	if err := c.Do(rpc); err != nil {
		t.Fatalf("half-open probe over healed link: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("recovery took %d attempts, should be a single cheap probe", attempts)
	}
	if err := c.Do(rpc); err != nil || attempts != 2 {
		t.Fatalf("steady state after recovery: err=%v attempts=%d, want the breaker closed", err, attempts)
	}
}
