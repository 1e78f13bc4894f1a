package coord

import (
	"sync"
	"testing"
	"time"
)

// leaseHolder reports the lease's current unexpired holder and its epoch.
func leaseHolder(c *Coordinator, name string) (owner string, epoch uint64, held bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[name]
	if l == nil || l.owner == "" || c.now().After(l.expires) {
		return "", 0, false
	}
	return l.owner, l.epoch, true
}

func TestGetIncrement(t *testing.T) {
	c := New()
	if c.Get("gen") != 0 {
		t.Fatal("fresh counter not zero")
	}
	if v := c.Increment("gen"); v != 1 {
		t.Fatalf("Increment = %d", v)
	}
	if v := c.Increment("gen"); v != 2 {
		t.Fatalf("Increment = %d", v)
	}
	if c.Get("gen") != 2 {
		t.Fatalf("Get = %d", c.Get("gen"))
	}
	if c.Get("other") != 0 {
		t.Fatal("counters not independent")
	}
}

func TestWatchDelivers(t *testing.T) {
	c := New()
	ch := c.Watch("gen")
	c.Increment("gen")
	select {
	case v := <-ch:
		if v != 1 {
			t.Fatalf("watch value = %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never fired")
	}
}

func TestSlowWatcherAlwaysHoldsLatest(t *testing.T) {
	c := New()
	ch := c.Watch("gen")
	// Buffer size 1 and a watcher that never drained: the stale first
	// value must be replaced, not kept — a slow watcher may miss
	// intermediate values but never the newest.
	c.Increment("gen")
	c.Increment("gen")
	select {
	case v := <-ch:
		if v != 2 {
			t.Fatalf("slow watcher received stale value %d, want 2", v)
		}
	default:
		t.Fatal("watch buffer empty after two increments")
	}
	// And again across a longer burst.
	for i := 0; i < 10; i++ {
		c.Increment("gen")
	}
	if v := <-ch; v != 12 {
		t.Fatalf("slow watcher received %d, want 12 (the latest)", v)
	}
}

func TestSlowWatcherSeesLatestViaGet(t *testing.T) {
	c := New()
	ch := c.Watch("gen")
	c.Increment("gen")
	c.Increment("gen")
	<-ch
	// Whether or not a second value is buffered, Get returns the latest.
	if c.Get("gen") != 2 {
		t.Fatal("Get did not observe latest")
	}
}

func TestUnwatch(t *testing.T) {
	c := New()
	ch := c.Watch("gen")
	c.Unwatch("gen", ch)
	c.Increment("gen")
	select {
	case <-ch:
		t.Fatal("unwatched channel received")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestUnwatchReleasesSlot proves watch registration does not leak: a
// failover agent that watches and unwatches every cycle must leave the
// watcher slice empty, not grow it per cycle.
func TestUnwatchReleasesSlot(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		ch := c.Watch("gen")
		c.Unwatch("gen", ch)
	}
	c.mu.Lock()
	n := len(c.watchers["gen"])
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("watcher slice holds %d channels after balanced watch/unwatch", n)
	}
}

// fakeClock is a manually advanced time source for lease expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func TestLeaseAcquireRenewRelease(t *testing.T) {
	c := New()
	clk := newFakeClock()
	c.SetClock(clk.Now)

	held, epoch := c.Acquire("shard0", "primary", 100*time.Millisecond)
	if !held || epoch != 1 {
		t.Fatalf("first Acquire = (%v, %d), want (true, 1)", held, epoch)
	}
	if held, _ := c.Acquire("shard0", "rival", 100*time.Millisecond); held {
		t.Fatal("rival acquired a live lease")
	}
	// Holder renews within the TTL; epoch unchanged on re-acquire.
	clk.Advance(60 * time.Millisecond)
	if !c.Renew("shard0", "primary", 100*time.Millisecond) {
		t.Fatal("holder could not renew a live lease")
	}
	if held, epoch := c.Acquire("shard0", "primary", 100*time.Millisecond); !held || epoch != 1 {
		t.Fatalf("holder re-acquire = (%v, %d), want (true, 1)", held, epoch)
	}
	if owner, epoch, ok := leaseHolder(c, "shard0"); !ok || owner != "primary" || epoch != 1 {
		t.Fatalf("LeaseHolder = (%q, %d, %v)", owner, epoch, ok)
	}
	// Release frees it for the next claimant under a bumped epoch.
	c.Release("shard0", "primary")
	if _, _, ok := leaseHolder(c, "shard0"); ok {
		t.Fatal("released lease still reports a holder")
	}
	held, epoch = c.Acquire("shard0", "rival", 100*time.Millisecond)
	if !held || epoch != 2 {
		t.Fatalf("post-release Acquire = (%v, %d), want (true, 2)", held, epoch)
	}
}

func TestLeaseExpiry(t *testing.T) {
	c := New()
	clk := newFakeClock()
	c.SetClock(clk.Now)

	c.Acquire("shard0", "primary", 50*time.Millisecond)
	clk.Advance(51 * time.Millisecond)

	// Expired: renewal fails, the holder is gone, and a rival takes the
	// lease under a new fencing epoch.
	if c.Renew("shard0", "primary", 50*time.Millisecond) {
		t.Fatal("renewed an expired lease")
	}
	if _, _, ok := leaseHolder(c, "shard0"); ok {
		t.Fatal("expired lease still reports a holder")
	}
	held, epoch := c.Acquire("shard0", "follower", 50*time.Millisecond)
	if !held || epoch != 2 {
		t.Fatalf("follower takeover = (%v, %d), want (true, 2)", held, epoch)
	}
	// The old holder cannot renew and, on re-acquiring after the rival's
	// lease lapses too, observes yet another epoch — the fencing signal.
	if c.Renew("shard0", "primary", 50*time.Millisecond) {
		t.Fatal("fenced holder renewed the rival's lease")
	}
	clk.Advance(51 * time.Millisecond)
	held, epoch = c.Acquire("shard0", "primary", 50*time.Millisecond)
	if !held || epoch != 3 {
		t.Fatalf("re-acquire after lapse = (%v, %d), want (true, 3)", held, epoch)
	}
}

func TestLeaseOwnRelapseBumpsEpoch(t *testing.T) {
	c := New()
	clk := newFakeClock()
	c.SetClock(clk.Now)

	_, e1 := c.Acquire("shard0", "primary", 10*time.Millisecond)
	clk.Advance(11 * time.Millisecond)
	// Nobody else claimed it, but the lapse still bumps the epoch: the
	// holder must be able to detect that it lost continuity.
	_, e2 := c.Acquire("shard0", "primary", 10*time.Millisecond)
	if e2 != e1+1 {
		t.Fatalf("epoch after own lapse = %d, want %d", e2, e1+1)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Increment("gen")
			}
		}()
	}
	wg.Wait()
	if c.Get("gen") != 1600 {
		t.Fatalf("Get = %d, want 1600", c.Get("gen"))
	}
}
