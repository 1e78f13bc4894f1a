package coord

import (
	"sync"
	"testing"
	"time"
)

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
// watcher that watches and unwatches every cycle must leave the
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
