package vstore

import (
	"sync"
	"sync/atomic"
	"testing"
)

// registrations counts the waiter-table entries across the store.
func registrations(s *Store) int {
	n := 0
	for _, sh := range s.shards {
		sh.waitMu.Lock()
		for _, ws := range sh.waiters {
			n += len(ws)
		}
		sh.waitMu.Unlock()
	}
	return n
}

// TestParkReadyRegistersNothing: a probe that finds every counter
// reached returns nil, never calls wake, leaves the waiter table empty
// and costs exactly one round-trip window (none for zero minimums).
func TestParkReadyRegistersNothing(t *testing.T) {
	s := New(Config{Shards: 4})
	a, b := s.KeyFor("a"), s.KeyFor("b")
	if err := s.IncrOps([]Key{a, b}); err != nil {
		t.Fatal(err)
	}
	var wakes atomic.Int32
	wake := WakeFunc(func() { wakes.Add(1) })
	before := s.RoundTrips()
	if p, err := s.Park(map[Key]uint64{a: 1, b: 1}, wake); p != nil || err != nil {
		t.Fatalf("Park on satisfied reqs = %v, %v; want nil, nil", p, err)
	}
	if rt := s.RoundTrips() - before; rt != 1 {
		t.Errorf("satisfied probe cost %d round-trip windows, want 1", rt)
	}
	if p, err := s.Park(map[Key]uint64{a: 0}, wake); p != nil || err != nil || s.RoundTrips()-before != 1 {
		t.Errorf("zero-minimum Park = %v, %v (round trips %d), want nil, nil, no window", p, err, s.RoundTrips()-before)
	}
	if n := registrations(s); n != 0 || wakes.Load() != 0 {
		t.Errorf("registrations=%d wakes=%d after ready probes, want 0, 0", n, wakes.Load())
	}
}

// TestParkFiresOnceAtThreshold: the unmet keys come back with their
// counters; increments below a threshold fire nothing; the first key to
// reach its threshold fires wake exactly once and drops the wait's
// registrations on its other keys; a nil wake only probes.
func TestParkFiresOnceAtThreshold(t *testing.T) {
	s := New(Config{Shards: 4})
	hot, other, met := s.KeyFor("hot"), s.KeyFor("other"), s.KeyFor("met")
	if err := s.IncrOps([]Key{met}); err != nil {
		t.Fatal(err)
	}
	reqs := map[Key]uint64{hot: 3, other: 1, met: 1}

	if p, err := s.Park(reqs, nil); err != nil || p == nil || len(p.Unmet) != 2 || registrations(s) != 0 {
		t.Fatalf("probe-only Park = %+v, %v with %d registrations; want 2 unmet, none registered", p, err, registrations(s))
	}

	var wakes atomic.Int32
	p, err := s.Park(reqs, WakeFunc(func() { wakes.Add(1) }))
	if err != nil || p == nil {
		t.Fatalf("Park = %v, %v; want unmet", p, err)
	}
	if len(p.Unmet) != 2 || p.Unmet[0].Key > p.Unmet[1].Key {
		t.Fatalf("Unmet = %+v, want hot and other in key order", p.Unmet)
	}
	for _, r := range p.Unmet {
		if r.Have != 0 || r.Need != reqs[r.Key] {
			t.Errorf("unmet %+v, want have 0 need %d", r, reqs[r.Key])
		}
	}
	if n := registrations(s); n != 2 {
		t.Fatalf("registrations = %d, want one per unmet key", n)
	}
	for i := 0; i < 2; i++ { // hot: 1, 2 — below its threshold of 3
		if err := s.IncrOps([]Key{hot, met}); err != nil {
			t.Fatal(err)
		}
	}
	if wakes.Load() != 0 || registrations(s) != 2 {
		t.Fatalf("below threshold: wakes=%d registrations=%d, want 0, 2", wakes.Load(), registrations(s))
	}
	if err := s.IncrOpsMulti(map[Key]uint64{hot: 5}); err != nil {
		t.Fatal(err)
	}
	if wakes.Load() != 1 || registrations(s) != 0 {
		t.Fatalf("at threshold: wakes=%d registrations=%d, want 1, 0 (other key dropped)", wakes.Load(), registrations(s))
	}
	if err := s.IncrOps([]Key{other}); err != nil {
		t.Fatal(err)
	}
	if p.Cancel() || wakes.Load() != 1 {
		t.Errorf("after firing: Cancel=true or wakes=%d, want an ended wait and 1", wakes.Load())
	}
}

// TestParkCancelFlushKill: a cancelled wait never fires; Flush, Kill and
// the bootstrap bulk load each fire a registered one.
func TestParkCancelFlushKill(t *testing.T) {
	s := New(Config{Shards: 2})
	k := s.KeyFor("k")
	reqs := map[Key]uint64{k: 2}
	var wakes atomic.Int32
	wake := WakeFunc(func() { wakes.Add(1) })

	p, _ := s.Park(reqs, wake)
	if !p.Cancel() || registrations(s) != 0 {
		t.Fatalf("Cancel of a live wait: registrations=%d, want true and 0", registrations(s))
	}
	if err := s.IncrOpsMulti(map[Key]uint64{k: 1}); err != nil || wakes.Load() != 0 {
		t.Fatalf("cancelled wait fired (wakes=%d, err=%v)", wakes.Load(), err)
	}
	for name, move := range map[string]func(){
		"flush":    s.Flush,
		"kill":     func() { s.Kill(); s.Revive() },
		"bulkload": func() { _ = s.SetOpsMulti(map[Key]uint64{k: 9}) },
	} {
		before := wakes.Load()
		if p, err := s.Park(map[Key]uint64{k: 9}, wake); p == nil || err != nil {
			t.Fatalf("%s: Park = %v, %v; want unmet", name, p, err)
		}
		move()
		if wakes.Load() != before+1 || registrations(s) != 0 {
			t.Errorf("%s: wakes=%d registrations=%d, want %d, 0", name, wakes.Load(), registrations(s), before+1)
		}
		s.Flush()
	}
}

// TestParkNoLostWakeupUnderConcurrentIncrements hammers the
// check-and-register window: every Park that reports unmet must be
// fired by the increment that reaches its threshold, however the two
// interleave, and every wait must end with an empty table.
func TestParkNoLostWakeupUnderConcurrentIncrements(t *testing.T) {
	s := New(Config{Shards: 4})
	keys := []Key{s.KeyFor("a"), s.KeyFor("b"), s.KeyFor("c")}
	const rounds = 300
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			woken := make(chan struct{}, 1)
			for v := uint64(1); v <= rounds; v++ {
				reqs := map[Key]uint64{keys[0]: v, keys[1]: v, keys[2]: v}
				for {
					p, err := s.Park(reqs, WakeFunc(func() { woken <- struct{}{} }))
					if err != nil {
						t.Error(err)
						return
					}
					if p == nil {
						break
					}
					<-woken
				}
			}
		}()
	}
	for v := 0; v < rounds; v++ {
		for _, k := range keys {
			if err := s.IncrOps([]Key{k}); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	if n := registrations(s); n != 0 {
		t.Fatalf("%d registrations left after every wait resolved", n)
	}
}
