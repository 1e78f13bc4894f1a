package vstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newStore() *Store { return New(Config{Shards: 4}) }

// TestFig8Counters replays the exact trace of Fig 8 against the
// publisher algorithm and checks every counter and message version the
// paper lists.
func TestFig8Counters(t *testing.T) {
	s := New(Config{Shards: 4})
	u1 := s.KeyFor("app/users/id/1")
	u2 := s.KeyFor("app/users/id/2")
	p1 := s.KeyFor("app/posts/id/1")
	c1 := s.KeyFor("app/comments/id/1")
	c2 := s.KeyFor("app/comments/id/2")

	bump := func(reads, writes []Key) map[Key]uint64 {
		t.Helper()
		held, err := s.LockWrites(writes)
		if err != nil {
			t.Fatal(err)
		}
		deps, err := s.Bump(reads, writes)
		if err != nil {
			t.Fatal(err)
		}
		s.UnlockWrites(held)
		return deps
	}
	checkCounters := func(k Key, ops, version uint64, label string) {
		t.Helper()
		c := s.Counters(k)
		if c.Ops != ops || c.Version != version {
			t.Errorf("%s: counters = %+v, want ops=%d version=%d", label, c, ops, version)
		}
	}

	// W1: read [], write [u1, p1].
	m1 := bump(nil, []Key{u1, p1})
	checkCounters(u1, 1, 1, "after W1 u1")
	checkCounters(p1, 1, 1, "after W1 p1")
	if m1[u1] != 0 || m1[p1] != 0 {
		t.Errorf("M1 deps = %v, want u1:0 p1:0", m1)
	}

	// W2: read [p1], write [u2, c1].
	m2 := bump([]Key{p1}, []Key{u2, c1})
	checkCounters(u2, 1, 1, "after W2 u2")
	checkCounters(c1, 1, 1, "after W2 c1")
	checkCounters(p1, 2, 1, "after W2 p1")
	if m2[u2] != 0 || m2[c1] != 0 || m2[p1] != 1 {
		t.Errorf("M2 deps = %v, want u2:0 c1:0 p1:1", m2)
	}

	// W3: read [p1], write [u1, c2].
	m3 := bump([]Key{p1}, []Key{u1, c2})
	checkCounters(u1, 2, 2, "after W3 u1")
	checkCounters(c2, 1, 1, "after W3 c2")
	checkCounters(p1, 3, 1, "after W3 p1")
	if m3[u1] != 1 || m3[c2] != 0 || m3[p1] != 1 {
		t.Errorf("M3 deps = %v, want u1:1 c2:0 p1:1", m3)
	}

	// W4: read [], write [u1, p1].
	m4 := bump(nil, []Key{u1, p1})
	checkCounters(u1, 3, 3, "after W4 u1")
	checkCounters(p1, 4, 4, "after W4 p1")
	if m4[u1] != 2 || m4[p1] != 3 {
		t.Errorf("M4 deps = %v, want u1:2 p1:3", m4)
	}
}

func TestBumpReadAndWriteSameKey(t *testing.T) {
	s := newStore()
	k := s.KeyFor("x")
	deps, err := s.Bump([]Key{k}, []Key{k})
	if err != nil {
		t.Fatal(err)
	}
	// Treated as a write: one increment, version-1 in the message.
	if deps[k] != 0 {
		t.Errorf("deps = %v", deps)
	}
	if c := s.Counters(k); c.Ops != 1 || c.Version != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestSubscriberWaitIncrFlow(t *testing.T) {
	s := newStore()
	k := s.KeyFor("dep")
	// min 0 never blocks.
	if err := s.WaitAtLeast(k, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Unsatisfied with zero timeout: immediate ErrTimeout.
	if err := s.WaitAtLeast(k, 1, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("WaitAtLeast = %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.WaitAtLeast(k, 2, -1) }()
	time.Sleep(5 * time.Millisecond)
	if err := s.IncrOps([]Key{k}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("woke too early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.IncrOps([]Key{k}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
	if s.Ops(k) != 2 {
		t.Errorf("Ops = %d", s.Ops(k))
	}
}

func TestWaitTimeout(t *testing.T) {
	s := newStore()
	k := s.KeyFor("dep")
	start := time.Now()
	err := s.WaitAtLeast(k, 1, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("returned after %v, before the timeout", d)
	}
}

func TestNoLostWakeup(t *testing.T) {
	// Hammer the register-check-wait path against concurrent increments.
	s := New(Config{Shards: 1})
	k := s.KeyFor("dep")
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			if err := s.WaitAtLeast(k, uint64(i), 5*time.Second); err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := s.IncrOps([]Key{k}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestLockWritesMutualExclusionAcrossShards(t *testing.T) {
	s := New(Config{Shards: 4})
	keys := []Key{s.KeyFor("a"), s.KeyFor("b"), s.KeyFor("c")}
	var cur, max int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Alternate acquisition orders: sorted locking must
				// prevent deadlock.
				ks := keys
				if w%2 == 1 {
					ks = []Key{keys[2], keys[0], keys[1]}
				}
				held, err := s.LockWrites(ks)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				cur++
				if cur > max {
					max = cur
				}
				mu.Unlock()
				mu.Lock()
				cur--
				mu.Unlock()
				s.UnlockWrites(held)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("LockWrites deadlocked")
	}
	if max != 1 {
		t.Fatalf("%d holders inside full lock set", max)
	}
}

func TestApplyIfNewer(t *testing.T) {
	s := newStore()
	k := s.KeyFor("obj")
	ok, prev, err := s.ApplyIfNewer(k, 3)
	if err != nil || !ok || prev != 0 {
		t.Fatalf("first apply = %v %d %v", ok, prev, err)
	}
	// Stale and duplicate versions are discarded.
	for _, v := range []uint64{1, 2, 3} {
		if ok, _, _ := s.ApplyIfNewer(k, v); ok {
			t.Errorf("version %d applied over 3", v)
		}
	}
	ok, prev, _ = s.ApplyIfNewer(k, 4)
	if !ok || prev != 3 {
		t.Errorf("newer version = %v prev=%d", ok, prev)
	}
	// RestoreVersion rolls back a failed claim...
	if err := s.RestoreVersion(k, 4, 3); err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := s.ApplyIfNewer(k, 4); !ok {
		t.Error("rolled-back version not reclaimable")
	}
	// ...but not when a newer claim has landed in between.
	_, _, _ = s.ApplyIfNewer(k, 9)
	if err := s.RestoreVersion(k, 4, 3); err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := s.ApplyIfNewer(k, 5); ok {
		t.Error("stale rollback clobbered a newer claim")
	}
}

func TestSetOpsMaxMerge(t *testing.T) {
	s := newStore()
	k := s.KeyFor("dep")
	if err := s.SetOpsMulti(map[Key]uint64{k: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetOpsMulti(map[Key]uint64{k: 3}); err != nil {
		t.Fatal(err)
	}
	if s.Ops(k) != 5 {
		t.Errorf("Ops = %d, want 5 (max-merge)", s.Ops(k))
	}
	// SetOpsMulti wakes waiters.
	done := make(chan error, 1)
	go func() { done <- s.WaitAtLeast(k, 10, -1) }()
	time.Sleep(5 * time.Millisecond)
	_ = s.SetOpsMulti(map[Key]uint64{k: 10})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SetOpsMulti did not wake waiter")
	}
}

func TestKillWakesWaitersAndFailsOps(t *testing.T) {
	s := newStore()
	k := s.KeyFor("dep")
	done := make(chan error, 1)
	go func() { done <- s.WaitAtLeast(k, 1, -1) }()
	time.Sleep(5 * time.Millisecond)
	s.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDead) {
			t.Fatalf("waiter err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not wake waiter")
	}
	if err := s.IncrOps([]Key{k}); !errors.Is(err, ErrDead) {
		t.Errorf("IncrOps on dead store = %v", err)
	}
	if _, err := s.Bump(nil, []Key{k}); !errors.Is(err, ErrDead) {
		t.Errorf("Bump on dead store = %v", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ErrDead) {
		t.Errorf("Snapshot on dead store = %v", err)
	}
	s.Revive()
	if s.Ops(k) != 0 {
		t.Error("Revive kept old state")
	}
	if err := s.IncrOps([]Key{k}); err != nil {
		t.Fatalf("IncrOps after revive = %v", err)
	}
}

func TestFlushClearsCounters(t *testing.T) {
	s := newStore()
	k := s.KeyFor("dep")
	_ = s.IncrOps([]Key{k})
	s.Flush()
	if s.Ops(k) != 0 {
		t.Error("Flush kept counters")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	pub := newStore()
	sub := newStore()
	var keys []Key
	for i := 0; i < 50; i++ {
		k := pub.KeyFor(fmt.Sprintf("dep-%d", i))
		keys = append(keys, k)
		held, _ := pub.LockWrites([]Key{k})
		if _, err := pub.Bump(nil, []Key{k}); err != nil {
			t.Fatal(err)
		}
		pub.UnlockWrites(held)
	}
	snap, err := pub.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range snap {
		if err := sub.SetOpsMulti(map[Key]uint64{k: c.Ops}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if sub.Ops(k) != pub.Counters(k).Ops {
			t.Fatalf("ops mismatch for %d", k)
		}
	}
}

func TestCardinalityBoundsEntries(t *testing.T) {
	s := New(Config{Shards: 2, Cardinality: 8})
	for i := 0; i < 1000; i++ {
		k := s.KeyFor(fmt.Sprintf("dep-%d", i))
		if uint64(k) >= 8 {
			t.Fatalf("key %d outside cardinality", k)
		}
		if err := s.IncrOps([]Key{k}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for _, sh := range s.shards {
		n += len(sh.data)
	}
	if n > 8 {
		t.Fatalf("%d entries, want <= 8", n)
	}
}

func TestCardinalityOneSerializesEverything(t *testing.T) {
	s := New(Config{Shards: 4, Cardinality: 1})
	if s.KeyFor("a") != s.KeyFor("zzz") {
		t.Fatal("cardinality-1 store produced distinct keys")
	}
}

func TestRingConsistency(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 100; i++ {
		h := HashParts(fmt.Sprintf("key-%d", i))
		a, b := r.locate(h), r.locate(h)
		if a != b {
			t.Fatal("ring lookup not deterministic")
		}
		if a < 0 || a >= 8 {
			t.Fatalf("shard %d out of range", a)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := newRing(4)
	counts := make([]int, 4)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.locate(HashParts(fmt.Sprintf("key-%d", i)))]++
	}
	for s, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("shard %d holds %.1f%% of keys", s, frac*100)
		}
	}
}

// Property: ops counters are monotonically non-decreasing under any
// interleaving of IncrOps and SetOpsMulti.
func TestQuickOpsMonotonic(t *testing.T) {
	check := func(incrs []bool, sets []uint16) bool {
		s := New(Config{Shards: 2})
		k := s.KeyFor("k")
		var last uint64
		for i := 0; i < len(incrs) || i < len(sets); i++ {
			if i < len(incrs) && incrs[i] {
				_ = s.IncrOps([]Key{k})
			}
			if i < len(sets) {
				_ = s.SetOpsMulti(map[Key]uint64{k: uint64(sets[i])})
			}
			cur := s.Ops(k)
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bump with only write deps returns exactly version-1 and the
// sum of ops over all keys equals the number of (key, bump) events.
func TestQuickBumpAccounting(t *testing.T) {
	check := func(seq []uint8) bool {
		s := New(Config{Shards: 3})
		bumps := make(map[Key]uint64)
		for _, b := range seq {
			k := s.KeyFor(fmt.Sprintf("obj-%d", b%5))
			held, err := s.LockWrites([]Key{k})
			if err != nil {
				return false
			}
			deps, err := s.Bump(nil, []Key{k})
			s.UnlockWrites(held)
			if err != nil {
				return false
			}
			// The message version is the pre-bump version.
			if deps[k] != bumps[k] {
				return false
			}
			bumps[k]++
			c := s.Counters(k)
			if c.Ops != bumps[k] || c.Version != bumps[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestThresholdWakeupsSkipUnsatisfied: a waiter needing ops >= 5 must
// stay registered (and blocked) through increments 1..4 and wake on the
// increment that reaches 5. The old behaviour woke every waiter on
// every increment, forcing a spurious re-check round trip each time.
func TestThresholdWakeupsSkipUnsatisfied(t *testing.T) {
	s := New(Config{Shards: 1})
	k := s.KeyFor("dep")
	sh := s.shardFor(k)

	done := make(chan error, 1)
	go func() { done <- s.WaitAtLeast(k, 5, 5*time.Second) }()

	// Wait for the waiter to register.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sh.waitMu.Lock()
		n := len(sh.waiters[k])
		sh.waitMu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 4; i++ {
		if err := s.IncrOps([]Key{k}); err != nil {
			t.Fatal(err)
		}
	}
	// Below threshold: waiter must still be registered and blocked.
	sh.waitMu.Lock()
	n := len(sh.waiters[k])
	sh.waitMu.Unlock()
	if n != 1 {
		t.Fatalf("waiter list has %d entries after sub-threshold increments, want 1", n)
	}
	select {
	case err := <-done:
		t.Fatalf("waiter returned early: %v", err)
	default:
	}

	// The increment that reaches the threshold wakes it.
	if err := s.IncrOps([]Key{k}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken at threshold")
	}
}

// TestThresholdWakeupsMulti: a multi-key waiter wakes only when the
// key still short of its threshold reaches it, not on unrelated
// increments of already-satisfied keys.
func TestThresholdWakeupsMulti(t *testing.T) {
	s := New(Config{Shards: 2})
	a, b := s.KeyFor("depA"), s.KeyFor("depB")
	for i := 0; i < 3; i++ { // a=3, satisfied up-front
		if err := s.IncrOps([]Key{a}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.WaitAtLeastMulti(map[Key]uint64{a: 2, b: 2}, 5*time.Second) }()

	// a is satisfied up-front, b is not: hammering a must not complete
	// the wait.
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 8; i++ {
		if err := s.IncrOps([]Key{a}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("multi-wait returned with b unsatisfied: %v", err)
	default:
	}
	// IncrOps dedups its key list, so two separate calls.
	for i := 0; i < 2; i++ {
		if err := s.IncrOps([]Key{b}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("multi-wait not woken when b reached threshold")
	}
}
