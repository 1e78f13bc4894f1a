package vstore

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// depGroup is one randomly generated operation group for the parity
// property tests: raw key material for read and write dependencies.
type depGroup struct {
	Reads  []uint8
	Writes []uint8
}

func (g depGroup) keys() (reads, writes []Key) {
	for _, r := range g.Reads {
		reads = append(reads, Key(r%32))
	}
	for _, w := range g.Writes {
		writes = append(writes, Key(w%32))
	}
	// Bump requires at least one dependency in practice (every message
	// has its own object's write dep); mirror that.
	if len(writes) == 0 {
		writes = []Key{Key(len(reads))}
	}
	return reads, writes
}

// TestQuickBumpBatchParity is the batch-vs-legacy property test: for
// random op groups, BumpBatch must produce byte-identical version maps
// and leave byte-identical final counters to the legacy
// LockWrites+Bump+UnlockWrites sequence applied to a twin store.
func TestQuickBumpBatchParity(t *testing.T) {
	legacy := New(Config{Shards: 4})
	batched := New(Config{Shards: 4})
	prop := func(g depGroup) bool {
		reads, writes := g.keys()

		held, err := legacy.LockWrites(append(append([]Key{}, writes...), reads...))
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacy.Bump(reads, writes)
		if err != nil {
			t.Fatal(err)
		}
		legacy.UnlockWrites(held)

		b, err := batched.BumpBatch(reads, writes)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()

		if len(want) != b.Len() {
			return false
		}
		for k, v := range want {
			if b.Version(k) != v {
				return false
			}
		}
		// Final counters must match for every key touched.
		for k := range want {
			if legacy.Counters(k) != batched.Counters(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickApplyBatchParity: a random claim sequence through ApplyBatch
// must decide and record exactly what sequential ApplyIfNewer calls do,
// including repeated claims on the same key within one batch.
func TestQuickApplyBatchParity(t *testing.T) {
	legacy := New(Config{Shards: 4})
	batched := New(Config{Shards: 4})
	prop := func(raw []uint16) bool {
		claims := make([]Claim, 0, len(raw))
		for _, r := range raw {
			claims = append(claims, Claim{Key: Key(r % 8), Version: uint64(r>>3) % 16})
		}
		var want []ClaimResult
		for _, c := range claims {
			applied, prev, err := legacy.ApplyIfNewer(c.Key, c.Version)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ClaimResult{Applied: applied, Prev: prev})
		}
		got, err := batched.ApplyBatch(claims)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		for _, c := range claims {
			if legacy.Counters(c.Key) != batched.Counters(c.Key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBumpBatchUndo: an undone bump leaves every counter it touched
// as it found it, whatever the history before — and undoes nothing once
// released, since the keys are no longer the batch's.
func TestQuickBumpBatchUndo(t *testing.T) {
	s := New(Config{Shards: 4})
	prop := func(g depGroup, keep bool) bool {
		reads, writes := g.keys()
		before := map[Key]Counters{}
		for _, k := range append(reads, writes...) {
			before[k] = s.Counters(k)
		}
		b, err := s.BumpBatch(reads, writes)
		if err != nil {
			t.Fatal(err)
		}
		if keep { // history for the next round
			b.Release()
			return b.Undo() == nil && s.Counters(writes[0]) != before[writes[0]]
		}
		if err := b.Undo(); err != nil {
			t.Fatal(err)
		}
		b.Release()
		for k, c := range before {
			if s.Counters(k) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBumpBatchHoldsLocksUntilRelease(t *testing.T) {
	s := newStore()
	k := s.KeyFor("app/items/id/1")
	b, err := s.BumpBatch(nil, []Key{k})
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		held, err := s.LockWrites([]Key{k})
		if err != nil {
			t.Error(err)
			return
		}
		close(acquired)
		s.UnlockWrites(held)
	}()
	select {
	case <-acquired:
		t.Fatal("lock acquired while batch held it")
	case <-time.After(20 * time.Millisecond):
	}
	b.Release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("lock not released by batch Release")
	}
	// Release is idempotent.
	b.Release()
}

func TestBumpBatchDeadStore(t *testing.T) {
	s := newStore()
	s.Kill()
	if _, err := s.BumpBatch(nil, []Key{1}); !errors.Is(err, ErrDead) {
		t.Fatalf("err = %v, want ErrDead", err)
	}
	s.Revive()
	b, err := s.BumpBatch(nil, []Key{1})
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
}

func TestWaitAtLeastMultiSatisfiedAndWake(t *testing.T) {
	s := newStore()
	k1, k2 := s.KeyFor("a"), s.KeyFor("b")
	if err := s.IncrOps([]Key{k1}); err != nil {
		t.Fatal(err)
	}
	// Already satisfied (k1 at 1, k2 needs 0).
	if err := s.WaitAtLeastMulti(map[Key]uint64{k1: 1, k2: 0}, 0); err != nil {
		t.Fatal(err)
	}
	// Blocks until BOTH k1 reaches 2 and k2 reaches 1.
	done := make(chan error, 1)
	go func() {
		done <- s.WaitAtLeastMulti(map[Key]uint64{k1: 2, k2: 1}, time.Second)
	}()
	select {
	case err := <-done:
		t.Fatalf("returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if err := s.IncrOps([]Key{k1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("returned with one of two keys satisfied: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if err := s.IncrOps([]Key{k2}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("wait did not wake")
	}
}

func TestWaitAtLeastMultiTimeoutAndKill(t *testing.T) {
	s := newStore()
	k := s.KeyFor("never")
	if err := s.WaitAtLeastMulti(map[Key]uint64{k: 1}, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("zero-timeout err = %v, want ErrTimeout", err)
	}
	if err := s.WaitAtLeastMulti(map[Key]uint64{k: 1}, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline err = %v, want ErrTimeout", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.WaitAtLeastMulti(map[Key]uint64{k: 1}, -1) }()
	time.Sleep(10 * time.Millisecond)
	s.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDead) {
			t.Fatalf("err = %v, want ErrDead", err)
		}
	case <-time.After(time.Second):
		t.Fatal("kill did not wake multi-waiter")
	}
}

// TestWaitAtLeastMultiNoLostWakeup hammers concurrent increments against
// multi-key waiters: every waiter must eventually observe the counters.
func TestWaitAtLeastMultiNoLostWakeup(t *testing.T) {
	s := newStore()
	keys := []Key{s.KeyFor("x"), s.KeyFor("y"), s.KeyFor("z")}
	const rounds = 50
	var wg sync.WaitGroup
	for i := 1; i <= rounds; i++ {
		min := uint64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := map[Key]uint64{keys[0]: min, keys[1]: min, keys[2]: min}
			if err := s.WaitAtLeastMulti(reqs, 5*time.Second); err != nil {
				t.Errorf("waiter %d: %v", min, err)
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		if err := s.IncrOps(keys); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("multi-waiters hung")
	}
}

// TestMixedBatchAndLegacyLocking interleaves BumpBatch with the legacy
// lock chain over an overlapping key set from many goroutines: the
// shared sorted-order protocol (lockOrdered) must keep them deadlock
// free.
func TestMixedBatchAndLegacyLocking(t *testing.T) {
	s := newStore()
	keys := []Key{s.KeyFor("k1"), s.KeyFor("k2"), s.KeyFor("k3"), s.KeyFor("k4")}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				// Deliberately reversed/rotated key orders.
				ks := []Key{keys[(w+i)%4], keys[(w+i+2)%4], keys[(w+i+3)%4]}
				if w%2 == 0 {
					b, err := s.BumpBatch(ks[:1], ks[1:])
					if err != nil {
						t.Error(err)
						return
					}
					b.Release()
				} else {
					held, err := s.LockWrites(ks)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Bump(nil, ks); err != nil {
						t.Error(err)
						return
					}
					s.UnlockWrites(held)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock between batch and legacy lock paths")
	}
}

// TestRoundTripAccounting pins the per-plan round-trip costs the Fig 13
// extension benchmark reports: the batched publisher plan costs 2
// windows (bump+release) against the legacy 3 (lock+bump+unlock), and
// the batched subscriber side is flat in the number of dependencies.
func TestRoundTripAccounting(t *testing.T) {
	s := newStore()
	keys := []Key{1, 2, 3, 4, 5}

	rt0 := s.RoundTrips()
	b, err := s.BumpBatch(keys[1:], keys[:1])
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if got := s.RoundTrips() - rt0; got != 2 {
		t.Errorf("BumpBatch+Release = %d round trips, want 2", got)
	}

	rt0 = s.RoundTrips()
	held, err := s.LockWrites(keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bump(keys[1:], keys[:1]); err != nil {
		t.Fatal(err)
	}
	s.UnlockWrites(held)
	if got := s.RoundTrips() - rt0; got != 3 {
		t.Errorf("legacy lock+bump+unlock = %d round trips, want 3", got)
	}

	if err := s.IncrOps(keys); err != nil {
		t.Fatal(err)
	}
	rt0 = s.RoundTrips()
	reqs := make(map[Key]uint64, len(keys))
	for _, k := range keys {
		reqs[k] = 1
	}
	if err := s.WaitAtLeastMulti(reqs, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.RoundTrips() - rt0; got != 1 {
		t.Errorf("satisfied WaitAtLeastMulti = %d round trips, want 1", got)
	}

	rt0 = s.RoundTrips()
	claims := make([]Claim, len(keys))
	for i, k := range keys {
		claims[i] = Claim{Key: k, Version: 1}
	}
	if _, err := s.ApplyBatch(claims); err != nil {
		t.Fatal(err)
	}
	if got := s.RoundTrips() - rt0; got != 1 {
		t.Errorf("ApplyBatch = %d round trips, want 1", got)
	}
}

// TestIncrOpsMulti checks the cross-message group-commit plan: applying
// many messages' increments through one IncrOpsMulti call must leave
// every counter exactly where the equivalent serial IncrOps calls
// would, cost one round-trip window, and wake threshold waiters on the
// final post-increment values.
func TestIncrOpsMulti(t *testing.T) {
	serial := newStore()
	multi := newStore()

	// Three "messages" with overlapping key sets: k0 bumped by all
	// three, k1 by two, k2 by one.
	k0, k1, k2 := Key(10), Key(11), Key(12)
	msgs := [][]Key{{k0, k1, k2}, {k0, k1}, {k0}}
	for _, m := range msgs {
		if err := serial.IncrOps(m); err != nil {
			t.Fatal(err)
		}
	}

	counts := map[Key]uint64{}
	for _, m := range msgs {
		for _, k := range m {
			counts[k]++
		}
	}
	rt0 := multi.RoundTrips()
	if err := multi.IncrOpsMulti(counts); err != nil {
		t.Fatal(err)
	}
	if got := multi.RoundTrips() - rt0; got != 1 {
		t.Fatalf("IncrOpsMulti round trips = %d, want 1", got)
	}
	for _, k := range []Key{k0, k1, k2} {
		s, m := serial.Counters(k), multi.Counters(k)
		if s.Ops != m.Ops {
			t.Errorf("key %d: multi ops %d != serial ops %d", k, m.Ops, s.Ops)
		}
	}
	if got := multi.Counters(k0).Ops; got != 3 {
		t.Errorf("k0 ops = %d, want 3", got)
	}

	// A threshold waiter at the merged final value must wake from the
	// single flush (wakeReached must see post-increment values).
	done := make(chan error, 1)
	go func() { done <- multi.WaitAtLeast(k1, 4, 5*time.Second) }()
	time.Sleep(5 * time.Millisecond)
	if err := multi.IncrOpsMulti(map[Key]uint64{k1: 2}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter at merged threshold: %v", err)
	}

	// Empty and zero-count flushes are free (no round trip, no error).
	rt0 = multi.RoundTrips()
	if err := multi.IncrOpsMulti(nil); err != nil {
		t.Fatal(err)
	}
	if err := multi.IncrOpsMulti(map[Key]uint64{k2: 0}); err != nil {
		t.Fatal(err)
	}
	if got := multi.RoundTrips() - rt0; got != 0 {
		t.Fatalf("empty IncrOpsMulti charged %d round trips, want 0", got)
	}
}
