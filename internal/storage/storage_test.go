package storage

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPredicateScalars(t *testing.T) {
	row := Row{ID: "1", Cols: map[string]any{
		"name": "alice",
		"age":  int64(30),
		"tags": []any{"go", "db"},
	}}
	cases := []struct {
		p    Predicate
		want bool
	}{
		{Predicate{"name", Eq, "alice"}, true},
		{Predicate{"name", Eq, "bob"}, false},
		{Predicate{"name", Ne, "bob"}, true},
		{Predicate{"age", Eq, 30}, true},          // int vs int64
		{Predicate{"age", Eq, float64(30)}, true}, // float vs int64
		{Predicate{"age", Lt, 31}, true},
		{Predicate{"age", Le, 30}, true},
		{Predicate{"age", Gt, 30}, false},
		{Predicate{"age", Ge, 30}, true},
		{Predicate{"name", Lt, "bob"}, true},
		{Predicate{"tags", Contains, "go"}, true},
		{Predicate{"tags", Contains, "rust"}, false},
		{Predicate{"name", Contains, "lic"}, true},
		{Predicate{"missing", Eq, "x"}, false},
	}
	for _, c := range cases {
		if got := c.p.Match(row); got != c.want {
			t.Errorf("Match(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMatchAll(t *testing.T) {
	row := Row{ID: "1", Cols: map[string]any{"a": int64(1), "b": "x"}}
	if !MatchAll(row, nil) {
		t.Error("MatchAll with no predicates should be true")
	}
	preds := []Predicate{{"a", Eq, 1}, {"b", Eq, "x"}}
	if !MatchAll(row, preds) {
		t.Error("MatchAll missed matching row")
	}
	preds[1].Value = "y"
	if MatchAll(row, preds) {
		t.Error("MatchAll matched non-matching row")
	}
}

func TestDeepEqualNonComparable(t *testing.T) {
	// Must not panic on slices/maps and must compare deeply.
	a := []any{"x", int64(1), map[string]any{"k": "v"}}
	b := []any{"x", float64(1), map[string]any{"k": "v"}}
	if !DeepEqual(a, b) {
		t.Error("DeepEqual missed deep-equal slices")
	}
	if DeepEqual(a, []any{"x"}) {
		t.Error("DeepEqual matched different-length slices")
	}
	if DeepEqual(map[string]any{"k": "v"}, "k") {
		t.Error("DeepEqual matched map against string")
	}
	if DeepEqual("k", map[string]any{"k": "v"}) {
		t.Error("DeepEqual matched string against map")
	}
}

func TestRowCloneIsDeep(t *testing.T) {
	r := Row{ID: "1", Cols: map[string]any{"tags": []any{"a"}, "m": map[string]any{"k": "v"}}}
	c := r.Clone()
	c.Cols["tags"].([]any)[0] = "z"
	c.Cols["m"].(map[string]any)["k"] = "z"
	if r.Cols["tags"].([]any)[0] != "a" || r.Cols["m"].(map[string]any)["k"] != "v" {
		t.Error("Clone shares nested structures")
	}
}

func TestLockTableMutualExclusion(t *testing.T) {
	lt := NewLockTable[LockKey]()
	var counter, max int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				lt.Acquire(LockKey{"t", "k"})
				mu.Lock()
				counter++
				if counter > max {
					max = counter
				}
				mu.Unlock()
				mu.Lock()
				counter--
				mu.Unlock()
				lt.Release(LockKey{"t", "k"})
			}
		}()
	}
	wg.Wait()
	if max > 1 {
		t.Fatalf("lock admitted %d holders", max)
	}
	if lt.Held() != 0 {
		t.Fatalf("lock table leaked %d entries", lt.Held())
	}
}

func TestLockTableAcquireAllSortedNoDeadlock(t *testing.T) {
	lt := NewLockTable[LockKey]()
	var wg sync.WaitGroup
	// Opposite-order key sets would deadlock without sorted acquisition.
	for i := 0; i < 16; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				held := lt.AcquireAll([]LockKey{{"t", "a"}, {"t", "b"}, {"u", "a"}}, LockKey.Compare)
				lt.ReleaseAll(held)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				held := lt.AcquireAll([]LockKey{{"u", "a"}, {"t", "b"}, {"t", "a"}}, LockKey.Compare)
				lt.ReleaseAll(held)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AcquireAll deadlocked")
	}
}

func TestLockTableDeduplicates(t *testing.T) {
	lt := NewLockTable[LockKey]()
	held := lt.AcquireAll([]LockKey{{"t", "y"}, {"t", "x"}, {"t", "y"}}, LockKey.Compare)
	if len(held) != 2 || held[0].ID != "x" || held[1].ID != "y" {
		t.Fatalf("AcquireAll = %v, want the two keys, sorted", held)
	}
	lt.ReleaseAll(held)
	if lt.Held() != 0 {
		t.Fatal("entries leaked")
	}
}

func TestLockTableReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of unheld lock did not panic")
		}
	}()
	NewLockTable[LockKey]().Release(LockKey{"t", "nope"})
}

func TestGateZeroProfileIsUnconstrained(t *testing.T) {
	g := NewGate(Profile{})
	start := time.Now()
	for i := 0; i < 1000; i++ {
		g.Write(func() {})
		g.Read(func() {})
	}
	if time.Since(start) > time.Second {
		t.Error("zero-profile gate imposed visible cost")
	}
}

func TestGateWriteLatency(t *testing.T) {
	g := NewGate(Profile{WriteLatency: 5 * time.Millisecond})
	start := time.Now()
	g.Write(func() {})
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("write returned after %v, want >= 5ms", d)
	}
}

func TestGateConcurrencyLimit(t *testing.T) {
	g := NewGate(Profile{Concurrency: 2})
	var cur, max int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Write(func() {
				mu.Lock()
				cur++
				if cur > max {
					max = cur
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				cur--
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	if max > 2 {
		t.Fatalf("gate admitted %d concurrent ops, limit 2", max)
	}
}

func TestGateWriteRateCap(t *testing.T) {
	// 200 writes/s cap: 50 writes beyond the burst should take visible time.
	g := NewGate(Profile{MaxWriteRate: 200})
	start := time.Now()
	for i := 0; i < 60; i++ {
		g.Write(func() {})
	}
	elapsed := time.Since(start)
	// Burst is rate/10+1 = 21 tokens; the remaining ~39 writes need ~195ms.
	if elapsed < 100*time.Millisecond {
		t.Errorf("60 writes at 200/s cap finished in %v; cap not enforced", elapsed)
	}
}

// Property: predicate Eq/Ne are complementary for scalar values.
func TestQuickEqNeComplementary(t *testing.T) {
	check := func(field string, a, b int64) bool {
		row := Row{ID: "1", Cols: map[string]any{field: a}}
		eq := Predicate{field, Eq, b}.Match(row)
		ne := Predicate{field, Ne, b}.Match(row)
		return eq != ne
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLockTableSteadyStateAllocs: a key whose entry comes back from the
// free list costs nothing to lock, alone or in a sorted set.
func TestLockTableSteadyStateAllocs(t *testing.T) {
	lt := NewLockTable[LockKey]()
	one := LockKey{"users", "u1"}
	set := [3]LockKey{{"users", "u2"}, {"journal", "j1"}, {"users", "u2"}}
	lock := func() {
		keys := set // AcquireAll sorts and compacts its argument
		lt.ReleaseAll(lt.AcquireAll(keys[:], LockKey.Compare))
	}
	lock() // entries made, map sized
	n := testing.AllocsPerRun(100, func() {
		lt.Acquire(one)
		lt.Release(one)
		lock()
	})
	if n != 0 {
		t.Errorf("recycled Acquire/Release/AcquireAll = %v allocs, want 0", n)
	}
	if lt.Held() != 0 || len(lt.free) != 2 {
		t.Errorf("held %d, free %d after the runs; want 0 and 2", lt.Held(), len(lt.free))
	}
}

// TestLockTableRandomizedMutualExclusion: goroutines lock overlapping
// random sets of one to four keys (duplicates included) over a small key
// space, so entries keep going to the free list and coming back for
// other keys while waiters queue; every key must have at most one holder
// at a time, and the table must end empty with a bounded free list.
func TestLockTableRandomizedMutualExclusion(t *testing.T) {
	lt := NewLockTable[LockKey]()
	space := []LockKey{{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "1"}, {"b", "2"}, {"c", "1"}}
	holders := make([]atomic.Int32, len(space))
	index := func(k LockKey) int { return slices.Index(space, k) }
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf [4]LockKey
			for range 400 {
				keys := buf[:1+rng.Intn(4)]
				for i := range keys {
					keys[i] = space[rng.Intn(len(space))]
				}
				held := lt.AcquireAll(keys, LockKey.Compare)
				for _, k := range held {
					if n := holders[index(k)].Add(1); n != 1 {
						t.Errorf("%v has %d holders", k, n)
					}
				}
				runtime.Gosched()
				for _, k := range held {
					holders[index(k)].Add(-1)
				}
				lt.ReleaseAll(held)
			}
		}()
	}
	wg.Wait()
	if lt.Held() != 0 || len(lt.free) > maxFreeLocks {
		t.Fatalf("held %d, free %d after the run", lt.Held(), len(lt.free))
	}

	// Deterministically: a recycled entry, a waiter queued on its key, and
	// other keys cycling through the free list meanwhile.
	a, b, c := LockKey{"t", "a"}, LockKey{"t", "b"}, LockKey{"t", "c"}
	lt = NewLockTable[LockKey]()
	lt.Acquire(a)
	lt.Release(a)
	recycled := lt.free[0]
	lt.Acquire(b)
	if lt.locks[b] != recycled {
		t.Fatal("b did not reuse a's entry")
	}
	var waiterHolds atomic.Bool
	done := make(chan struct{})
	go func() {
		lt.Acquire(b)
		waiterHolds.Store(true)
		lt.Release(b)
		close(done)
	}()
	for queued := false; !queued; {
		runtime.Gosched()
		lt.mu.Lock()
		queued = recycled.refs == 2
		lt.mu.Unlock()
	}
	lt.Acquire(c)
	lt.Release(c)
	lt.Acquire(a)
	lt.Release(a)
	if waiterHolds.Load() || lt.locks[b] != recycled {
		t.Fatal("the queued waiter got b while it was held, or b's entry moved")
	}
	lt.Release(b)
	<-done
	if lt.Held() != 0 {
		t.Fatalf("%d entries left", lt.Held())
	}
}
