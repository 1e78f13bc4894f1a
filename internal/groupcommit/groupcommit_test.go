package groupcommit

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNoEntryLostAcrossLeaderChanges: eight producers add and flush
// with nothing else draining, so every hand-over — a leader putting the
// flag down while the others' entries land — must leave each entry to
// exactly one drain, in no more than batchCap at a time, one drain at a
// time.
func TestNoEntryLostAcrossLeaderChanges(t *testing.T) {
	const producers, each, batchCap = 8, 2000, 16
	seen := make([]int, producers*each)
	var draining atomic.Int32
	var f *Flusher[int]
	f = New(batchCap, 0, func(batch []int) {
		if draining.Add(1) != 1 {
			t.Error("two drains at once")
		}
		if len(batch) == 0 || len(batch) > batchCap {
			t.Errorf("drain of %d entries, cap %d", len(batch), batchCap)
		}
		for _, e := range batch {
			seen[e]++
		}
		draining.Add(-1)
	})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Add(p*each + i)
				f.Flush()
			}
		}(p)
	}
	wg.Wait()
	f.Wait() // every Flush has returned: nothing may be left behind
	for e, n := range seen {
		if n != 1 {
			t.Fatalf("entry %d drained %d times", e, n)
		}
	}
}

// TestBatchesFormWhileALeaderDrains: what is added while a drain runs
// rides in the next one, in order, and Kick's leader is not the caller.
func TestBatchesFormWhileALeaderDrains(t *testing.T) {
	var batches [][]int
	first, resume := make(chan struct{}), make(chan struct{})
	f := New(4, 0, func(batch []int) {
		batches = append(batches, append([]int(nil), batch...))
		if len(batches) == 1 {
			close(first)
			<-resume
		}
	})
	f.Add(0)
	f.Kick() // must not block on the drain
	<-first
	for e := 1; e <= 6; e++ {
		f.Add(e)
		f.Kick() // a leader is at work: a no-op
	}
	close(resume)
	f.Wait()
	want := [][]int{{0}, {1, 2, 3, 4}, {5, 6}}
	if len(batches) != len(want) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
	for i := range want {
		if len(batches[i]) != len(want[i]) || batches[i][0] != want[i][0] {
			t.Fatalf("batches = %v, want %v", batches, want)
		}
	}
}

// TestLimitMakesAddWait: with two entries undrained a third Add waits
// for the drain, it does not queue.
func TestLimitMakesAddWait(t *testing.T) {
	started, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	f := New(8, 2, func([]int) {
		once.Do(func() { close(started) })
		<-resume
	})
	f.Add(1)
	f.Kick()
	<-started
	f.Add(2)
	added := make(chan struct{})
	go func() {
		f.Add(3)
		f.Kick()
		close(added)
	}()
	select {
	case <-added:
		t.Fatal("Add went through a full pipeline")
	case <-time.After(20 * time.Millisecond):
	}
	close(resume)
	<-added
	f.Wait()
}

// TestSingleEntryFlushAllocatesNothing: a message completing alone — the
// zero-latency common case — drains on its caller with no goroutine and,
// once the two batch arrays exist, no allocation.
func TestSingleEntryFlushAllocatesNothing(t *testing.T) {
	drained := 0
	f := New(256, 0, func(batch []int) { drained += len(batch) })
	if got := testing.AllocsPerRun(500, func() {
		f.Add(7)
		f.Flush()
	}); got != 0 {
		t.Fatalf("Add+Flush of one entry = %.0f allocations, want 0", got)
	}
	if drained < 500 {
		t.Fatalf("drained %d entries inline, want every one", drained)
	}
}
