package vstore

import "testing"

// TestBatchCallAllocBudget pins what the batch calls cost a message of
// the usual size with no injected latency: the keys live in fixed arrays
// on the stack, so the publisher's plan and its release, a satisfied
// probe and a group-commit increment allocate nothing, and a claim
// window allocates only the results it returns. A zero-cost Release in
// particular must stay inline — no goroutine, no channel, no allocation.
func TestBatchCallAllocBudget(t *testing.T) {
	s := New(Config{Shards: 1})
	reads, writes := []Key{3}, []Key{1, 2}
	reqs := map[Key]uint64{1: 1, 2: 1, 3: 1}
	incr := map[Key]uint64{1: 1, 2: 1, 3: 1}
	if err := s.IncrOps([]Key{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	version := uint64(0)
	for name, c := range map[string]struct {
		budget float64
		call   func()
	}{
		"BumpBatch+Release": {0, func() {
			b, err := s.BumpBatch(reads, writes)
			if err != nil {
				t.Fatal(err)
			}
			b.Release()
		}},
		"WaitAtLeastMulti met": {0, func() {
			if err := s.WaitAtLeastMulti(reqs, 0); err != nil {
				t.Fatal(err)
			}
		}},
		"ApplyBatch": {1, func() {
			version++
			if _, err := s.ApplyBatch([]Claim{{Key: 1, Version: version}}); err != nil {
				t.Fatal(err)
			}
		}},
		"IncrOpsMulti": {0, func() {
			if err := s.IncrOpsMulti(incr); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.call); got > c.budget {
			t.Errorf("%s: %.0f allocations, budget %.0f", name, got, c.budget)
		}
	}
}
