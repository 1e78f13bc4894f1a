package vstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// scriptMsg is one random message for the ClaimIfMet property: its
// requirement list (duplicate keys allowed — they max-merge) and its
// claims, plus the wake counts of its current wait on either store.
type scriptMsg struct {
	reqs   []WaitReq
	claims []Claim
	wakes  [2]int
	waits  [2]*Parked
}

func (m *scriptMsg) reqMap() map[Key]uint64 {
	out := make(map[Key]uint64, len(m.reqs))
	for _, r := range m.reqs {
		out[r.Key] = max(out[r.Key], r.Need)
	}
	return out
}

// tryBoth runs m through the combined script on one store and through
// the sequential reference — Park, then ApplyBatch only if nothing is
// unmet — on its twin, and requires the same answer: the same unmet
// list, or the same claim results. It returns the windows the combined
// script cost and whether the message parked.
func tryBoth(t *testing.T, one, two *Store, m *scriptMsg) (windows uint64, parked bool) {
	t.Helper()
	results := make([]ClaimResult, len(m.claims))
	before := one.RoundTrips()
	p1, err := one.ClaimIfMet(m.reqs, m.claims, results, WakeFunc(func() { m.wakes[0]++ }))
	if err != nil {
		t.Fatal(err)
	}
	windows = one.RoundTrips() - before
	p2, err := two.Park(m.reqMap(), WakeFunc(func() { m.wakes[1]++ }))
	if err != nil {
		t.Fatal(err)
	}
	m.waits = [2]*Parked{p1, p2}
	if (p1 == nil) != (p2 == nil) {
		t.Fatalf("combined parked=%v, reference parked=%v for %+v", p1 != nil, p2 != nil, m)
	}
	if p1 != nil {
		if !reflect.DeepEqual(p1.Unmet, p2.Unmet) {
			t.Fatalf("unmet lists differ: combined %+v, reference %+v", p1.Unmet, p2.Unmet)
		}
		return windows, true
	}
	want, err := two.ApplyBatch(m.claims)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.claims) > 0 && !reflect.DeepEqual(results, want) {
		t.Fatalf("claim results differ: combined %+v, reference %+v for %+v", results, want, m.claims)
	}
	return windows, false
}

// TestClaimIfMetMatchesParkThenApplyBatch is the property test of the
// subscriber's one-window script against the two-window sequence it
// replaced, over random requirement lists, claims and interleaved
// increments, at 1 and 4 shards: same claims, same unmet list, same
// counters after every step (so a cross-shard partial claim is fully
// taken back), same wake-ups, and no registration left at the end. On
// one shard the combined script is always exactly one window; on four
// the take-back window must have been exercised.
func TestClaimIfMetMatchesParkThenApplyBatch(t *testing.T) {
	const keys = 12
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tookBack := 0
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				one, two := New(Config{Shards: shards}), New(Config{Shards: shards})
				var parked []*scriptMsg
				sameState := func(when string) {
					t.Helper()
					for k := Key(0); k < keys; k++ {
						if a, b := one.Counters(k), two.Counters(k); a != b {
							t.Fatalf("seed %d, %s: key %d is %+v combined, %+v reference", seed, when, k, a, b)
						}
					}
				}
				run := func(m *scriptMsg) {
					windows, isParked := tryBoth(t, one, two, m)
					switch {
					case allZero(m.reqs) && len(m.claims) == 0:
						if windows != 0 {
							t.Fatalf("seed %d: an empty script cost %d windows", seed, windows)
						}
					case windows == 2 && isParked && shards > 1:
						tookBack++
					case windows != 1:
						t.Fatalf("seed %d: script cost %d windows (parked=%v)", seed, windows, isParked)
					}
					if isParked {
						parked = append(parked, m)
					}
					sameState("after a message")
				}
				for step := 0; step < 120; step++ {
					if rng.Intn(3) == 0 {
						var ks []Key
						for n := rng.Intn(3) + 1; n > 0; n-- {
							ks = append(ks, Key(rng.Intn(keys)))
						}
						if err := one.IncrOps(ks); err != nil {
							t.Fatal(err)
						}
						if err := two.IncrOps(ks); err != nil {
							t.Fatal(err)
						}
						// Whoever an increment released tries again, on both.
						still := parked[:0]
						var released []*scriptMsg
						for _, m := range parked {
							if m.wakes[0] != m.wakes[1] {
								t.Fatalf("seed %d: wake-ups differ: combined %d, reference %d for %+v", seed, m.wakes[0], m.wakes[1], m)
							}
							if m.wakes[0] > 0 {
								m.wakes = [2]int{}
								released = append(released, m)
							} else {
								still = append(still, m)
							}
						}
						parked = still
						for _, m := range released {
							run(m)
						}
						continue
					}
					m := &scriptMsg{}
					for n := rng.Intn(4); n > 0; n-- {
						m.reqs = append(m.reqs, WaitReq{Key: Key(rng.Intn(keys)), Need: uint64(rng.Intn(4))})
					}
					for n := rng.Intn(3); n > 0; n-- {
						m.claims = append(m.claims, Claim{Key: Key(rng.Intn(keys)), Version: uint64(rng.Intn(6))})
					}
					run(m)
				}
				for _, m := range parked {
					if !m.waits[0].Cancel() || !m.waits[1].Cancel() {
						t.Fatalf("seed %d: a wait that never fired was not live", seed)
					}
				}
				if a, b := registrations(one), registrations(two); a != 0 || b != 0 {
					t.Fatalf("seed %d: registrations left: combined %d, reference %d", seed, a, b)
				}
			}
			if shards > 1 && tookBack == 0 {
				t.Fatal("no seed exercised the cross-shard take-back")
			}
		})
	}
}

func allZero(reqs []WaitReq) bool {
	for _, r := range reqs {
		if r.Need > 0 {
			return false
		}
	}
	return true
}

// TestClaimIfMetNoLostWakeUnderConcurrentIncrements hammers the window
// between a shard's probe and its registration while claims ride in the
// same script: every message that reports unmet must be released by the
// increment that reaches its threshold, however the two interleave, it
// must then claim its version exactly once, and the waiter table must
// end empty.
func TestClaimIfMetNoLostWakeUnderConcurrentIncrements(t *testing.T) {
	s := New(Config{Shards: 4})
	deps := []Key{s.KeyFor("a"), s.KeyFor("b"), s.KeyFor("c")}
	const rounds, workers = 300, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(object Key) {
			defer wg.Done()
			woken := make(chan struct{}, 1)
			for v := uint64(1); v <= rounds; v++ {
				reqs := []WaitReq{{Key: deps[0], Need: v}, {Key: deps[1], Need: v}, {Key: deps[2], Need: v}}
				claims := []Claim{{Key: object, Version: v}}
				var res [1]ClaimResult
				for {
					p, err := s.ClaimIfMet(reqs, claims, res[:], WakeFunc(func() { woken <- struct{}{} }))
					if err != nil {
						t.Error(err)
						return
					}
					if p == nil {
						break
					}
					if got := s.Counters(object).Version; got != v-1 {
						t.Errorf("object %d holds version %d while its claim of %d is parked", object, got, v)
						return
					}
					<-woken
				}
				if !res[0].Applied || res[0].Prev != v-1 {
					t.Errorf("claim of version %d: %+v, want applied over %d", v, res[0], v-1)
					return
				}
			}
		}(Key(1000 + w))
	}
	for v := 0; v < rounds; v++ {
		for _, k := range deps {
			if err := s.IncrOps([]Key{k}); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	if n := registrations(s); n != 0 {
		t.Fatalf("%d registrations left after every message was admitted", n)
	}
}

// TestReleaseDoesNotWait: with a 20 ms round trip, Release returns at
// once with the locks already free — whoever wants them next never
// waits for a flusher turn — the windows of releases handed in together
// are charged as one, and WaitReleases makes RoundTrips exact.
func TestReleaseDoesNotWait(t *testing.T) {
	const rtt = 20 * time.Millisecond
	s := New(Config{Shards: 2, RTT: rtt})
	// Plan i's lock is free when its shard's table tracks only the keys of
	// the plans still unreleased.
	free := func(i int) bool {
		sh, held := s.shardFor(Key(i)), 0
		for j := i + 1; j < 8; j++ {
			if s.shardFor(Key(j)) == sh {
				held++
			}
		}
		return sh.locks.Held() == held
	}
	var plans [8]Batch
	for i := range plans {
		var err error
		if plans[i], err = s.BumpBatch(nil, []Key{Key(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range plans {
		start := time.Now()
		plans[i].Release()
		if took := time.Since(start); took > rtt/2 {
			t.Fatalf("Release took %v with a %v round trip: it waited for the unlock reply", took, rtt)
		}
		if !free(i) {
			t.Fatal("a key was still locked when Release returned")
		}
		plans[i].Release() // idempotent
	}
	s.WaitReleases()
	// Eight plans, and one or two unlock windows: the first release went
	// out alone (or with whatever arrived before its leader ran), the
	// rest were handed in while it was in flight and share the next —
	// never one window each.
	if got := s.RoundTrips(); got < 8+1 || got > 8+3 {
		t.Fatalf("RoundTrips = %d after 8 plans, want 8 + one or two coalesced unlock windows", got)
	}
}
