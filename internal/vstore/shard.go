package vstore

import (
	"sync"
	"time"

	"synapse/internal/storage"
	"synapse/internal/timeutil"
)

// entry is the per-key counter pair. On publisher stores both fields are
// used; subscriber stores use ops (dependency counters) and version
// (weak-mode object versions) independently. A shard stores entries by
// value: a key costs no allocation of its own, and holding no pointer,
// the map is not scanned by the garbage collector.
type entry struct {
	ops     uint64
	version uint64
}

// shard is one version-store instance. script executes a function
// atomically over the shard's key space — the stand-in for a Redis LUA
// script — charging one round trip of latency. Key locks (used for
// publisher write dependencies) are cooperative and independent of the
// script mutex.
type shard struct {
	mu   sync.RWMutex
	data map[Key]entry

	locks *storage.LockTable[Key]

	waitMu  sync.Mutex
	waiters map[Key][]waiter
}

// waiter is one registered dependency wait: the wait to fire and the
// ops value it needs on this key. Wakeups are threshold-aware — an
// increment only fires waiters whose threshold it reached — so a hot
// key incremented thousands of times per second does not stampede every
// parked subscriber into a spurious re-check round trip each time
// (the thundering herd zipf-skewed workloads otherwise produce).
type waiter struct {
	p   *Parked
	min uint64
}

func newShard() *shard {
	return &shard{
		data:    make(map[Key]entry),
		locks:   storage.NewLockTable[Key](),
		waiters: make(map[Key][]waiter),
	}
}

// script runs fn atomically over the shard data. Injected latency is
// charged by callers through timeutil.Wait so that precise waiting is
// honoured uniformly.
func (sh *shard) script(cost time.Duration, fn func(map[Key]entry)) {
	if cost > 0 {
		timeutil.Wait(cost, false)
	}
	sh.mu.Lock()
	fn(sh.data)
	sh.mu.Unlock()
}

// rscript runs a READ-ONLY fn over the shard data under the read lock,
// so concurrent dependency checks (the hottest subscriber path under
// zipf skew: many workers probing the same hot keys) never serialize
// against each other — only against writers. fn must not mutate the map.
func (sh *shard) rscript(cost time.Duration, fn func(map[Key]entry)) {
	if cost > 0 {
		timeutil.Wait(cost, false)
	}
	sh.mu.RLock()
	fn(sh.data)
	sh.mu.RUnlock()
}

func (sh *shard) flush() {
	sh.mu.Lock()
	sh.data = make(map[Key]entry)
	sh.mu.Unlock()
	sh.wakeAll()
}

// register adds a waiter for the key, needing ops >= min. The caller
// still holds the shard's read lock from the check that found the key
// short, so no increment — and no wakeup — can fall between the check
// and the registration. A multi-key wait registers the same *Parked on
// every key it waits for (across shards) — unless it has ended already
// (fired on an earlier key): its sweep of this shard may be over.
func (sh *shard) register(k Key, min uint64, p *Parked) {
	sh.waitMu.Lock()
	if !p.done.Load() {
		sh.waiters[k] = append(sh.waiters[k], waiter{p: p, min: min})
	}
	sh.waitMu.Unlock()
}

// deregister removes a wait's registration on the key (no-op if it
// already fired or was never registered there).
func (sh *shard) deregister(k Key, p *Parked) {
	sh.waitMu.Lock()
	ws := sh.waiters[k]
	for i, w := range ws {
		if w.p == p {
			sh.waiters[k] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(sh.waiters[k]) == 0 {
		delete(sh.waiters, k)
	}
	sh.waitMu.Unlock()
}

// wakeReached fires the waiters on this shard's keys among ops whose
// threshold the key's counter after the update (op.out) satisfies.
// Waiters still short of their threshold stay registered: waking them
// would only trigger a futile re-check round trip, and the increment
// that eventually reaches their threshold will fire them.
func (sh *shard) wakeReached(ops []op) {
	sh.waitMu.Lock()
	var buf [4]*Parked // a flush's usual wake-ups, on the stack
	toWake := buf[:0]
	for i := range ops {
		o := &ops[i]
		if o.sh != sh {
			continue
		}
		ws := sh.waiters[o.key]
		if len(ws) == 0 {
			continue
		}
		kept := ws[:0]
		for _, w := range ws {
			if w.min <= o.out {
				toWake = append(toWake, w.p)
			} else {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			delete(sh.waiters, o.key)
		} else {
			sh.waiters[o.key] = kept
		}
	}
	sh.waitMu.Unlock()
	for _, p := range toWake {
		p.fire()
	}
}

// wakeAll fires every waiter regardless of threshold (store death,
// flush: waiters must re-check liveness, not counters).
func (sh *shard) wakeAll() {
	sh.waitMu.Lock()
	var toWake []*Parked
	for k, ws := range sh.waiters {
		for _, w := range ws {
			toWake = append(toWake, w.p)
		}
		delete(sh.waiters, k)
	}
	sh.waitMu.Unlock()
	for _, p := range toWake {
		p.fire()
	}
}
