package storage

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// LockKey names one row lock: a table and a primary key.
type LockKey struct{ Table, ID string }

// Compare orders row locks by table, then id.
func (a LockKey) Compare(b LockKey) int {
	return cmp.Or(strings.Compare(a.Table, b.Table), strings.Compare(a.ID, b.ID))
}

// LockTable provides per-key blocking mutual exclusion with on-demand
// entries. Engines use it for row-level locks held across two-phase
// commit (K is LockKey), the version store for its dependency-key locks
// and the subscriber for its per-object apply locks; deadlock is avoided by acquiring keys in one sorted order (AcquireAll
// sorts for you).
//
// An entry exists while its key is held or waited for. Entries nobody
// needs any more go to a bounded free list and come back for the next
// key, so a lock taken in the steady state allocates nothing; a free
// entry names no key, so it keeps no row alive.
type LockTable[K comparable] struct {
	mu    sync.Mutex
	locks map[K]*keyLock
	free  []*keyLock
}

// maxFreeLocks bounds the recycled entries: as many as there are locks
// held at once in a busy engine or version-store shard, no more.
const maxFreeLocks = 64

type keyLock struct {
	held  bool
	refs  int       // the holder and its waiters
	ready sync.Cond // L is the table's mu; signalled when held drops
}

// NewLockTable returns an empty lock table.
func NewLockTable[K comparable]() *LockTable[K] {
	return &LockTable[K]{locks: make(map[K]*keyLock)}
}

// Acquire blocks until the key's lock is held by the caller.
func (lt *LockTable[K]) Acquire(key K) {
	lt.mu.Lock()
	kl := lt.locks[key]
	if kl == nil {
		if n := len(lt.free); n > 0 {
			kl, lt.free = lt.free[n-1], lt.free[:n-1]
		} else {
			kl = &keyLock{}
			kl.ready.L = &lt.mu
		}
		lt.locks[key] = kl
	}
	kl.refs++
	for kl.held {
		kl.ready.Wait()
	}
	kl.held = true
	lt.mu.Unlock()
}

// Release frees the key's lock. Releasing an unheld key panics, as that
// is always a programming error.
func (lt *LockTable[K]) Release(key K) {
	lt.mu.Lock()
	kl := lt.locks[key]
	if kl == nil || !kl.held {
		lt.mu.Unlock()
		panic(fmt.Sprintf("storage: release of unheld lock %v", key))
	}
	kl.held = false
	if kl.refs--; kl.refs > 0 {
		kl.ready.Signal()
	} else {
		delete(lt.locks, key)
		if len(lt.free) < maxFreeLocks {
			lt.free = append(lt.free, kl)
		}
	}
	lt.mu.Unlock()
}

// AcquireAll sorts keys by cmp and deduplicates them in place, acquires
// them in that order and returns the deduplicated prefix to pass to
// ReleaseAll.
func (lt *LockTable[K]) AcquireAll(keys []K, cmp func(a, b K) int) []K {
	slices.SortFunc(keys, cmp)
	keys = slices.Compact(keys)
	for _, k := range keys {
		lt.Acquire(k)
	}
	return keys
}

// ReleaseAll releases keys previously returned by AcquireAll.
func (lt *LockTable[K]) ReleaseAll(keys []K) {
	for i := len(keys) - 1; i >= 0; i-- {
		lt.Release(keys[i])
	}
}

// Held reports the number of currently tracked keys (test helper).
func (lt *LockTable[K]) Held() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.locks)
}
