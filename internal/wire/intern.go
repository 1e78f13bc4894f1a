package wire

import "sync/atomic"

// Bounded interning for the tokens a stream repeats in every message:
// origin names, type-chain entries, attribute key names. Each used to
// cost a decode a fresh string copy; the table below memoizes them in a
// direct-mapped, fixed-size cache keyed by the raw token bytes, so a hit
// allocates nothing. Tokens that are unique to their object or message —
// ids, dependency tokens, attribute values — are never put through it:
// on a live stream they only miss, and a miss costs more than the copy
// it was meant to save.
//
// Properties that keep this safe and bounded:
//
//   - Strings are immutable, so sharing one canonical copy across
//     messages (including pooled messages that are released while the
//     interned string lives on) can never alias a mutation.
//   - The table is direct-mapped with overwrite-on-collision: a slot
//     always holds at most one entry, so memory is hard-bounded at
//     internSlots x (entry + <= internMaxLen bytes), and a pathological
//     workload degrades to the old copy-per-token cost, never to
//     unbounded growth.
//   - Slots are atomic pointers: readers race writers without locks;
//     a lost-update on concurrent misses just means one extra copy.
//   - Tokens longer than internMaxLen bypass the cache.
const (
	internSlots  = 2048 // must be a power of two
	internMaxLen = 64
)

var internTab [internSlots]atomic.Pointer[string]

// internIdx is FNV-1a over the token bytes, folded to a table slot.
func internIdx(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h & (internSlots - 1)
}

// internString returns a canonical string for b, copying only on a
// cache miss. (The *e == string(b) comparison does not allocate: the
// compiler compares the bytes in place.)
func internString(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	slot := &internTab[internIdx(b)]
	if e := slot.Load(); e != nil && *e == string(b) {
		return *e
	}
	s := string(b)
	slot.Store(&s)
	return s
}
