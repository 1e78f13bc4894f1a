package vstore

import "time"

// The per-step operations of §4.2 as the paper lists them, one round
// trip each. Nothing outside the tests calls them any more: they are the
// reference the batched scripts (BumpBatch; ClaimIfMet and its two
// halves) are tested against, written without any of their machinery.

// Bump runs the publisher counter update for one operation under locks
// the caller holds (LockWrites): for every dependency ops is
// incremented; for write dependencies — a key listed as both is a write
// — version is set to ops. The returned map holds the version to embed
// in the message: version for reads, version−1 for writes.
func (s *Store) Bump(readDeps, writeDeps []Key) (map[Key]uint64, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	s.charge(s.cfg.scriptCost(len(readDeps) + len(writeDeps)))
	out := make(map[Key]uint64)
	bump := func(k Key, write bool) {
		if _, done := out[k]; done {
			return
		}
		s.shardFor(k).script(0, func(m map[Key]entry) {
			e := m[k]
			e.ops++
			out[k] = e.version
			if write {
				e.version = e.ops
				out[k] = e.version - 1
			}
			m[k] = e
		})
	}
	for _, k := range writeDeps {
		bump(k, true)
	}
	for _, k := range readDeps {
		bump(k, false)
	}
	return out, nil
}

// ApplyIfNewer implements weak-mode last-writer-wins for one object: it
// atomically checks whether version is newer than the stored version
// and records it if so, returning the previously stored version.
func (s *Store) ApplyIfNewer(k Key, version uint64) (applied bool, prev uint64, err error) {
	if err := s.checkAlive(); err != nil {
		return false, 0, err
	}
	s.charge(s.cfg.scriptCost(1))
	s.shardFor(k).script(0, func(m map[Key]entry) {
		e := m[k]
		prev = e.version
		if version > e.version {
			e.version = version
			applied = true
		}
		m[k] = e
	})
	return applied, prev, nil
}

// WaitAtLeast is the subscriber's dependency wait for a single key.
func (s *Store) WaitAtLeast(k Key, min uint64, timeout time.Duration) error {
	return s.WaitAtLeastMulti(map[Key]uint64{k: min}, timeout)
}
