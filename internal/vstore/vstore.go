// Package vstore implements Synapse's version store (Redis in the
// paper's deployment): the sharded counter service behind the update
// delivery mechanism of §4.2.
//
// For every dependency key the publisher side keeps two counters — ops,
// the number of operations that have referenced the object, and version,
// the object's version — while the subscriber side keeps the latest ops
// counter. All multi-key operations execute atomically within a shard
// (the stand-in for Redis LUA scripts); keys are spread across shards
// with a Dynamo-style consistent-hash ring, and cross-shard lock
// acquisition is ordered to avoid deadlock.
//
// Dependency names are hashed into a fixed-cardinality key space so
// every version store consumes O(1) memory (§4.2, "Scaling the Version
// Store"); a cardinality of 1 degenerates to global ordering, which the
// ablation benchmark exploits.
//
// The hot-path entry points are the batched round-trip plans —
// BumpBatch on the publisher side, Park (and its blocking form
// WaitAtLeastMulti) and ApplyBatch on the subscriber side — which
// amortize a whole message's dependency traffic into one scripted round
// trip per shard, the way the paper batches version-store commands into
// LUA scripts and pipelines them.
// The per-key operations (LockWrites/Bump, WaitAtLeast, ApplyIfNewer,
// IncrOps) remain for the journal, bootstrap and synchronous message
// processing, and as the reference implementation the batch paths are
// property-tested against.
//
// An injectable per-script round-trip latency models the network cost of
// a remote Redis, and Kill/Revive model version-store death for the
// generation-number recovery path (§4.4). Round-trip windows are counted
// (RoundTrips) so benchmarks can report round trips per message.
package vstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/timeutil"
)

// ErrDead is returned while the store is killed (crash injection).
var ErrDead = errors.New("vstore: store is dead")

// ErrTimeout is returned when WaitAtLeast exceeds its deadline.
var ErrTimeout = errors.New("vstore: dependency wait timed out")

// WaitReq is one unmet dependency at the moment a wait gave up: the
// key, the ops counter the wait required, and the counter the store
// actually held at the last check.
type WaitReq struct {
	Key  Key
	Need uint64
	Have uint64
}

// WaitError is the timeout error returned by WaitAtLeast and
// WaitAtLeastMulti. It names every dependency key still blocking the
// wait (with required and observed counters) so a causality stall can
// be diagnosed from a dead-letter record instead of a bare timeout. It
// unwraps to ErrTimeout, so errors.Is(err, ErrTimeout) keeps matching.
type WaitError struct {
	// Unmet lists the blocking keys in ascending key order.
	Unmet []WaitReq
}

func (e *WaitError) Error() string {
	var b strings.Builder
	b.WriteString("vstore: dependency wait timed out: ")
	const show = 4
	for i, r := range e.Unmet {
		if i == show {
			fmt.Fprintf(&b, " (+%d more)", len(e.Unmet)-show)
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "key %d at %d/%d", uint64(r.Key), r.Have, r.Need)
	}
	return b.String()
}

// Unwrap keeps WaitError compatible with errors.Is(err, ErrTimeout).
func (e *WaitError) Unwrap() error { return ErrTimeout }

// Key is a hashed dependency key.
type Key uint64

// Counters is the publisher-side per-dependency state.
type Counters struct {
	Ops     uint64
	Version uint64
}

// Config sizes a store.
type Config struct {
	// Shards is the number of shard instances (>=1).
	Shards int
	// Cardinality bounds the dependency hash space; 0 means unhashed
	// (the raw 64-bit space). 1 serializes everything (global ordering).
	Cardinality uint64
	// RTT is injected once per shard script call, modelling the network
	// round trip to a remote store. Zero for unit tests.
	RTT time.Duration
	// Precise busy-waits injected latencies instead of sleeping, for
	// sub-millisecond accuracy on sequential measurement paths. Never
	// enable it for many-worker runs: spinning burns a core per waiter.
	Precise bool
	// PerKey is injected per key touched by a script call, modelling
	// Redis command processing and payload cost; it produces the
	// linear tail of the Fig 13(a) overhead curve at high dependency
	// counts. Zero for unit tests.
	PerKey time.Duration
}

// scriptCost computes the injected latency for a script touching n keys.
func (c Config) scriptCost(n int) time.Duration {
	return c.RTT + time.Duration(n)*c.PerKey
}

// Store is one version store (publisher-side or subscriber-side; the
// same structure serves both roles).
type Store struct {
	cfg    Config
	ring   *ring
	shards []*shard

	// rt counts client-visible round-trip windows. Scripts pipelined to
	// several shards in one window (the Redis pipelining the paper uses)
	// count once; sequential script calls count once each. The counter
	// advances even when the injected latency is zero, so unit-scale runs
	// can still assert round-trip plans.
	rt atomic.Uint64

	mu        sync.RWMutex
	dead      bool
	transport Transport
}

// Transport models the network hop between a client and the store:
// consulted once per client-visible round-trip window, BEFORE any
// state is touched, so a transport failure (drop, partition) leaves
// the store unmutated and the round trip safe to retry. A nil
// transport is a perfect network.
type Transport func() error

// SetTransport installs (or clears, with nil) the network hop. Install
// before the store sees traffic.
func (s *Store) SetTransport(t Transport) {
	s.mu.Lock()
	s.transport = t
	s.mu.Unlock()
}

// New builds a store from the config.
func New(cfg Config) *Store {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	s := &Store{cfg: cfg, ring: newRing(cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard())
	}
	return s
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// RoundTrips reports the number of round-trip windows performed since
// construction. Benchmarks diff it across a run to compute round trips
// per message.
func (s *Store) RoundTrips() uint64 { return s.rt.Load() }

// charge accounts one round-trip window and injects its latency.
func (s *Store) charge(cost time.Duration) {
	s.rt.Add(1)
	timeutil.Wait(cost, s.cfg.Precise)
}

// KeyFor hashes a dependency name into the store's key space.
func (s *Store) KeyFor(name string) Key {
	h := hashString(name)
	if s.cfg.Cardinality > 0 {
		h %= s.cfg.Cardinality
	}
	return Key(h)
}

func (s *Store) shardFor(k Key) *shard {
	return s.shards[s.ring.locate(hashUint(uint64(k)))]
}

func (s *Store) checkAlive() error {
	s.mu.RLock()
	dead := s.dead
	t := s.transport
	s.mu.RUnlock()
	if dead {
		return ErrDead
	}
	// The transport call (which may sleep in retry backoff) runs outside
	// the lock so it never delays Kill/Revive.
	if t != nil {
		return t()
	}
	return nil
}

// Kill makes all operations fail with ErrDead until Revive (models a
// version-store crash; recovery is by generation bump, §4.4).
func (s *Store) Kill() {
	s.mu.Lock()
	s.dead = true
	s.mu.Unlock()
	for _, sh := range s.shards {
		sh.wakeAll()
	}
}

// Revive brings a killed store back empty (its counter memory is
// gone). Shards are reset in place, never replaced: the shard slice is
// read lock-free on every hot path (shardFor) and by Kill, so it must
// be immutable after New. Cooperative key locks survive the reset —
// they model client-held leases, and a holder blocked through the
// outage must still be able to release once the store answers again.
func (s *Store) Revive() {
	for _, sh := range s.shards {
		sh.flush()
	}
	s.mu.Lock()
	s.dead = false
	s.mu.Unlock()
}

// Flush clears all counters (generation change on a subscriber).
func (s *Store) Flush() {
	for _, sh := range s.shards {
		sh.flush()
	}
}

// lockOrdered is the single place that defines the deadlock-free locking
// protocol: cooperative key locks are always acquired in deduplicated
// ascending key order, so two holders can never wait on each other in a
// cycle regardless of the order callers list their keys in. Every path
// that takes write locks (LockWrites, BumpBatch) goes through it. It
// returns the held keys in acquisition order for unlockOrdered.
func (s *Store) lockOrdered(keys []Key) []Key {
	held := dedupSorted(keys)
	for _, k := range held {
		s.shardFor(k).lock(k)
	}
	return held
}

// unlockOrdered releases locks taken by lockOrdered, in reverse
// acquisition order. It must be passed the exact slice lockOrdered
// returned.
func (s *Store) unlockOrdered(held []Key) {
	for i := len(held) - 1; i >= 0; i-- {
		s.shardFor(held[i]).unlock(held[i])
	}
}

// LockWrites acquires the write-dependency locks in sorted key order
// (see lockOrdered), returning the ordered keys for UnlockWrites.
// Duplicate keys are acquired once.
func (s *Store) LockWrites(keys []Key) ([]Key, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	uniq := dedupSorted(keys)
	// One batched lock script round trip (the 2PC steps of §4.2 each
	// cost a version-store round trip).
	s.charge(s.cfg.scriptCost(len(uniq)))
	for _, k := range uniq {
		s.shardFor(k).lock(k)
	}
	return uniq, nil
}

// UnlockWrites releases locks taken by LockWrites (it must be passed
// the slice LockWrites returned, which is already in the canonical
// sorted order). The unlock round trip is charged after the locks are
// released so it never extends the critical section.
func (s *Store) UnlockWrites(keys []Key) {
	s.unlockOrdered(keys)
	s.charge(s.cfg.scriptCost(len(keys)))
}

// Bump runs the publisher counter update of §4.2 for one operation:
// for every dependency, ops is incremented; for write dependencies,
// version is set to ops. The returned map holds the version to embed in
// the message: version for read dependencies, version−1 for writes.
// Write-dependency locks must be held by the caller.
//
// A key listed as both read and write dependency is treated as a write.
// Each shard touched costs one script round trip.
func (s *Store) Bump(readDeps, writeDeps []Key) (map[Key]uint64, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	byShard, n := s.groupBumpOps(readDeps, writeDeps)
	// Shards execute their scripts concurrently in a real deployment
	// (pipelined round trips), so the injected latency is the slowest
	// shard's cost, charged once, rather than the sum.
	s.charge(s.maxShardCost(byShard))
	return s.runBumpScripts(byShard, n), nil
}

// bumpOp is one key touched by a bump script, with its read/write role.
type bumpOp struct {
	key   Key
	write bool
}

// groupBumpOps dedups the dependency keys (writes win over reads) and
// groups them per shard so each shard executes one atomic script.
func (s *Store) groupBumpOps(readDeps, writeDeps []Key) (map[*shard][]bumpOp, int) {
	writes := make(map[Key]struct{}, len(writeDeps))
	for _, k := range writeDeps {
		writes[k] = struct{}{}
	}
	byShard := make(map[*shard][]bumpOp)
	seen := make(map[Key]struct{})
	addKey := func(k Key, write bool) {
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		sh := s.shardFor(k)
		byShard[sh] = append(byShard[sh], bumpOp{key: k, write: write})
	}
	for _, k := range writeDeps {
		addKey(k, true)
	}
	for _, k := range readDeps {
		if _, isWrite := writes[k]; !isWrite {
			addKey(k, false)
		}
	}
	return byShard, len(seen)
}

// maxShardCost is the injected latency of one pipelined window: the
// slowest shard script's cost.
func (s *Store) maxShardCost(byShard map[*shard][]bumpOp) time.Duration {
	var cost time.Duration
	for _, ops := range byShard {
		if c := s.cfg.scriptCost(len(ops)); c > cost {
			cost = c
		}
	}
	return cost
}

// runBumpScripts executes the §4.2 counter update on every shard and
// collects the versions to embed in the message.
func (s *Store) runBumpScripts(byShard map[*shard][]bumpOp, n int) map[Key]uint64 {
	out := make(map[Key]uint64, n)
	for sh, ops := range byShard {
		sh.script(0, func(m map[Key]*entry) {
			for _, o := range ops {
				e := m[o.key]
				if e == nil {
					e = &entry{}
					m[o.key] = e
				}
				e.ops++
				if o.write {
					e.version = e.ops
					out[o.key] = e.version - 1
				} else {
					out[o.key] = e.version
				}
			}
		})
	}
	return out
}

// Batch is a publisher round-trip plan in flight: the versions returned
// by BumpBatch plus the write locks held until Release. It is the
// batched replacement for the LockWrites → Bump → UnlockWrites chain.
type Batch struct {
	store    *Store
	held     []Key
	released bool
	// Versions holds the version to embed in the message for every
	// dependency key: version for reads, version−1 for writes (§4.2).
	Versions map[Key]uint64
}

// BumpBatch runs the whole publisher counter update of §4.2 as one
// scripted round trip per shard (the paper's Redis LUA scripts): it
// acquires the dependency locks in the canonical deadlock-free order
// (lockOrdered), increments ops, sets version for write dependencies,
// and collects the versions to embed — all within a single pipelined
// round-trip window, instead of the separate lock and bump windows of
// the legacy chain. Locks cover reads and writes, like the callers of
// LockWrites did, so broker queue order stays consistent with
// dependency order; they are held until Release.
func (s *Store) BumpBatch(readDeps, writeDeps []Key) (*Batch, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	byShard, n := s.groupBumpOps(readDeps, writeDeps)
	// The whole plan is ONE pipelined round-trip window: the injected
	// RTT models the network flight to the store, so it is charged
	// BEFORE the locks are taken — server-side, the script acquires the
	// locks and bumps the counters back to back. Charging it after
	// acquisition (as this path once did) held every hot dependency key
	// locked across the sleep, serializing concurrent publishers to the
	// same popular object for an extra RTT each and convoying the
	// publish path under zipf-skewed traffic.
	s.charge(s.maxShardCost(byShard))
	all := make([]Key, 0, len(readDeps)+len(writeDeps))
	all = append(all, writeDeps...)
	all = append(all, readDeps...)
	held := s.lockOrdered(all)
	if err := s.checkAlive(); err != nil {
		// The store died while we waited for a lock holder; hand back
		// the locks rather than versions from a dead store.
		s.unlockOrdered(held)
		return nil, err
	}
	return &Batch{store: s, held: held, Versions: s.runBumpScripts(byShard, n)}, nil
}

// Release unlocks the batch's write locks (reverse acquisition order)
// and charges the unlock round trip after the locks are down, so it
// never extends the critical section. Safe to call more than once.
func (b *Batch) Release() {
	if b.released {
		return
	}
	b.released = true
	b.store.unlockOrdered(b.held)
	b.store.charge(b.store.cfg.scriptCost(len(b.held)))
}

// Counters returns the publisher counters for a key (zero when absent).
func (s *Store) Counters(k Key) Counters {
	var out Counters
	s.rt.Add(1)
	s.shardFor(k).rscript(0, func(m map[Key]*entry) {
		if e := m[k]; e != nil {
			out = Counters{Ops: e.ops, Version: e.version}
		}
	})
	return out
}

// Ops returns the subscriber-side ops counter for a key.
func (s *Store) Ops(k Key) uint64 {
	var out uint64
	s.rt.Add(1)
	s.shardFor(k).rscript(0, func(m map[Key]*entry) {
		if e := m[k]; e != nil {
			out = e.ops
		}
	})
	return out
}

// window runs script once per shard on the keys it holds, after charging
// the one pipelined round-trip window the scripts share: the slowest
// shard's cost, once. A callback keeps the grouping map on this stack.
func (s *Store) window(keys []Key, script func(*shard, []Key)) {
	byShard := make(map[*shard][]Key)
	for _, k := range keys {
		sh := s.shardFor(k)
		byShard[sh] = append(byShard[sh], k)
	}
	var cost time.Duration
	for _, ks := range byShard {
		if c := s.cfg.scriptCost(len(ks)); c > cost {
			cost = c
		}
	}
	s.charge(cost)
	for sh, ks := range byShard {
		script(sh, ks)
	}
}

// moveOps is the one way a subscriber ops counter moves: move runs on
// every key's entry (created on demand), one atomic script per shard in
// one window, then the waiters whose threshold a key's new value reaches
// are woken — nothing that moves a counter can forget the waiter table.
func (s *Store) moveOps(keys []Key, move func(Key, *entry)) error {
	if len(keys) == 0 {
		return nil
	}
	if err := s.checkAlive(); err != nil {
		return err
	}
	s.window(keys, func(sh *shard, ks []Key) {
		vals := make([]uint64, len(ks))
		sh.script(0, func(m map[Key]*entry) {
			for i, k := range ks {
				e := m[k]
				if e == nil {
					e = &entry{}
					m[k] = e
				}
				move(k, e)
				vals[i] = e.ops
			}
		})
		sh.wakeReached(ks, vals)
	})
	return nil
}

// IncrOps increments the subscriber ops counter for every key (after a
// message is processed) and wakes waiters. Duplicate keys count once.
func (s *Store) IncrOps(keys []Key) error {
	return s.moveOps(dedupSorted(keys), func(_ Key, e *entry) { e.ops++ })
}

// IncrOpsMulti applies many messages' worth of counter increments in
// one pipelined round-trip window. counts maps each key to the number
// of completed messages that bumped it, so a key shared by k messages
// advances by k — unlike IncrOps, which dedups within a single
// message's key set. This is the cross-message group-commit plan
// behind the subscriber's apply pipeline: equivalent to one IncrOps
// call per message, but charged a single window, with waiters woken on
// the final post-increment values (threshold-aware waiters only fire
// once their target version is actually reached).
func (s *Store) IncrOpsMulti(counts map[Key]uint64) error {
	keys := make([]Key, 0, len(counts))
	for k, n := range counts {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	return s.moveOps(keys, func(k Key, e *entry) { e.ops += counts[k] })
}

// SetOps raises the ops counter for a key to at least val (bulk version
// load during bootstrap; max-merge so late loads cannot regress).
func (s *Store) SetOps(k Key, val uint64) error {
	return s.SetOpsMulti(map[Key]uint64{k: val})
}

// SetOpsMulti raises many keys' ops counters to at least their mapped
// values in one pipelined round-trip window (max-merge per key). This
// is the bulk version load of a bootstrap: one window instead of one
// per counter.
func (s *Store) SetOpsMulti(vals map[Key]uint64) error {
	keys := make([]Key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	return s.moveOps(keys, func(k Key, e *entry) { e.ops = max(e.ops, vals[k]) })
}

// WaitAtLeast is WaitAtLeastMulti for a single key: the subscriber's
// dependency wait (§4.2), with the configurable give-up recommended in
// §6.5.
func (s *Store) WaitAtLeast(k Key, min uint64, timeout time.Duration) error {
	return s.WaitAtLeastMulti(map[Key]uint64{k: min}, timeout)
}

// Parked is a dependency wait that Park found unmet: the blocking keys
// as probed and — given a wake action — one registration per unmet key
// in the shards' waiter tables. It ends exactly once, dropping every
// remaining registration: it fires (a threshold reached, a flush, a
// kill; wake runs on the goroutine that did it) or it is cancelled.
type Parked struct {
	// Unmet lists the keys short of their minimum at the probe, with the
	// counters observed, in ascending key order.
	Unmet []WaitReq

	store *Store
	keys  []Key // every key the wait may be registered on
	wake  func()
	done  atomic.Bool
}

func (p *Parked) fire() {
	if p.Cancel() {
		p.wake()
	}
}

// Cancel withdraws the wait and reports whether that ended it: true
// means wake has not run and never will.
func (p *Parked) Cancel() bool {
	if !p.done.CompareAndSwap(false, true) {
		return false
	}
	for _, k := range p.keys {
		p.store.shardFor(k).deregister(k, p)
	}
	return true
}

// Park is the non-blocking dependency wait: it probes every key in reqs
// against its required minimum in one pipelined round trip over the
// shards involved and reports nil when all are reached (zero-minimum
// entries need no round trip). Otherwise it returns the unmet keys and,
// given a non-nil wake, leaves a threshold-aware waiter registered on
// each: wake is called once — possibly before Park returns — when any
// of them reaches its threshold or the store is flushed or killed, and
// the caller probes again to learn whether the whole map is satisfied
// now. Each key is checked and registered under one hold of its shard's
// read lock, so an increment between the two cannot be lost.
func (s *Store) Park(reqs map[Key]uint64, wake func()) (*Parked, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	keys := make([]Key, 0, len(reqs))
	for k, min := range reqs {
		if min > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	var p *Parked
	s.window(keys, func(sh *shard, ks []Key) {
		sh.rscript(0, func(m map[Key]*entry) {
			for _, k := range ks {
				var cur uint64
				if e := m[k]; e != nil {
					cur = e.ops
				}
				if cur >= reqs[k] {
					continue
				}
				if p == nil {
					p = &Parked{store: s, keys: keys, wake: wake}
				}
				p.Unmet = append(p.Unmet, WaitReq{Key: k, Need: reqs[k], Have: cur})
				if wake != nil {
					sh.register(k, reqs[k], p)
				}
			}
		})
	})
	if p == nil {
		return nil, nil
	}
	sort.Slice(p.Unmet, func(i, j int) bool { return p.Unmet[i].Key < p.Unmet[j].Key })
	return p, nil
}

// WaitAtLeastMulti blocks until the ops counter of EVERY key in reqs
// reaches its required minimum, the timeout elapses (a *WaitError
// wrapping ErrTimeout, naming every still-blocking key), or the store
// dies (ErrDead). It is the blocking form of Park — the batched
// replacement for one WaitAtLeast call per dependency: each check is
// one pipelined round trip over the shards involved instead of one per
// key, and after a wakeup only the keys still unmet are checked again.
// Timeout semantics follow WaitAtLeast, applied to the map as a whole
// (a zero timeout checks once; a negative timeout waits forever).
func (s *Store) WaitAtLeastMulti(reqs map[Key]uint64, timeout time.Duration) error {
	if timeout == 0 {
		p, err := s.Park(reqs, nil)
		if p == nil {
			return err
		}
		return &WaitError{Unmet: p.Unmet}
	}
	var expired <-chan time.Time // nil: a negative timeout never expires
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	woken := make(chan struct{}, 1) // a wait fires once and is drained before the next: never full
	wake := func() { woken <- struct{}{} }
	for {
		p, err := s.Park(reqs, wake)
		if p == nil {
			return err
		}
		select {
		case <-woken:
		case <-expired:
			p.Cancel()
			return &WaitError{Unmet: p.Unmet}
		}
		reqs = make(map[Key]uint64, len(p.Unmet))
		for _, r := range p.Unmet {
			reqs[r.Key] = r.Need
		}
	}
}

// ApplyIfNewer implements weak-mode last-writer-wins: it atomically
// checks whether version is newer than the stored version for the
// object key and records it if so. Returns applied=false when the
// message is stale and must be discarded (§4.2, weak delivery), plus
// the previously stored version so a failed apply can be rolled back
// with RestoreVersion.
func (s *Store) ApplyIfNewer(k Key, version uint64) (applied bool, prev uint64, err error) {
	if err := s.checkAlive(); err != nil {
		return false, 0, err
	}
	s.charge(s.cfg.scriptCost(1))
	s.shardFor(k).script(0, func(m map[Key]*entry) {
		e := m[k]
		if e == nil {
			e = &entry{}
			m[k] = e
		}
		prev = e.version
		if version > e.version {
			e.version = version
			applied = true
		}
	})
	return applied, prev, nil
}

// RestoreVersion rolls a claimed object version back to prev, but only
// if the stored version still equals expect — a compare-and-set used
// when the apply guarded by ApplyIfNewer failed and the message will be
// redelivered. If another (newer) claim landed in between, the rollback
// is skipped: the newer version legitimately owns the object.
func (s *Store) RestoreVersion(k Key, expect, prev uint64) error {
	if err := s.checkAlive(); err != nil {
		return err
	}
	s.rt.Add(1)
	s.shardFor(k).script(0, func(m map[Key]*entry) {
		if e := m[k]; e != nil && e.version == expect {
			e.version = prev
		}
	})
	return nil
}

// Claim is one per-object version claim for ApplyBatch: the object's
// dependency key and the post-write version the message carries.
type Claim struct {
	Key     Key
	Version uint64
}

// ClaimResult mirrors ApplyIfNewer's result for one claim of a batch.
type ClaimResult struct {
	Applied bool
	Prev    uint64
}

// ApplyBatch runs the ApplyIfNewer check-and-claim for a whole
// message's operations in one pipelined round trip (one atomic script
// per shard), the subscriber-side counterpart of BumpBatch. Claims are
// evaluated in slice order, so several claims on the same key behave
// exactly like sequential ApplyIfNewer calls. A failed apply is rolled
// back per claim with RestoreVersion, as before.
func (s *Store) ApplyBatch(claims []Claim) ([]ClaimResult, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	if len(claims) == 0 {
		return nil, nil
	}
	out := make([]ClaimResult, len(claims))
	byShard := make(map[*shard][]int)
	for i, c := range claims {
		sh := s.shardFor(c.Key)
		byShard[sh] = append(byShard[sh], i)
	}
	var cost time.Duration
	for _, idxs := range byShard {
		if c := s.cfg.scriptCost(len(idxs)); c > cost {
			cost = c
		}
	}
	s.charge(cost)
	for sh, idxs := range byShard {
		sh.script(0, func(m map[Key]*entry) {
			for _, i := range idxs {
				c := claims[i]
				e := m[c.Key]
				if e == nil {
					e = &entry{}
					m[c.Key] = e
				}
				out[i].Prev = e.version
				if c.Version > e.version {
					e.version = c.Version
					out[i].Applied = true
				}
			}
		})
	}
	return out, nil
}

// Snapshot copies all counters (publisher bulk-send during bootstrap).
func (s *Store) Snapshot() (map[Key]Counters, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	out := make(map[Key]Counters)
	for _, sh := range s.shards {
		s.rt.Add(1)
		sh.rscript(s.cfg.scriptCost(1), func(m map[Key]*entry) {
			for k, e := range m {
				out[k] = Counters{Ops: e.ops, Version: e.version}
			}
		})
	}
	return out, nil
}

// Entries reports the number of tracked keys across shards.
func (s *Store) Entries() int {
	n := 0
	for _, sh := range s.shards {
		sh.rscript(0, func(m map[Key]*entry) { n += len(m) })
	}
	return n
}

func dedupSorted(keys []Key) []Key {
	uniq := make([]Key, 0, len(keys))
	seen := make(map[Key]struct{}, len(keys))
	for _, k := range keys {
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			uniq = append(uniq, k)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	return uniq
}
