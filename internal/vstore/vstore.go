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
// Store"); a cardinality of 1 degenerates to global ordering.
//
// The hot-path entry points are the batched round-trip plans, one
// window per side: BumpBatch on the publisher (its Release drops the
// locks without waiting for the unlock round trip), ClaimIfMet on the
// subscriber — the dependency probe and the version claims as one
// script per shard; Park, WaitAtLeastMulti and ApplyBatch are that
// script with one half empty — and IncrOpsMulti behind the subscriber's
// group-commit flusher. Each lays a whole message's keys out in a small
// fixed array (see op) and costs one scripted round trip per shard, the
// way the paper batches version-store commands into LUA scripts and
// pipelines them. LockWrites/UnlockWrites remain for bootstrap's chunk
// reads, which lock without bumping; the per-step references the batch
// scripts are property-tested against (Bump, ApplyIfNewer, WaitAtLeast)
// live beside those tests.
//
// An injectable per-script round-trip latency models the network cost of
// a remote Redis, and Kill/Revive model version-store death for the
// generation-number recovery path (§4.4). Round-trip windows are counted
// (RoundTrips) so benchmarks can report round trips per message.
package vstore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/groupcommit"
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

	// releases carries the unlock windows nobody waits for (see settle).
	releases *groupcommit.Flusher[time.Duration]

	mu        sync.RWMutex
	dead      bool
	transport Transport
	onWait    func() // see OnWait
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
	s.releases = groupcommit.New(releasePipeline, releasePipeline, s.chargeReleases)
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

// OnWait installs a test hook run on the waiting goroutine at every
// round-trip window a caller waits for — not at the unlock windows
// charged behind its back. Install it before the store sees traffic.
func (s *Store) OnWait(fn func()) { s.onWait = fn }

// charge accounts one round-trip window and injects its latency.
func (s *Store) charge(cost time.Duration) {
	s.rt.Add(1)
	if s.onWait != nil {
		s.onWait()
	}
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
	if len(s.shards) == 1 {
		return s.shards[0]
	}
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

// LockWrites acquires the cooperative locks of the given keys in the
// canonical order (prepare: ascending, deduplicated — the one protocol
// every lock taker follows, so two holders can never wait on each other
// in a cycle whatever order callers list their keys in), returning the
// ordered keys for UnlockWrites.
func (s *Store) LockWrites(keys []Key) ([]Key, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	var buf [inlineOps]op
	ops := s.prepare(keyOps(buf[:0], keys, 0, true))
	// One batched lock script round trip (the 2PC steps of §4.2 each
	// cost a version-store round trip).
	s.charge(s.cfg.scriptCost(len(ops)))
	held := make([]Key, len(ops))
	for i := range ops {
		ops[i].sh.locks.Acquire(ops[i].key)
		held[i] = ops[i].key
	}
	return held, nil
}

// UnlockWrites releases locks taken by LockWrites (it must be passed
// the slice LockWrites returned). Like Batch.Release it does not wait
// for the unlock round trip.
func (s *Store) UnlockWrites(keys []Key) {
	var buf [inlineOps]op
	ops := keyOps(buf[:0], keys, 0, true)
	s.resolve(ops)
	s.unlock(ops)
}

// unlock is the one unlock path: the locks go down at once, in reverse
// acquisition order, and only then is the unlock script's round-trip
// window accounted for — so it never extends the critical section, and
// the caller never sleeps for its reply (settle).
func (s *Store) unlock(held []op) {
	for i := len(held) - 1; i >= 0; i-- {
		held[i].sh.locks.Release(held[i].key)
	}
	s.settle(s.cfg.scriptCost(len(held)))
}

// releasePipeline bounds the unlock windows handed to the flusher and
// not yet charged: a release that finds the pipeline full waits for a
// window to land (its locks are down already), it never queues without
// limit. It is also the most one window coalesces.
const releasePipeline = 256

// settle accounts for an unlock window nobody waits for. With no
// injected latency that is the counter, inline. Otherwise the window
// goes to the release flusher, whose leader — a goroutine of its own —
// charges every window handed in while the previous one was in flight
// as ONE pipelined round trip: the replies are not awaited one by one,
// the pipeline's progress is.
func (s *Store) settle(cost time.Duration) {
	if cost <= 0 {
		s.rt.Add(1)
		return
	}
	s.releases.Add(cost)
	s.releases.Kick()
}

// chargeReleases is the release flusher's drain: one window for the
// batch, as long as its slowest script. It sleeps even on a Precise
// store — spinning is for paths someone measures, and nobody waits here.
func (s *Store) chargeReleases(costs []time.Duration) {
	s.rt.Add(1)
	time.Sleep(slices.Max(costs))
}

// WaitReleases returns once every unlock window handed off so far has
// been charged, so RoundTrips is exact on a quiesced store.
func (s *Store) WaitReleases() { s.releases.Wait() }

// bump executes the publisher counter update of §4.2, one atomic script
// per shard: for every dependency ops is incremented; for write
// dependencies (a key listed as both read and write is a write) version
// is set to ops. The version to embed in the message is left in each
// op's out: version for reads, version−1 for writes; a write's arg keeps
// the version it replaced, for Undo. With undo set it takes a bump back.
func (s *Store) bump(ops []op, undo bool) {
	for _, sh := range s.shards {
		if on(ops, sh) == 0 {
			continue
		}
		sh.mu.Lock()
		for i := range ops {
			o := &ops[i]
			if o.sh != sh {
				continue
			}
			e := sh.data[o.key]
			switch {
			case undo:
				e.ops -= min(e.ops, 1) // a revived store may have lost it
				if o.ok && e.version == o.out+1 {
					e.version = o.arg
				}
			case o.ok:
				e.ops++
				o.arg, e.version = e.version, e.ops
				o.out = e.version - 1
			default:
				e.ops++
				o.out = e.version
			}
			sh.data[o.key] = e
		}
		sh.mu.Unlock()
	}
}

// Batch is a publisher round-trip plan in flight: the versions returned
// by BumpBatch plus the locks held until Release. It is a value — up to
// inlineOps keys live inside it, so a plan allocates nothing — and must
// not be copied once Release may run.
type Batch struct {
	store    *Store
	n        int
	inline   [inlineOps]op
	spill    []op // instead of inline, beyond inlineOps keys
	released bool
}

func (b *Batch) ops() []op {
	if b.spill != nil {
		return b.spill
	}
	return b.inline[:b.n]
}

// Len is the number of distinct dependency keys in the plan.
func (b *Batch) Len() int { return len(b.ops()) }

// At returns the plan's i-th key, in ascending key order, and its
// version to embed (see Version).
func (b *Batch) At(i int) (Key, uint64) {
	o := b.ops()[i]
	return o.key, o.out
}

// Version returns the version to embed in the message for one of the
// plan's keys: version for reads, version−1 for writes (§4.2).
func (b *Batch) Version(k Key) uint64 {
	for _, o := range b.ops() {
		if o.key == k {
			return o.out
		}
	}
	return 0
}

// BumpBatch runs the whole publisher counter update of §4.2 as one
// scripted round trip per shard (the paper's Redis LUA scripts): it
// acquires the dependency locks in the canonical deadlock-free order
// (prepare), increments ops, sets version for write dependencies, and
// collects the versions to embed — all within a single pipelined
// round-trip window, instead of the separate lock and bump windows of
// the legacy chain. Locks cover reads and writes, like the callers of
// LockWrites did, so broker queue order stays consistent with
// dependency order; they are held until Release.
func (s *Store) BumpBatch(readDeps, writeDeps []Key) (Batch, error) {
	b := Batch{store: s}
	var err error
	if n := len(readDeps) + len(writeDeps); n > inlineOps {
		b.spill, err = s.lockAndBump(make([]op, 0, n), readDeps, writeDeps)
	} else {
		var buf [inlineOps]op
		var ops []op
		ops, err = s.lockAndBump(buf[:0], readDeps, writeDeps)
		b.n = copy(b.inline[:], ops)
	}
	if err != nil {
		return Batch{}, err
	}
	return b, nil
}

// lockAndBump is BumpBatch's window over the keys laid out in ops'
// array: the ops it returns hold the locks and carry the versions.
func (s *Store) lockAndBump(ops []op, readDeps, writeDeps []Key) ([]op, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	ops = s.prepare(keyOps(keyOps(ops, writeDeps, 0, true), readDeps, 0, false))
	// The whole plan is ONE pipelined round-trip window: the injected
	// RTT models the network flight to the store, so it is charged
	// BEFORE the locks are taken — server-side, the script acquires the
	// locks and bumps the counters back to back. Charging it after
	// acquisition (as this path once did) held every hot dependency key
	// locked across the sleep, serializing concurrent publishers to the
	// same popular object for an extra RTT each and convoying the
	// publish path under zipf-skewed traffic.
	s.charge(s.windowCost(ops, nil))
	for i := range ops {
		ops[i].sh.locks.Acquire(ops[i].key)
	}
	if err := s.checkAlive(); err != nil {
		// The store died while we waited for a lock holder; hand back
		// the locks rather than versions from a dead store.
		s.unlock(ops)
		return nil, err
	}
	s.bump(ops, false)
	return ops, nil
}

// Undo takes the batch's bump back while its locks are still held, in
// one more window: each key's ops returns by one and a write's version to
// the one it replaced. Only for a message that will never be sent — one
// that may have reached the broker keeps its versions, or a later message
// reusing them would be discarded as stale.
func (b *Batch) Undo() error {
	if b.released || b.store == nil {
		return nil
	}
	if err := b.store.checkAlive(); err != nil {
		return err
	}
	b.store.charge(b.store.windowCost(b.ops(), nil))
	b.store.bump(b.ops(), true)
	return nil
}

// Release drops the batch's locks where it is called — after the broker
// send, so queue order stays consistent with dependency order — without
// waiting for the unlock round trip (see unlock). Safe to call more than
// once.
func (b *Batch) Release() {
	if b.released || b.store == nil {
		return
	}
	b.released = true
	b.store.unlock(b.ops())
}

// Counters returns the publisher counters for a key (zero when absent).
func (s *Store) Counters(k Key) Counters {
	var out Counters
	s.rt.Add(1)
	s.shardFor(k).rscript(0, func(m map[Key]entry) {
		e := m[k]
		out = Counters{Ops: e.ops, Version: e.version}
	})
	return out
}

// Ops returns the subscriber-side ops counter for a key.
func (s *Store) Ops(k Key) uint64 {
	var out uint64
	s.rt.Add(1)
	s.shardFor(k).rscript(0, func(m map[Key]entry) { out = m[k].ops })
	return out
}

// moveOps is the one way a subscriber ops counter moves: move takes every
// key's counter (created on demand) to its new value, one atomic script
// per shard in one window, then the waiters whose threshold a key's new
// value reaches are woken — nothing that moves a counter can forget the
// waiter table.
func (s *Store) moveOps(ops []op, move func(cur, arg uint64) uint64) error {
	if len(ops) == 0 {
		return nil
	}
	if err := s.checkAlive(); err != nil {
		return err
	}
	ops = s.prepare(ops)
	s.charge(s.windowCost(ops, nil))
	for _, sh := range s.shards {
		if on(ops, sh) == 0 {
			continue
		}
		sh.mu.Lock()
		for i := range ops {
			if o := &ops[i]; o.sh == sh {
				e := sh.data[o.key]
				e.ops = move(e.ops, o.arg)
				sh.data[o.key] = e
				o.out = e.ops
			}
		}
		sh.mu.Unlock()
		sh.wakeReached(ops)
	}
	return nil
}

func addOps(cur, n uint64) uint64   { return cur + n }
func raiseOps(cur, v uint64) uint64 { return max(cur, v) }

// IncrOps increments the subscriber ops counter for every key (after a
// message is processed) and wakes waiters. Duplicate keys count once.
func (s *Store) IncrOps(keys []Key) error {
	var buf [inlineOps]op
	return s.moveOps(keyOps(buf[:0], keys, 1, false), addOps)
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
	var buf [inlineOps]op
	ops := buf[:0]
	for k, n := range counts {
		if n > 0 {
			ops = append(ops, op{key: k, arg: n})
		}
	}
	return s.moveOps(ops, addOps)
}

// SetOpsMulti raises many keys' ops counters to at least their mapped
// values in one pipelined round-trip window (max-merge per key). This
// is the bulk version load of a bootstrap: one window instead of one
// per counter.
func (s *Store) SetOpsMulti(vals map[Key]uint64) error {
	ops := make([]op, 0, len(vals))
	for k, v := range vals {
		ops = append(ops, op{key: k, arg: v})
	}
	return s.moveOps(ops, raiseOps)
}

// Parked is a dependency wait that found requirements unmet: the
// blocking keys as probed and — given a wake action — one registration
// per unmet key in the shards' waiter tables. It ends exactly once,
// dropping every remaining registration: it fires (a threshold reached,
// a flush, a kill; wake runs on the goroutine that did it) or it is
// cancelled.
type Parked struct {
	// Unmet lists the keys short of their minimum at the probe, with the
	// counters observed, in ascending key order.
	Unmet []WaitReq

	store *Store
	keys  []Key // every key the wait may be registered on
	wake  Waker
	done  atomic.Bool
}

// Waker is what a wait that found requirements unmet leaves registered:
// Wake is called once when the wait fires. An interface rather than a
// func so that the waiter itself — the subscriber's job — can be handed
// over on every probe, met or not, without allocating a closure.
type Waker interface{ Wake() }

// WakeFunc makes a Waker of a function.
type WakeFunc func()

// Wake calls f.
func (f WakeFunc) Wake() { f() }

func (p *Parked) fire() {
	if p.Cancel() {
		p.wake.Wake()
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

// Claim is one per-object version claim: the object's dependency key
// and the post-write version the message carries.
type Claim struct {
	Key     Key
	Version uint64
}

// ClaimResult is what a claim found: whether its version was newer than
// the stored one (and is recorded now), and the version stored before —
// what RestoreVersion puts back if the guarded apply fails.
type ClaimResult struct {
	Applied bool
	Prev    uint64
}

// ClaimIfMet is the subscriber's one round-trip window per message: the
// dependency probe and the per-object version claims of §4.2 as ONE
// atomic script per shard, pipelined over the shards involved. Each
// shard checks its share of reqs (the ops counter of every key against
// the minimum it needs; zero minimums need nothing) and — only if all of
// them are reached — runs its share of claims in slice order: a claim
// whose version is newer than the stored one records it and wins, any
// other is stale (weak-mode last-writer-wins, duplicate redelivery).
// When every requirement is met the outcome of claims[i] is left in
// results[i] and nil is returned.
//
// Otherwise nothing stays claimed and the unmet keys come back with the
// counters observed. Given a non-nil wake, a threshold-aware waiter is
// left registered on each of them: wake is called once — possibly before
// ClaimIfMet returns — when any of them reaches its threshold or the
// store is flushed or killed, and the caller tries again to learn
// whether everything is satisfied now. A key is checked and registered
// under one hold of its shard's lock, so an increment between the two
// cannot be lost.
//
// Shards do not see each other's keys: with more than one, a shard
// whose own requirements are met claims even though another will report
// unmet. Those claims are taken back in one more window with
// RestoreVersion's compare-and-set, before ClaimIfMet returns — the
// caller still holds its per-object apply locks, so no claim of its own
// objects can have landed in between. A message whose requirements and
// claims share a shard never pays it.
//
// The probe alone (Park, WaitAtLeastMulti) is ClaimIfMet with no claims
// and takes only read locks, so concurrent probes of the same hot keys
// never serialize against each other; the claim alone (ApplyBatch) is
// ClaimIfMet with no requirements.
func (s *Store) ClaimIfMet(reqs []WaitReq, claims []Claim, results []ClaimResult, wake Waker) (*Parked, error) {
	if err := s.checkAlive(); err != nil {
		return nil, err
	}
	var pbuf, cbuf [inlineOps]op
	probes := pbuf[:0]
	for _, r := range reqs {
		if r.Need > 0 {
			probes = append(probes, op{key: r.Key, arg: r.Need})
		}
	}
	probes = s.prepare(probes)
	cl := cbuf[:0]
	for _, c := range claims {
		cl = append(cl, op{key: c.Key, arg: c.Version})
	}
	s.resolve(cl)
	if len(probes)+len(cl) == 0 {
		return nil, nil
	}
	s.charge(s.windowCost(probes, cl))
	var p *Parked
	claimed := false
	for _, sh := range s.shards {
		writes := on(cl, sh) > 0
		if !writes && on(probes, sh) == 0 {
			continue
		}
		if writes {
			sh.mu.Lock()
		} else {
			sh.mu.RLock()
		}
		met := true
		for i := range probes {
			o := &probes[i]
			if o.sh != sh {
				continue
			}
			cur := sh.data[o.key].ops
			if cur >= o.arg {
				continue
			}
			met = false
			if p == nil {
				p = &Parked{store: s, wake: wake, keys: make([]Key, len(probes))}
				for j := range probes {
					p.keys[j] = probes[j].key
				}
			}
			p.Unmet = append(p.Unmet, WaitReq{Key: o.key, Need: o.arg, Have: cur})
			if wake != nil {
				sh.register(o.key, o.arg, p)
			}
		}
		if !writes {
			sh.mu.RUnlock()
			continue
		}
		for i := range cl {
			if o := &cl[i]; met && o.sh == sh {
				e := sh.data[o.key]
				o.out = e.version
				if o.arg > e.version {
					e.version = o.arg
					o.ok, claimed = true, true
				}
				sh.data[o.key] = e
			}
		}
		sh.mu.Unlock()
	}
	if p == nil {
		for i := range cl {
			results[i] = ClaimResult{Applied: cl[i].ok, Prev: cl[i].out}
		}
		return nil, nil
	}
	if claimed {
		s.takeBack(cl)
	}
	slices.SortFunc(p.Unmet, func(a, b WaitReq) int { return cmp.Compare(a.Key, b.Key) })
	return p, nil
}

// takeBack undoes the claims a shard made for a message another shard
// then refused, newest first, each only if the version it recorded is
// still the stored one — one more window (the rare cross-shard path of
// ClaimIfMet).
func (s *Store) takeBack(cl []op) {
	s.charge(s.windowCost(cl, nil))
	for _, sh := range s.shards {
		if on(cl, sh) == 0 {
			continue
		}
		sh.mu.Lock()
		for i := len(cl) - 1; i >= 0; i-- {
			if o := &cl[i]; o.ok && o.sh == sh {
				if e, ok := sh.data[o.key]; ok && e.version == o.arg {
					e.version = o.out
					sh.data[o.key] = e
				}
			}
		}
		sh.mu.Unlock()
	}
}

// Park is the non-blocking dependency wait: ClaimIfMet with no claims,
// over a requirement map.
func (s *Store) Park(reqs map[Key]uint64, wake Waker) (*Parked, error) {
	var buf [inlineOps]WaitReq
	list := buf[:0]
	for k, min := range reqs {
		list = append(list, WaitReq{Key: k, Need: min})
	}
	return s.ClaimIfMet(list, nil, nil, wake)
}

// WaitAtLeastMulti blocks until the ops counter of EVERY key in reqs
// reaches its required minimum, the timeout elapses (a *WaitError
// wrapping ErrTimeout, naming every still-blocking key), or the store
// dies (ErrDead). It is the blocking form of Park: each check is one
// pipelined round trip over the shards involved instead of one per
// key, and after a wakeup only the keys still unmet are checked again.
// A zero timeout checks once; a negative timeout waits forever.
func (s *Store) WaitAtLeastMulti(reqs map[Key]uint64, timeout time.Duration) error {
	var expired <-chan time.Time // nil: never expires
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	var woken chan struct{}
	var wake Waker
	if timeout != 0 {
		woken = make(chan struct{}, 1) // a wait fires once and is drained before the next: never full
		wake = WakeFunc(func() { woken <- struct{}{} })
	}
	p, err := s.Park(reqs, wake)
	for p != nil {
		if wake == nil {
			return &WaitError{Unmet: p.Unmet}
		}
		select {
		case <-woken:
		case <-expired:
			p.Cancel()
			return &WaitError{Unmet: p.Unmet}
		}
		p, err = s.ClaimIfMet(p.Unmet, nil, nil, wake)
	}
	return err
}

// RestoreVersion rolls a claimed object version back to prev, but only
// if the stored version still equals expect — a compare-and-set used
// when the apply guarded by a claim failed and the message will be
// redelivered. If another (newer) claim landed in between, the rollback
// is skipped: the newer version legitimately owns the object.
func (s *Store) RestoreVersion(k Key, expect, prev uint64) error {
	if err := s.checkAlive(); err != nil {
		return err
	}
	s.rt.Add(1)
	s.shardFor(k).script(0, func(m map[Key]entry) {
		if e, ok := m[k]; ok && e.version == expect {
			e.version = prev
			m[k] = e
		}
	})
	return nil
}

// ApplyBatch runs the check-and-claim for a whole message's operations
// in one pipelined round trip — ClaimIfMet with no requirements, the
// subscriber-side counterpart of BumpBatch. Claims are evaluated in
// slice order, so several claims on the same key behave exactly like
// sequential single claims.
func (s *Store) ApplyBatch(claims []Claim) ([]ClaimResult, error) {
	if len(claims) == 0 {
		return nil, s.checkAlive()
	}
	out := make([]ClaimResult, len(claims))
	if _, err := s.ClaimIfMet(nil, claims, out, nil); err != nil {
		return nil, err
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
		sh.rscript(s.cfg.scriptCost(1), func(m map[Key]entry) {
			for k, e := range m {
				out[k] = Counters{Ops: e.ops, Version: e.version}
			}
		})
	}
	return out, nil
}
