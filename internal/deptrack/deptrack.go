// Package deptrack extracts Synapse's dependency-tracking policy into a
// pluggable layer. The publisher algorithm of §4.2 and the subscriber
// wait/apply gate are policy-independent: both sides only need a way to
// derive a version-store key from a dependency name, a wire token to
// embed in messages (wire.Token), and a plan that bumps counters under the write
// locks. What varies is how names map onto counters:
//
//   - The hash tracker is the paper's design ("Scaling the Version
//     Store", §4.2): names hash into a fixed-cardinality key space, so
//     every version store consumes O(1) memory, at the cost of FALSE
//     dependencies — two unrelated names sharing a hashed key serialize
//     each other's applies.
//   - The DVV tracker keeps exact per-name dots (a dotted version
//     vector: one counter pair per object name ever written). Messages
//     carry the names themselves as tokens (the wire's "dots"); there
//     are no false dependencies, so causally-unrelated messages apply
//     concurrently, at the cost of version-store state proportional to
//     the working set.
//
// Both trackers speak both token forms on the subscriber side (a
// wire.Token is a hashed key or a name), so mixed-policy fabrics
// interoperate — a hash subscriber folds a DVV publisher's names into its
// own hashed space, and a DVV subscriber adopts a hash publisher's keys
// verbatim.
package deptrack

import (
	"fmt"
	"sync"

	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// Policy names a dependency-tracking policy.
type Policy string

const (
	// PolicyHash is the paper's fixed-cardinality dependency hashing.
	PolicyHash Policy = "hash"
	// PolicyDVV tracks exact per-name dots (dotted version vectors).
	PolicyDVV Policy = "dvv"
)

// Plan is one publish's dependency plan in flight: the (key, version)
// pairs its vstore.Batch holds — version for read dependencies, version−1
// for writes (§4.2) — with the version-store locks held until Release
// (they cover the broker send, keeping queue order consistent with
// dependency order — see core's publisher). It is a value holding its
// Batch; keep it in one variable.
type Plan struct {
	batch vstore.Batch
	// dvv names the plan's keys under the DVV tracker (they are interned
	// names); nil under hash, whose keys are their own tokens.
	dvv *dvvTracker
}

// Release unlocks the plan's dependency keys without waiting for the
// unlock round trip (vstore.Batch.Release). Idempotent.
func (p *Plan) Release() { p.batch.Release() }

// Undo takes the plan's bump back before Release, for a message that
// will never be sent (vstore.Batch.Undo).
func (p *Plan) Undo() error { return p.batch.Undo() }

// AppendDeps appends the plan's dependencies as a message carries them
// (wire.Message.SetDeps): hashed keys, or DVV keys by name.
func (p *Plan) AppendDeps(dst []wire.Dep) []wire.Dep {
	if p.dvv != nil {
		p.dvv.mu.RLock()
		defer p.dvv.mu.RUnlock()
	}
	for i := range p.batch.Len() {
		k, v := p.batch.At(i)
		t := wire.Token{Key: uint64(k)}
		if p.dvv != nil {
			t = wire.Token{Name: p.dvv.byKey[k]}
		}
		dst = append(dst, wire.Dep{Token: t, Version: v})
	}
	return dst
}

// Tracker is one dependency-tracking policy bound to an app's version
// store. It owns every translation between dependency names, wire
// tokens, and version-store keys; core's publisher and subscriber never
// branch on the policy themselves.
type Tracker interface {
	// Policy reports which policy this tracker implements.
	Policy() Policy
	// KeyFor derives the version-store key for a dependency name.
	KeyFor(name string) vstore.Key
	// Token is the wire token for a dependency name: the hashed key
	// (hash) or the name itself (dvv).
	Token(name string) wire.Token
	// Resolve maps a wire token — either form, regardless of this
	// tracker's own policy — to a version-store key. Names go through
	// KeyFor; hashed keys are adopted verbatim, like the pre-tracker
	// subscriber did.
	Resolve(tok wire.Token) vstore.Key
	// Plan locks the union of the dependency names and bumps their
	// counters in one batched round trip per shard (§4.2 step 2+3),
	// returning the versions to embed. The locks stay held until
	// Plan.Release.
	Plan(readNames, writeNames []string) (Plan, error)
	// ExportVersions snapshots every counter pair keyed by wire token —
	// the bulk version send of a §4.4 bootstrap. Token keying (rather
	// than raw vstore keys) is what lets a subscriber with a different
	// policy, or a different intern table, fold the snapshot into its
	// own key space via Resolve.
	ExportVersions() (map[wire.Token]vstore.Counters, error)
	// DescribeKey renders a key for diagnostics (timeout errors): the
	// exact name under dvv when known, the hashed key number otherwise.
	DescribeKey(k vstore.Key) string
}

// New builds the tracker for a policy name ("" selects hash, the
// paper's default). The third parameter is ignored: benchmark/layers.go
// pins this signature and a PR may not edit the benchmark.
func New(policy string, store *vstore.Store, _ bool) (Tracker, error) {
	switch Policy(policy) {
	case "", PolicyHash:
		return &hashTracker{store: store}, nil
	case PolicyDVV:
		return &dvvTracker{
			store: store,
			names: make(map[string]vstore.Key),
			byKey: make(map[vstore.Key]string),
		}, nil
	}
	return nil, fmt.Errorf("deptrack: unknown tracker policy %q", policy)
}

// planKeys is the fixed capacity a plan's key lists keep on the stack.
const planKeys = 8

// plan is both trackers' Plan: the names' keys go into fixed arrays and
// one BumpBatch locks and bumps them. The batch keeps each distinct key
// with its version; nothing else is built.
func plan(store *vstore.Store, readNames, writeNames []string, keyFor func(string) vstore.Key) (Plan, error) {
	var rbuf, wbuf [planKeys]vstore.Key
	reads, writes := rbuf[:0], wbuf[:0]
	for _, n := range readNames {
		reads = append(reads, keyFor(n))
	}
	for _, n := range writeNames {
		writes = append(writes, keyFor(n))
	}
	batch, err := store.BumpBatch(reads, writes)
	return Plan{batch: batch}, err
}

// hashTracker is the paper's fixed-cardinality dependency hashing: the
// store's KeyFor folds names into the configured key space, tokens are
// the decimal keys, and colliding names deliberately share counters.
type hashTracker struct {
	store *vstore.Store
}

func (t *hashTracker) Policy() Policy { return PolicyHash }

func (t *hashTracker) KeyFor(name string) vstore.Key { return t.store.KeyFor(name) }

func (t *hashTracker) Token(name string) wire.Token {
	return wire.Token{Key: uint64(t.store.KeyFor(name))}
}

func (t *hashTracker) Resolve(tok wire.Token) vstore.Key {
	if tok.Name != "" {
		// A DVV publisher's name: fold it into our hashed space.
		return t.store.KeyFor(tok.Name)
	}
	return vstore.Key(tok.Key)
}

func (t *hashTracker) Plan(readNames, writeNames []string) (Plan, error) {
	// Colliding names share a key and so a token.
	return plan(t.store, readNames, writeNames, t.store.KeyFor)
}

func (t *hashTracker) ExportVersions() (map[wire.Token]vstore.Counters, error) {
	snap, err := t.store.Snapshot()
	if err != nil {
		return nil, err
	}
	out := make(map[wire.Token]vstore.Counters, len(snap))
	for k, c := range snap {
		out[wire.Token{Key: uint64(k)}] = c
	}
	return out, nil
}

func (t *hashTracker) DescribeKey(k vstore.Key) string {
	return fmt.Sprintf("hashed key %d", uint64(k))
}

// dvvTracker keeps exact per-name dots. Names are interned into
// private version-store keys on first use; the intern table is what
// makes the dotted vector "dotted" — each name is its own dimension.
// Interned keys live in the top half of the key space ((1<<63)|seq) so
// they can never collide with a hash publisher's fixed-cardinality
// keys adopted verbatim by Resolve on a mixed-policy subscriber.
type dvvTracker struct {
	store *vstore.Store

	mu    sync.RWMutex
	names map[string]vstore.Key
	byKey map[vstore.Key]string
	next  uint64
}

// dotKeyBase offsets interned keys away from hashed-key space.
const dotKeyBase = uint64(1) << 63

func (t *dvvTracker) Policy() Policy { return PolicyDVV }

func (t *dvvTracker) intern(name string) vstore.Key {
	t.mu.RLock()
	k, ok := t.names[name]
	t.mu.RUnlock()
	if ok {
		return k
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if k, ok := t.names[name]; ok {
		return k
	}
	t.next++
	k = vstore.Key(dotKeyBase | t.next)
	t.names[name] = k
	t.byKey[k] = name
	return k
}

func (t *dvvTracker) KeyFor(name string) vstore.Key { return t.intern(name) }

func (t *dvvTracker) Token(name string) wire.Token { return wire.Token{Name: name} }

func (t *dvvTracker) Resolve(tok wire.Token) vstore.Key {
	if tok.Name != "" {
		return t.intern(tok.Name)
	}
	// A hash publisher's key: adopt it verbatim; it cannot collide with
	// the interned dot keys (see dotKeyBase).
	return vstore.Key(tok.Key)
}

func (t *dvvTracker) Plan(readNames, writeNames []string) (Plan, error) {
	p, err := plan(t.store, readNames, writeNames, t.intern)
	p.dvv = t
	return p, err
}

func (t *dvvTracker) ExportVersions() (map[wire.Token]vstore.Counters, error) {
	snap, err := t.store.Snapshot()
	if err != nil {
		return nil, err
	}
	out := make(map[wire.Token]vstore.Counters, len(snap))
	t.mu.RLock()
	defer t.mu.RUnlock()
	for k, c := range snap {
		if name, ok := t.byKey[k]; ok {
			out[wire.Token{Name: name}] = c
		} else {
			// A counter adopted verbatim from a hash publisher (mixed
			// fabric): export its hashed key unchanged.
			out[wire.Token{Key: uint64(k)}] = c
		}
	}
	return out, nil
}

func (t *dvvTracker) DescribeKey(k vstore.Key) string {
	t.mu.RLock()
	name, ok := t.byKey[k]
	t.mu.RUnlock()
	if ok {
		return fmt.Sprintf("dot %q", name)
	}
	return fmt.Sprintf("key %d", uint64(k))
}
