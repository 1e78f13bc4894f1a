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
	"strings"
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
	dots  *dots // names the keys under DVV; nil under hash
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
	p.dots.rlock()
	defer p.dots.runlock()
	for i := range p.batch.Len() {
		k, v := p.batch.At(i)
		dst = append(dst, wire.Dep{Token: p.dots.token(k), Version: v})
	}
	return dst
}

// ObjectName is the dependency name of one object of an app, in the
// paper's "pub3/users/id/100" form: the app, the model's table and the
// object's id.
func ObjectName(app, table, id string) string {
	p := objectParts(app, table, id)
	return strings.Join(p[:], "")
}

// objectParts is ObjectName in the pieces ObjectKey resolves without
// joining them.
func objectParts(app, table, id string) [5]string {
	return [5]string{app, "/", table, "/id/", id}
}

// Tracker is one dependency-tracking policy bound to an app's version
// store. It owns every translation between dependency names, wire
// tokens, and version-store keys; core's publisher and subscriber never
// branch on the policy themselves. A publisher resolves each name to its
// key where the name is made (ObjectKey: from the object's parts, never a
// joined string) and carries keys from there on; the tokens its message
// needs come from those keys (TokenOf).
//
// Under hash (dots nil) it is the paper's fixed-cardinality dependency
// hashing: the store's KeyFor folds names into the configured key space,
// tokens are the decimal keys, and colliding names deliberately share
// counters. Under DVV it keeps exact per-name dots: names are interned
// into private version-store keys on first use; the intern table is what
// makes the dotted vector "dotted" — each name is its own dimension.
type Tracker struct {
	store *vstore.Store
	dots  *dots
}

// dots is the DVV intern table. Interned keys live in the top half of
// the key space ((1<<63)|seq) so they can never collide with a hash
// publisher's fixed-cardinality keys adopted verbatim by Resolve on a
// mixed-policy subscriber. Its read-side methods take a nil table (hash)
// as one that names nothing.
type dots struct {
	mu    sync.RWMutex
	names map[string]vstore.Key
	byKey map[vstore.Key]string
	next  uint64
}

// dotKeyBase offsets interned keys away from hashed-key space.
const dotKeyBase = uint64(1) << 63

// planKeys is the fixed capacity a plan's key lists keep on the stack.
const planKeys = 8

// New builds the tracker for a policy name ("" selects hash, the
// paper's default). The third parameter is ignored: benchmark/layers.go
// pins this signature and a PR may not edit the benchmark.
func New(policy string, store *vstore.Store, _ bool) (*Tracker, error) {
	switch Policy(policy) {
	case "", PolicyHash:
		return &Tracker{store: store}, nil
	case PolicyDVV:
		return &Tracker{store: store, dots: &dots{
			names: make(map[string]vstore.Key),
			byKey: make(map[vstore.Key]string),
		}}, nil
	}
	return nil, fmt.Errorf("deptrack: unknown tracker policy %q", policy)
}

// Policy reports which policy this tracker implements.
func (t *Tracker) Policy() Policy {
	if t.dots == nil {
		return PolicyHash
	}
	return PolicyDVV
}

// KeyFor derives the version-store key for a dependency name.
func (t *Tracker) KeyFor(name string) vstore.Key {
	if t.dots == nil {
		return t.store.KeyFor(name)
	}
	t.dots.mu.RLock()
	k, ok := t.dots.names[name]
	t.dots.mu.RUnlock()
	if ok {
		return k
	}
	return t.dots.add(name)
}

// ObjectKey is KeyFor(ObjectName(app, table, id)) without the name on
// the heap: FNV-1a streamed over its parts (hash), or joined in a stack
// array (one too short for it is the only allocation) and looked up by
// string(b), which does not copy b, so only the first sight of a name,
// which interns it, copies it (dvv).
func (t *Tracker) ObjectKey(app, table, id string) vstore.Key {
	p := objectParts(app, table, id)
	if t.dots == nil {
		return t.store.KeyForParts(p[:]...)
	}
	var arr [128]byte
	b := arr[:0]
	for _, part := range p {
		b = append(b, part...)
	}
	t.dots.mu.RLock()
	k, ok := t.dots.names[string(b)]
	t.dots.mu.RUnlock()
	if ok {
		return k
	}
	return t.dots.add(string(b))
}

// add interns a name the lookup missed, unless a racing add got there
// first.
func (d *dots) add(name string) vstore.Key {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k, ok := d.names[name]; ok {
		return k
	}
	d.next++
	k := vstore.Key(dotKeyBase | d.next)
	d.names[name] = k
	d.byKey[k] = name
	return k
}

// Token is the wire token for a dependency name: the hashed key (hash)
// or the name itself (dvv).
func (t *Tracker) Token(name string) wire.Token {
	if t.dots == nil {
		return wire.Token{Key: uint64(t.store.KeyFor(name))}
	}
	return wire.Token{Name: name}
}

// TokenOf is the wire token of a key this tracker resolved:
// TokenOf(KeyFor(n)) is Token(n).
func (t *Tracker) TokenOf(k vstore.Key) wire.Token {
	t.dots.rlock()
	defer t.dots.runlock()
	return t.dots.token(k)
}

func (d *dots) rlock() {
	if d != nil {
		d.mu.RLock()
	}
}

func (d *dots) runlock() {
	if d != nil {
		d.mu.RUnlock()
	}
}

// token is the wire token of key k under d.mu: an interned key's name,
// or the key itself — under hash, and for a key a DVV subscriber adopted
// verbatim from a hash publisher (mixed fabric).
func (d *dots) token(k vstore.Key) wire.Token {
	if d != nil {
		if name, ok := d.byKey[k]; ok {
			return wire.Token{Name: name}
		}
	}
	return wire.Token{Key: uint64(k)}
}

// Resolve maps a wire token — either form, regardless of this tracker's
// own policy — to a version-store key: a name goes through KeyFor (a
// hash subscriber folds a DVV publisher's name into its hashed space),
// and a hashed key is adopted verbatim, where it cannot collide with an
// interned key (see dotKeyBase).
func (t *Tracker) Resolve(tok wire.Token) vstore.Key {
	if tok.Name != "" {
		return t.KeyFor(tok.Name)
	}
	return vstore.Key(tok.Key)
}

// PlanKeys locks the union of the dependency keys and bumps their
// counters in one batched round trip per shard (§4.2 step 2+3),
// returning the versions to embed; the locks stay held until
// Plan.Release. The batch keeps each distinct key with its version —
// colliding hashed names share a key and so a token — and nothing else
// is built.
func (t *Tracker) PlanKeys(reads, writes []vstore.Key) (Plan, error) {
	batch, err := t.store.BumpBatch(reads, writes)
	return Plan{batch: batch, dots: t.dots}, err
}

// Plan is PlanKeys of the names' keys, resolved into fixed arrays on the
// stack.
func (t *Tracker) Plan(readNames, writeNames []string) (Plan, error) {
	var rbuf, wbuf [planKeys]vstore.Key
	reads, writes := rbuf[:0], wbuf[:0]
	for _, n := range readNames {
		reads = append(reads, t.KeyFor(n))
	}
	for _, n := range writeNames {
		writes = append(writes, t.KeyFor(n))
	}
	return t.PlanKeys(reads, writes)
}

// ExportVersions snapshots every counter pair keyed by wire token — the
// bulk version send of a §4.4 bootstrap. Token keying (rather than raw
// vstore keys) is what lets a subscriber with a different policy, or a
// different intern table, fold the snapshot into its own key space via
// Resolve.
func (t *Tracker) ExportVersions() (map[wire.Token]vstore.Counters, error) {
	snap, err := t.store.Snapshot()
	if err != nil {
		return nil, err
	}
	out := make(map[wire.Token]vstore.Counters, len(snap))
	t.dots.rlock()
	defer t.dots.runlock()
	for k, c := range snap {
		out[t.dots.token(k)] = c
	}
	return out, nil
}

// DescribeKey renders a key for diagnostics (timeout errors): the exact
// name under dvv when known, the key number otherwise.
func (t *Tracker) DescribeKey(k vstore.Key) string {
	switch tok := t.TokenOf(k); {
	case tok.Name != "":
		return fmt.Sprintf("dot %q", tok.Name)
	case t.dots == nil:
		return fmt.Sprintf("hashed key %d", uint64(k))
	}
	return fmt.Sprintf("key %d", uint64(k))
}
