package wire

import (
	"sync"
	"time"
)

// Message pooling. The subscriber hot path decodes one message per
// delivery, walks it, and drops it — a perfect pooling candidate,
// because nothing downstream retains the struct: its attribute maps are
// lent to the apply, the engine copies in what it stores, and neither
// outlives the delivery (see DESIGN.md, "Pooling lifecycle").
// UnmarshalPooled hands out a reset pooled message; the caller owns it
// until ReleaseMessage, after which every map, slice, and byte of it may
// be reused by another decode. Callers that retain any part of a message
// (tests, journals) must use plain Unmarshal instead.

var msgPool = sync.Pool{
	New: func() any { return new(Message) },
}

// Map pools. nil-vs-empty is observable (encoding/json leaves a map nil
// when its key is absent), so reset cannot simply keep a cleared map on
// the struct — it stashes the map here and the decoder takes one back
// only when the payload actually carries the key.
var (
	attrMapPool = sync.Pool{New: func() any { return make(map[string]any, 8) }}
	depMapPool  = sync.Pool{New: func() any { return make(map[string]uint64, 4) }}
)

func getAttrMap() map[string]any   { return attrMapPool.Get().(map[string]any) }
func getDepMap() map[string]uint64 { return depMapPool.Get().(map[string]uint64) }

// UnmarshalPooled decodes a message into a pooled scratch struct,
// reusing its maps and slices. A payload outside the canonical form the
// encoder writes (see Unmarshal) sends the pooled struct back to the
// pool, and encoding/json decodes it into a fresh message — callers
// release either kind with ReleaseMessage.
func UnmarshalPooled(b []byte) (*Message, error) { return UnmarshalProjected(b, nil) }

// Sink is a compiled subscription as the decoder sees it: which of an
// operation's attributes to materialise, and under which string.
type Sink interface {
	// Wants reports whether an operation with this verb needs its
	// attributes at all (a persisted model's destroy does not).
	Wants(verb OpKind) bool
	// Key returns the subscriber's own string for a subscribed attribute
	// key, so a decode copies no key; false for an attribute to skip.
	Key(raw []byte) (string, bool)
}

// Resolver picks the sink for an operation published by app with the
// given type chain; nil when nobody subscribed to it.
type Resolver func(app string, types []string) Sink

// UnmarshalProjected is UnmarshalPooled for a subscriber that knows what
// it wants: each operation's attributes go through the sink resolve
// picks for the message's origin and the operation's type chain —
// unsubscribed attributes, and every attribute of an operation without a
// sink, are scanned past and never built (Operation.Sink says which sink
// decided) — and decimal dependency tokens are parsed in place: they are
// in Deps and Operation.ObjectKey, not in Dependencies and ObjectDep.
// Only the canonical form the encoder writes is decoded this way; any
// other payload, and a nil resolve, decode in full like UnmarshalPooled.
func UnmarshalProjected(b []byte, resolve Resolver) (*Message, error) {
	m := msgPool.Get().(*Message)
	if err := decodeFast(b, m, resolve); err != nil {
		m.reset()
		msgPool.Put(m)
		return unmarshalStd(b)
	}
	return m, nil
}

// ReleaseMessage returns a message obtained from UnmarshalPooled to the
// pool. The message (and everything reachable from it) must not be used
// afterwards. Passing a message that never came from the pool is safe —
// it just seeds the pool.
func ReleaseMessage(m *Message) {
	if m == nil {
		return
	}
	m.reset()
	msgPool.Put(m)
}

// reset clears the message for reuse while keeping its allocations: the
// operations backing array (each element cleared through capacity, so a
// later decode can extend into it without seeing stale data), the
// dependency maps, and the parsed-deps cache map.
func (m *Message) reset() {
	m.App = ""
	ops := m.Operations[:cap(m.Operations)]
	for i := range ops {
		ops[i].resetKeepAlloc()
	}
	m.Operations = m.Operations[:0]
	if m.Dependencies != nil {
		clear(m.Dependencies)
		depMapPool.Put(m.Dependencies)
		m.Dependencies = nil
	}
	if m.External != nil {
		clear(m.External)
		depMapPool.Put(m.External)
		m.External = nil
	}
	if m.Dots != nil {
		clear(m.Dots)
		depMapPool.Put(m.Dots)
		m.Dots = nil
	}
	m.PublishedAt = time.Time{}
	m.Generation = 0
	m.GlobalDep = ""
	m.Seq = 0
	m.Recovered = false
	clear(m.parsedDeps)
	m.depsParsed = false
}

// resetKeepAlloc zeroes an operation, stashing its attribute map in the
// map pool and keeping the type-chain backing array (elements zeroed
// through capacity) for the next decode.
func (o *Operation) resetKeepAlloc() {
	o.Operation = ""
	types := o.Types[:cap(o.Types)]
	for i := range types {
		types[i] = ""
	}
	o.Types = o.Types[:0]
	o.ID = ""
	if o.Attributes != nil {
		clear(o.Attributes)
		attrMapPool.Put(o.Attributes)
		o.Attributes = nil
	}
	o.ObjectDep = ""
	o.sink, o.projected = nil, false
	o.depKey, o.hasKey = 0, false
}
