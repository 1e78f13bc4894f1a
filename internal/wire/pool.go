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

// The attribute map pool. nil-vs-empty is observable (an operation
// without an "attributes" member has none), so reset cannot simply keep a
// cleared map on the operation — it stashes the map here and the decoder
// takes one back only when the payload actually carries the member.
var attrMapPool = sync.Pool{New: func() any { return make(map[string]any, 8) }}

func getAttrMap() map[string]any { return attrMapPool.Get().(map[string]any) }

// UnmarshalPooled decodes a message into a pooled scratch struct,
// reusing its maps and slices; release it with ReleaseMessage.
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
// decided). Everything else, tokens included, is what the full decode
// reads. A nil resolve decodes in full like UnmarshalPooled.
func UnmarshalProjected(b []byte, resolve Resolver) (*Message, error) {
	m := msgPool.Get().(*Message)
	if err := decode(b, m, resolve); err != nil {
		ReleaseMessage(m)
		return nil, err
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
// later decode can extend into it without seeing stale data) and the
// dependency lists.
func (m *Message) reset() {
	m.App = ""
	ops := m.Operations[:cap(m.Operations)]
	for i := range ops {
		ops[i].resetKeepAlloc()
	}
	m.Operations = m.Operations[:0]
	clear(m.Deps)
	m.Deps = m.Deps[:0]
	clear(m.External)
	m.External = m.External[:0]
	m.PublishedAt = time.Time{}
	m.Generation = 0
	m.GlobalDep, m.global = nil, Token{}
	m.Seq = 0
	m.Recovered = false
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
	o.Object = Token{}
	o.sink, o.projected = nil, false
}
