package model

// VirtualAttr is a programmer-provided attribute that is not part of the
// DB schema (§3.1). On the publisher, Get computes the value to marshal;
// on the subscriber, Set consumes the received value (e.g. to maintain a
// join table, Example 3 / Fig 7). Either side may be nil when unused.
// A Projection compiles which attributes go through one.
type VirtualAttr struct {
	Name string
	Get  func(r *Record) any
	Set  func(r *Record, v any) error
}
