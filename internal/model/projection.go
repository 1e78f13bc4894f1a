package model

import (
	"maps"
	"slices"
	"strings"
)

// Projection is a list of attribute names compiled once against a
// descriptor — a lens between a model and the wire in the sense of the
// co-existing-schemas work (PAPERS.md), both directions: which keys a
// message carries, the one string used for each, and the virtual getter
// or setter a value goes through, if any (§3.1, §4.1). Everything a
// publish or a delivery used to look up per attribute is decided here;
// Stale says when to compile again.
type Projection struct {
	Desc *Descriptor

	rev     uint64
	attrs   map[string]projected
	sorted  []projected // attrs in name order: the order a message carries them in
	virtual bool        // some attribute lands through a setter
}

type projected struct {
	name string                   // the map key: the one string a decode uses for it
	get  func(*Record) any        // nil: the stored attribute
	set  func(*Record, any) error // nil: plain assignment
}

// Project compiles the named attributes of the descriptor.
func (d *Descriptor) Project(names []string) *Projection {
	p := &Projection{Desc: d, rev: d.Revision(), attrs: make(map[string]projected, len(names))}
	for _, name := range names {
		a := projected{name: name}
		if v := d.lookupVirtual(name); v != nil {
			a.get, a.set = v.Get, v.Set
			p.virtual = p.virtual || v.Set != nil
		}
		p.attrs[name] = a
	}
	p.sorted = slices.SortedFunc(maps.Values(p.attrs), func(a, b projected) int { return strings.Compare(a.name, b.name) })
	return p
}

// Stale reports whether the descriptor's schema changed since Project.
func (p *Projection) Stale() bool { return p.rev != p.Desc.Revision() }

// Read is the publishing direction: the named attributes of the record
// as a message carries them — virtual getters computed, stored
// attributes as they are, absent ones left out.
func (p *Projection) Read(rec *Record) map[string]any {
	out := make(map[string]any, len(p.attrs))
	p.Each(rec, func(name string, v any) error {
		out[name] = v
		return nil
	})
	return out
}

// Each is Read without the map: it hands fn the attributes Read would
// put in it, in name order, and stops at fn's first error. A publisher's
// encoder reads a record through it.
func (p *Projection) Each(rec *Record, fn func(name string, v any) error) error {
	for _, a := range p.sorted {
		v, ok := rec.Attrs[a.name]
		if a.get != nil {
			v, ok = Coerce(a.get(rec)), true
		}
		if !ok {
			continue
		}
		if err := fn(a.name, v); err != nil {
			return err
		}
	}
	return nil
}

// Has reports whether the projection names the attribute.
func (p *Projection) Has(name string) bool {
	_, ok := p.attrs[name]
	return ok
}

// Key returns the projection's own string for a wire key it names, so
// that a decoder copies no key (the map index does not allocate).
func (p *Projection) Key(raw []byte) (string, bool) {
	a, ok := p.attrs[string(raw)]
	return a.name, ok
}

// Virtual reports whether any named attribute lands through a setter:
// received attributes are then not the record's own (see Apply).
func (p *Projection) Virtual() bool { return p.virtual }

// Within reports whether q names every attribute p names, so that what
// was received through q is enough for p.
func (p *Projection) Within(q *Projection) bool {
	for k := range p.attrs {
		if _, ok := q.attrs[k]; !ok {
			return false
		}
	}
	return true
}

// Apply is the subscribing direction: it lands the named ones among the
// received attributes on the record — through the virtual setter that
// adapts a mismatched schema (Example 3), or by plain assignment.
func (p *Projection) Apply(rec *Record, attrs map[string]any) error {
	for k, v := range attrs {
		a, ok := p.attrs[k]
		switch {
		case !ok:
		case a.set != nil:
			if err := a.set(rec, v); err != nil {
				return err
			}
		default:
			rec.Set(a.name, v)
		}
	}
	return nil
}
