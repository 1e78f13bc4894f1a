package model

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
)

// FieldType enumerates the attribute types a model descriptor can declare.
// Engines use the declared type to pick native column representations;
// the wire layer uses it to validate payloads.
type FieldType int

const (
	String FieldType = iota
	Int
	Float
	Bool
	StringList // e.g. MongoDB-style array attributes (Example 3)
	Map        // nested document
	Ref        // reference to another model instance (belongs_to)
)

// String implements fmt.Stringer for diagnostics.
func (t FieldType) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case StringList:
		return "string_list"
	case Map:
		return "map"
	case Ref:
		return "ref"
	}
	return fmt.Sprintf("FieldType(%d)", int(t))
}

// Field declares one persisted attribute of a model.
type Field struct {
	Name string
	Type FieldType
	// RefModel names the target model when Type == Ref (belongs_to).
	RefModel string
	// Indexed asks the storage engine for a secondary index on this field.
	Indexed bool
}

// Descriptor describes one model: its persisted fields, virtual
// attributes, callbacks, and (for polymorphic models) its
// parent. It is the explicit Go substitute for a Ruby model class.
type Descriptor struct {
	Name string
	// Parent points at the ancestor descriptor for single-table
	// inheritance; the wire format ships the full inheritance chain so
	// subscribers can consume polymorphic models (§4.1).
	Parent *Descriptor

	Callbacks Callbacks

	// schema is copied on write by AddField, RemoveField and
	// DefineVirtual, so a live worker's Validate reads one consistent
	// set without a lock while a migration (§4.3) changes it. rev counts
	// the changes: what a Projection checks itself against.
	schema atomic.Pointer[schema]
	rev    atomic.Uint64
}

// schema is one version of a descriptor's attributes, never changed.
type schema struct {
	fields  []Field
	index   map[string]*Field
	virtual map[string]*VirtualAttr
}

// NewDescriptor builds a descriptor over the given fields.
func NewDescriptor(name string, fields ...Field) *Descriptor {
	d := &Descriptor{Name: name}
	d.publish(slices.Clone(fields), map[string]*VirtualAttr{})
	return d
}

// publish stores a schema over fields and virtual, which nothing else
// holds. Schema changes must not race each other; readers may.
func (d *Descriptor) publish(fields []Field, virtual map[string]*VirtualAttr) {
	s := &schema{fields: fields, index: make(map[string]*Field, len(fields)), virtual: virtual}
	for i := range fields {
		s.index[fields[i].Name] = &fields[i]
	}
	d.schema.Store(s)
	d.rev.Add(1)
}

// Revision changes whenever the schema of the descriptor or of an
// ancestor does (AddField, RemoveField, DefineVirtual).
func (d *Descriptor) Revision() uint64 {
	var rev uint64
	for m := d; m != nil; m = m.Parent {
		rev += m.rev.Load()
	}
	return rev
}

// Fields returns the persisted fields in declaration order. The slice
// is shared: callers must not modify it.
func (d *Descriptor) Fields() []Field { return d.schema.Load().fields }

// AddField appends a persisted field (used by live schema migrations).
func (d *Descriptor) AddField(f Field) {
	s := d.schema.Load()
	d.publish(append(slices.Clip(s.fields), f), s.virtual)
}

// RemoveField deletes a persisted field by name, returning whether it was
// present (used by live schema migrations together with virtual aliases).
func (d *Descriptor) RemoveField(name string) bool {
	s := d.schema.Load()
	i := slices.IndexFunc(s.fields, func(f Field) bool { return f.Name == name })
	if i < 0 {
		return false
	}
	d.publish(slices.Delete(slices.Clone(s.fields), i, i+1), s.virtual)
	return true
}

// Field returns the named persisted field, if declared.
func (d *Descriptor) Field(name string) (*Field, bool) {
	f, ok := d.schema.Load().index[name]
	return f, ok
}

// HasAttr reports whether the name is a persisted field or a virtual
// attribute on this descriptor or any ancestor.
func (d *Descriptor) HasAttr(name string) bool {
	_, ok := d.lookupField(name)
	return ok || d.lookupVirtual(name) != nil
}

// FieldNames returns the persisted field names in declaration order.
func (d *Descriptor) FieldNames() []string {
	fields := d.Fields()
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = f.Name
	}
	return out
}

// DefineVirtual installs a virtual attribute (programmer-provided getter
// and/or setter for an attribute not in the DB schema, §3.1).
func (d *Descriptor) DefineVirtual(v *VirtualAttr) {
	s := d.schema.Load()
	virtual := maps.Clone(s.virtual)
	virtual[v.Name] = v
	d.publish(s.fields, virtual)
}

// TypeChain returns the inheritance chain from this model up to the root,
// most-derived first — the representation shipped on the wire for
// polymorphic models.
func (d *Descriptor) TypeChain() []string {
	var out []string
	for m := d; m != nil; m = m.Parent {
		out = append(out, m.Name)
	}
	return out
}

// IsA reports whether the descriptor is the named model or inherits from it.
func (d *Descriptor) IsA(name string) bool {
	for m := d; m != nil; m = m.Parent {
		if m.Name == name {
			return true
		}
	}
	return false
}

// Validate checks the record's attributes against the declared field
// types. Unknown attributes are allowed only if declared virtual.
func (d *Descriptor) Validate(r *Record) error {
	s := d.schema.Load()
	for name, v := range r.Attrs {
		f, ok := s.index[name]
		if !ok && d.Parent != nil {
			f, ok = d.Parent.lookupField(name)
		}
		if !ok {
			if d.lookupVirtual(name) != nil {
				continue
			}
			return fmt.Errorf("model %s: unknown attribute %q", d.Name, name)
		}
		if v == nil {
			continue
		}
		if err := checkType(f.Type, v); err != nil {
			return fmt.Errorf("model %s: attribute %q: %w", d.Name, name, err)
		}
	}
	return nil
}

func (d *Descriptor) lookupField(name string) (*Field, bool) {
	for m := d; m != nil; m = m.Parent {
		if f, ok := m.schema.Load().index[name]; ok {
			return f, true
		}
	}
	return nil, false
}

func (d *Descriptor) lookupVirtual(name string) *VirtualAttr {
	for m := d; m != nil; m = m.Parent {
		if v, ok := m.schema.Load().virtual[name]; ok {
			return v
		}
	}
	return nil
}

// VirtualAttrFor returns the virtual attribute with the given name,
// searching the inheritance chain.
func (d *Descriptor) VirtualAttrFor(name string) *VirtualAttr { return d.lookupVirtual(name) }

func checkType(t FieldType, v any) error {
	switch t {
	case String:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("want string, got %T", v)
		}
	case Int:
		switch v.(type) {
		case int64, float64:
		default:
			return fmt.Errorf("want int, got %T", v)
		}
	case Float:
		switch v.(type) {
		case float64, int64:
		default:
			return fmt.Errorf("want float, got %T", v)
		}
	case Bool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("want bool, got %T", v)
		}
	case StringList:
		switch lv := v.(type) {
		case []any:
			for _, e := range lv {
				if _, ok := e.(string); !ok {
					return fmt.Errorf("want string list element, got %T", e)
				}
			}
		default:
			return fmt.Errorf("want string list, got %T", v)
		}
	case Map:
		if _, ok := v.(map[string]any); !ok {
			return fmt.Errorf("want map, got %T", v)
		}
	case Ref:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("want ref id string, got %T", v)
		}
	}
	return nil
}
