package model

import (
	"fmt"
	"sort"
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

// Association declares a has_many relationship, used by the graph adapter
// to materialize edges and by the relational engine for join-table setup.
type Association struct {
	Name   string // e.g. "friendships"
	Model  string // target model name
	FK     string // foreign-key attribute on the target model
	Mutual bool   // undirected (graph "both" association)
}

// Descriptor describes one model: its persisted fields, virtual
// attributes, associations, callbacks, and (for polymorphic models) its
// parent. It is the explicit Go substitute for a Ruby model class.
type Descriptor struct {
	Name    string
	Fields  []Field
	Virtual map[string]*VirtualAttr
	Assocs  []Association
	// Parent points at the ancestor descriptor for single-table
	// inheritance; the wire format ships the full inheritance chain so
	// subscribers can consume polymorphic models (§4.1).
	Parent *Descriptor

	Callbacks Callbacks

	fieldIndex map[string]*Field
	// rev counts AddField, RemoveField and DefineVirtual: what a value
	// compiled from the descriptor (Projection) checks itself against.
	rev atomic.Uint64
}

// NewDescriptor builds a descriptor over the given fields.
func NewDescriptor(name string, fields ...Field) *Descriptor {
	d := &Descriptor{
		Name:    name,
		Fields:  fields,
		Virtual: make(map[string]*VirtualAttr),
	}
	d.reindex()
	return d
}

func (d *Descriptor) reindex() {
	d.fieldIndex = make(map[string]*Field, len(d.Fields))
	for i := range d.Fields {
		d.fieldIndex[d.Fields[i].Name] = &d.Fields[i]
	}
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

// AddField appends a persisted field (used by live schema migrations).
func (d *Descriptor) AddField(f Field) {
	d.Fields = append(d.Fields, f)
	d.reindex()
}

// RemoveField deletes a persisted field by name, returning whether it was
// present (used by live schema migrations together with virtual aliases).
func (d *Descriptor) RemoveField(name string) bool {
	for i := range d.Fields {
		if d.Fields[i].Name == name {
			d.Fields = append(d.Fields[:i], d.Fields[i+1:]...)
			d.reindex()
			return true
		}
	}
	return false
}

// Field returns the named persisted field, if declared.
func (d *Descriptor) Field(name string) (*Field, bool) {
	f, ok := d.fieldIndex[name]
	return f, ok
}

// HasAttr reports whether the name is a persisted field or a virtual
// attribute on this descriptor or any ancestor.
func (d *Descriptor) HasAttr(name string) bool {
	for m := d; m != nil; m = m.Parent {
		if _, ok := m.fieldIndex[name]; ok {
			return true
		}
		if _, ok := m.Virtual[name]; ok {
			return true
		}
	}
	return false
}

// FieldNames returns the persisted field names in declaration order.
func (d *Descriptor) FieldNames() []string {
	out := make([]string, len(d.Fields))
	for i, f := range d.Fields {
		out[i] = f.Name
	}
	return out
}

// AttrNames returns all attribute names (persisted and virtual, including
// inherited ones), sorted.
func (d *Descriptor) AttrNames() []string {
	set := make(map[string]struct{})
	for m := d; m != nil; m = m.Parent {
		for _, f := range m.Fields {
			set[f.Name] = struct{}{}
		}
		for n := range m.Virtual {
			set[n] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefineVirtual installs a virtual attribute (programmer-provided getter
// and/or setter for an attribute not in the DB schema, §3.1).
func (d *Descriptor) DefineVirtual(v *VirtualAttr) {
	d.Virtual[v.Name] = v
	d.rev.Add(1)
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
	for name, v := range r.Attrs {
		f, ok := d.lookupField(name)
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
		if f, ok := m.fieldIndex[name]; ok {
			return f, true
		}
	}
	return nil, false
}

func (d *Descriptor) lookupVirtual(name string) *VirtualAttr {
	for m := d; m != nil; m = m.Parent {
		if v, ok := m.Virtual[name]; ok {
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
