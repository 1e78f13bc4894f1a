package model

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestRecordBasics(t *testing.T) {
	r := NewRecord("User", "u1")
	r.Set("name", "alice")
	r.Set("age", 30) // int should coerce to int64
	r.Set("tags", []string{"a", "b"})

	if got := r.String("name"); got != "alice" {
		t.Errorf("String(name) = %q", got)
	}
	if got := r.Int("age"); got != 30 {
		t.Errorf("Int(age) = %d", got)
	}
	if got := r.Strings("tags"); len(got) != 2 || got[0] != "a" {
		t.Errorf("Strings(tags) = %v", got)
	}
	if !r.Has("name") || r.Has("missing") {
		t.Error("Has misreported attribute presence")
	}
	if r.Key() != "User/id/u1" {
		t.Errorf("Key() = %q", r.Key())
	}
}

func TestRecordCloneIsDeep(t *testing.T) {
	r := NewRecord("User", "u1")
	r.Set("tags", []string{"a"})
	r.Set("nested", map[string]any{"k": "v"})
	c := r.Clone()
	c.Attrs["tags"].([]any)[0] = "mutated"
	c.Attrs["nested"].(map[string]any)["k"] = "mutated"
	if r.Attrs["tags"].([]any)[0] != "a" {
		t.Error("clone shares tags slice with original")
	}
	if r.Attrs["nested"].(map[string]any)["k"] != "v" {
		t.Error("clone shares nested map with original")
	}
}

func TestRecordProject(t *testing.T) {
	r := NewRecord("User", "u1")
	r.Set("name", "alice")
	r.Set("email", "a@example.com")
	p := r.Project([]string{"name", "missing"})
	if p.ID != "u1" || p.Model != "User" {
		t.Error("Project lost identity")
	}
	if !p.Has("name") || p.Has("email") || p.Has("missing") {
		t.Errorf("Project attrs = %v", p.Attrs)
	}
}

func TestRecordEqualNumericCrossType(t *testing.T) {
	a := NewRecord("M", "1")
	a.Set("n", int64(5))
	b := NewRecord("M", "1")
	b.Attrs["n"] = float64(5) // as decoded from JSON
	if !a.Equal(b) {
		t.Error("int64(5) and float64(5) records should be equal")
	}
	b.Attrs["n"] = float64(6)
	if a.Equal(b) {
		t.Error("different values reported equal")
	}
}

func TestCoerceWidths(t *testing.T) {
	cases := []struct {
		in   any
		want any
	}{
		{int(7), int64(7)},
		{int8(7), int64(7)},
		{uint32(7), int64(7)},
		{float32(1.5), float64(1.5)},
		{"s", "s"},
		{true, true},
		{nil, nil},
	}
	for _, c := range cases {
		if got := Coerce(c.in); got != c.want {
			t.Errorf("Coerce(%T %v) = %T %v, want %T %v", c.in, c.in, got, got, c.want, c.want)
		}
	}
	if got := Coerce([]string{"x"}).([]any); len(got) != 1 || got[0] != "x" {
		t.Errorf("Coerce([]string) = %v", got)
	}
	nested := Coerce(map[string]any{"a": int(1)}).(map[string]any)
	if nested["a"] != int64(1) {
		t.Errorf("Coerce nested int = %v", nested["a"])
	}
}

func TestDescriptorValidate(t *testing.T) {
	d := NewDescriptor("User",
		Field{Name: "name", Type: String},
		Field{Name: "age", Type: Int},
		Field{Name: "tags", Type: StringList},
	)
	r := NewRecord("User", "u1")
	r.Set("name", "alice")
	r.Set("age", 30)
	r.Set("tags", []string{"a"})
	if err := d.Validate(r); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	r.Set("age", "oops")
	if err := d.Validate(r); err == nil {
		t.Fatal("Validate accepted wrong type")
	}
	r2 := NewRecord("User", "u2")
	r2.Set("unknown", "x")
	if err := d.Validate(r2); err == nil {
		t.Fatal("Validate accepted unknown attribute")
	}
}

func TestDescriptorVirtualInValidate(t *testing.T) {
	d := NewDescriptor("User", Field{Name: "name", Type: String})
	d.DefineVirtual(&VirtualAttr{Name: "display"})
	r := NewRecord("User", "u1")
	r.Set("display", "anything")
	if err := d.Validate(r); err != nil {
		t.Fatalf("virtual attribute rejected: %v", err)
	}
}

func TestDescriptorInheritance(t *testing.T) {
	base := NewDescriptor("Content", Field{Name: "body", Type: String})
	post := NewDescriptor("Post", Field{Name: "title", Type: String})
	post.Parent = base

	if !post.HasAttr("body") || !post.HasAttr("title") {
		t.Error("inherited attribute not visible")
	}
	chain := post.TypeChain()
	if len(chain) != 2 || chain[0] != "Post" || chain[1] != "Content" {
		t.Errorf("TypeChain = %v", chain)
	}
	if !post.IsA("Content") || post.IsA("Other") {
		t.Error("IsA misreported")
	}
	r := NewRecord("Post", "p1")
	r.Set("body", "inherited field")
	if err := post.Validate(r); err != nil {
		t.Fatalf("inherited field rejected: %v", err)
	}
}

func TestDescriptorSchemaMigration(t *testing.T) {
	d := NewDescriptor("User", Field{Name: "name", Type: String})
	d.AddField(Field{Name: "email", Type: String})
	if !d.HasAttr("email") {
		t.Fatal("AddField did not register")
	}
	if !d.RemoveField("email") {
		t.Fatal("RemoveField missed existing field")
	}
	if d.HasAttr("email") {
		t.Fatal("removed field still visible")
	}
	if d.RemoveField("email") {
		t.Fatal("RemoveField hit a missing field")
	}
}

// TestSchemaChangeBesideValidate is a live schema migration (§4.3): the
// publisher adds, removes and aliases attributes while a subscriber's
// worker validates records against the same descriptor. Run it under
// -race: a field set rewritten in place is a data race here.
func TestSchemaChangeBesideValidate(t *testing.T) {
	d := NewDescriptor("User", Field{Name: "name", Type: String})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("f%d", i)
			d.AddField(Field{Name: name, Type: String})
			d.DefineVirtual(&VirtualAttr{Name: "v" + name})
			if i%2 == 0 && !d.RemoveField(name) {
				t.Errorf("RemoveField(%s) missed a field just added", name)
			}
		}
	}()
	r := NewRecord("User", "u1")
	r.Set("name", "alice")
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := d.Validate(r); err != nil {
			t.Fatalf("Validate during migration: %v", err)
		}
		if !d.HasAttr("name") || len(d.FieldNames()) == 0 {
			t.Fatal("the unchanged field vanished mid-migration")
		}
	}
	if got := len(d.Fields()); got != 101 {
		t.Errorf("%d fields after 200 adds and 100 removes, want 101", got)
	}
	r.Set("f199", "x")
	r.Set("vf0", "y")
	if err := d.Validate(r); err != nil {
		t.Errorf("Validate after migration: %v", err)
	}
}

func TestCallbacksOrderAndError(t *testing.T) {
	var cb Callbacks
	var order []int
	cb.On(BeforeCreate, func(*CallbackCtx) error { order = append(order, 1); return nil })
	cb.On(BeforeCreate, func(*CallbackCtx) error { order = append(order, 2); return nil })
	if err := cb.Run(BeforeCreate, &CallbackCtx{}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("callback order = %v", order)
	}

	wantErr := errors.New("boom")
	cb.On(AfterUpdate, func(*CallbackCtx) error { return wantErr })
	cb.On(AfterUpdate, func(*CallbackCtx) error { t.Error("ran past failing callback"); return nil })
	if err := cb.Run(AfterUpdate, &CallbackCtx{}); !errors.Is(err, wantErr) {
		t.Errorf("Run error = %v", err)
	}
	if cb.Count(BeforeCreate) != 2 {
		t.Errorf("Count = %d", cb.Count(BeforeCreate))
	}
}

func TestVirtualReadWrite(t *testing.T) {
	d := NewDescriptor("User", Field{Name: "first", Type: String}, Field{Name: "last", Type: String})
	d.DefineVirtual(&VirtualAttr{
		Name: "full",
		Get:  func(r *Record) any { return r.String("first") + " " + r.String("last") },
		Set: func(r *Record, v any) error {
			r.Set("first", v)
			return nil
		},
	})
	r := NewRecord("User", "u1")
	r.Set("first", "Ada")
	r.Set("last", "Lovelace")
	p := d.Project([]string{"full", "first", "last", "nickname"})
	if !p.Virtual() || p.Stale() {
		t.Errorf("Virtual, Stale = %v, %v on a fresh projection with a setter", p.Virtual(), p.Stale())
	}
	if got := p.Read(r); len(got) != 3 || got["full"] != "Ada Lovelace" || got["first"] != "Ada" {
		t.Errorf("Read = %v, want the getter's value, the stored ones, no absent one", got)
	}
	if err := p.Apply(r, map[string]any{"full": "Grace", "last": "Hopper", "unnamed": 1}); err != nil {
		t.Fatal(err)
	}
	if r.String("first") != "Grace" || r.String("last") != "Hopper" || r.Has("unnamed") || r.Has("full") {
		t.Errorf("Apply left %v, want the setter run, the plain one assigned, the unnamed one dropped", r.Attrs)
	}
	if k, ok := p.Key([]byte("last")); !ok || k != "last" {
		t.Errorf("Key(last) = %q, %v", k, ok)
	}
	if _, ok := p.Key([]byte("unnamed")); ok {
		t.Error("an unnamed key is named")
	}
	if part := d.Project([]string{"last"}); !part.Within(p) || p.Within(part) {
		t.Error("Within: a part must be within the whole, not the whole within a part")
	}
	d.AddField(Field{Name: "nickname", Type: String})
	if !p.Stale() {
		t.Error("AddField left the projection current")
	}
}

func TestFactoryDeterministic(t *testing.T) {
	f := &Factory{
		Model: "User",
		Build: func(seq int) map[string]any {
			return map[string]any{"name": "user", "seq": seq}
		},
	}
	a, b := f.New(3), f.New(3)
	if !a.Equal(b) {
		t.Error("factory not deterministic")
	}
	batch := f.Batch(5)
	if len(batch) != 5 || batch[4].ID != "User-4" {
		t.Errorf("Batch = %v", batch)
	}

	set := make(FactorySet)
	set.Add(f)
	if _, ok := set.For("User"); !ok {
		t.Error("FactorySet.For missed registered factory")
	}
	if _, ok := set.For("Other"); ok {
		t.Error("FactorySet.For hit unregistered factory")
	}
}

// Property: Clone is always Equal to the original, and mutating the
// clone never affects the original.
func TestQuickCloneEqual(t *testing.T) {
	check := func(name string, n int64, s string, tags []string) bool {
		r := NewRecord("M", "id")
		r.Set("name", name)
		r.Set("n", n)
		r.Set("s", s)
		r.Set("tags", tags)
		c := r.Clone()
		if !r.Equal(c) || !c.Equal(r) {
			return false
		}
		c.Set("name", name+"x")
		return r.String("name") == name
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Coerce is idempotent.
func TestQuickCoerceIdempotent(t *testing.T) {
	check := func(n int, f float64, s string, b bool) bool {
		for _, v := range []any{n, f, s, b, []string{s}, map[string]any{"k": n}} {
			once := Coerce(v)
			twice := Coerce(once)
			if !valueEqual(once, twice) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
