package orm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"synapse/internal/model"
	"synapse/internal/storage"
)

func TestTableize(t *testing.T) {
	cases := map[string]string{
		"User":       "users",
		"Friendship": "friendships",
		"Activity":   "activities",
		"Boy":        "boys", // vowel before y
		"Class":      "classes",
		"Box":        "boxes",
		"Match":      "matches",
		"Dish":       "dishes",
		"Post":       "posts",
	}
	for in, want := range cases {
		if got := Tableize(in); got != want {
			t.Errorf("Tableize(%q) = %q, want %q", in, got, want)
		}
	}
}

// Tableize is memoised: a repeated name costs no allocation, the memo
// agrees with the derivation for names met concurrently for the first
// time, and it stops growing at its cap without changing a result.
func TestTableizeMemo(t *testing.T) {
	Tableize("Comment")
	if n := testing.AllocsPerRun(100, func() { Tableize("Comment") }); n != 0 {
		t.Errorf("memoised Tableize = %v allocs/op, want 0", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tableNamesMax+200; i++ {
				name := fmt.Sprintf("Model%dy", i)
				if got, want := Tableize(name), tableize(name); got != want {
					t.Errorf("Tableize(%q) = %q, want %q", name, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(*tableNames.Load()); n > tableNamesMax {
		t.Errorf("memo holds %d names, cap is %d", n, tableNamesMax)
	}
}

func TestRegistryDescriptor(t *testing.T) {
	var r Registry
	d := model.NewDescriptor("User", model.Field{Name: "name", Type: model.String})
	if err := r.Register(d); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Descriptor("User")
	if !ok || got != d {
		t.Fatal("Descriptor lookup failed")
	}
	if _, ok := r.Descriptor("Missing"); ok {
		t.Fatal("Descriptor hit unregistered model")
	}
}

type fakeHost struct {
	boot bool
	env  map[string]any
}

func (h *fakeHost) Bootstrapping() bool { return h.boot }
func (h *fakeHost) Env() map[string]any { return h.env }

func TestRunCallbacksHostContext(t *testing.T) {
	var r Registry
	d := model.NewDescriptor("User", model.Field{Name: "name", Type: model.String})
	var sawBoot bool
	var sawEnv map[string]any
	d.Callbacks.On(model.AfterCreate, func(ctx *model.CallbackCtx) error {
		sawBoot = ctx.Bootstrapping
		sawEnv = ctx.Env
		return nil
	})
	r.RegisterAs(d, "users")

	rec := model.NewRecord("User", "u1")
	// Without a host: not bootstrapping, no env.
	if err := r.RunCallbacks(model.AfterCreate, rec); err != nil {
		t.Fatal(err)
	}
	if sawBoot || sawEnv != nil {
		t.Error("nil host leaked context")
	}
	// With a host.
	env := map[string]any{"outbox": []string{}}
	r.SetHost(&fakeHost{boot: true, env: env})
	if err := r.RunCallbacks(model.AfterCreate, rec); err != nil {
		t.Fatal(err)
	}
	if !sawBoot {
		t.Error("bootstrap flag not propagated")
	}
	if len(sawEnv) != 1 {
		t.Error("env not propagated")
	}
}

func TestRunCallbacksUnknownModel(t *testing.T) {
	var r Registry
	rec := model.NewRecord("Ghost", "1")
	if err := r.RunCallbacks(model.AfterCreate, rec); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("RunCallbacks unknown model = %v", err)
	}
}

func TestStatsSnapshot(t *testing.T) {
	var s Stats
	s.Reads.Add(2)
	s.Writes.Add(3)
	s.ExtraReads.Add(1)
	r, w, x := s.Snapshot()
	if r != 2 || w != 3 || x != 1 {
		t.Errorf("Snapshot = %d %d %d", r, w, x)
	}
}

// memBinding is the smallest engine a Binding can front: one map, obeying
// the row-ownership rule. strict makes Insert and Update refuse a stored
// or a missing row themselves; without it they are upserts.
type memBinding struct {
	rows      map[string]storage.Row
	strict    bool
	returning bool
}

func (b *memBinding) Get(_, id string) (storage.Row, error) {
	row, ok := b.rows[id]
	if !ok {
		return storage.Row{}, storage.ErrNotFound
	}
	return row.Clone(), nil
}

func (b *memBinding) Exists(_, id string) (bool, error) {
	_, ok := b.rows[id]
	return ok, nil
}

func (b *memBinding) write(row storage.Row, update, returning bool) (storage.Row, error) {
	stored, ok := b.rows[row.ID]
	switch {
	case b.strict && ok && !update:
		return storage.Row{}, storage.ErrExists
	case b.strict && update && !ok:
		return storage.Row{}, storage.ErrNotFound
	case !ok:
		stored = storage.Row{ID: row.ID, Cols: map[string]any{}}
		b.rows[row.ID] = stored
	}
	for k, v := range row.Cols {
		stored.Cols[k] = storage.CloneValue(v)
	}
	if b.returning && returning {
		return stored.Clone(), nil
	}
	return storage.Row{}, nil
}

func (b *memBinding) Insert(_ string, row storage.Row, returning bool) (storage.Row, error) {
	return b.write(row, false, returning)
}

func (b *memBinding) Update(_ string, row storage.Row, returning bool) (storage.Row, error) {
	return b.write(row, true, returning)
}

func (b *memBinding) Delete(_, id string) (storage.Row, error) {
	row, ok := b.rows[id]
	if !ok && b.strict {
		return storage.Row{}, storage.ErrNotFound
	}
	delete(b.rows, id)
	if !b.returning {
		row = storage.Row{}
	}
	return row, nil
}

func (b *memBinding) DeleteRange(_, from, to string) (int, error) { return 0, nil }

func (b *memBinding) ScanFrom(_, from string, fn func(storage.Row) bool) error { return nil }

func (b *memBinding) Len(string) int { return len(b.rows) }

// The skeleton's three ways of publishing a write, over a fake engine:
// what each costs in queries, and that a duplicate Create and an Update
// or Delete of a missing object are refused on every one of them — by the
// engine where it can tell, by the skeleton's probe where it cannot.
func TestPublishPerWrittenLevel(t *testing.T) {
	for _, c := range []struct {
		name    string
		written Written
		b       *memBinding
		want    [3]int64 // reads, writes, extra reads of one Create
	}{
		{"row", WrittenRow, &memBinding{strict: true, returning: true}, [3]int64{0, 1, 0}},
		{"status", WrittenStatus, &memBinding{strict: true}, [3]int64{0, 1, 1}},
		{"nothing", WrittenNothing, &memBinding{}, [3]int64{1, 1, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.b.rows = make(map[string]storage.Row)
			var r Registry
			r.Bind(Traits{ORM: "fake", Vendor: c.name, Publisher: true, Written: c.written}, c.b)
			if err := r.Register(model.NewDescriptor("User", model.Field{Name: "name", Type: model.String})); err != nil {
				t.Fatal(err)
			}
			rec := model.NewRecord("User", "u1")
			rec.Set("name", "a")
			written, err := r.Create(rec)
			if err != nil || written == rec || written.String("name") != "a" {
				t.Fatalf("Create = %+v, %v; want a record of its own", written, err)
			}
			if reads, writes, extra := r.Stats().Snapshot(); [3]int64{reads, writes, extra} != c.want {
				t.Errorf("Create issued %v, want %v", [3]int64{reads, writes, extra}, c.want)
			}
			if _, err := r.Create(rec); !errors.Is(err, storage.ErrExists) {
				t.Errorf("duplicate Create = %v", err)
			}
			missing := model.NewRecord("User", "nope")
			if _, err := r.Update(missing); !errors.Is(err, storage.ErrNotFound) {
				t.Errorf("Update of a missing object = %v", err)
			}
			if err := r.Delete("User", "nope"); !errors.Is(err, storage.ErrNotFound) {
				t.Errorf("Delete of a missing object = %v", err)
			}
			if r.Len("User") != 1 {
				t.Errorf("Len = %d after the refused writes, want 1", r.Len("User"))
			}
		})
	}
	var ro Registry
	ro.Bind(Traits{ORM: "fake", Vendor: "read-only"}, &memBinding{})
	if _, err := ro.Create(model.NewRecord("User", "u1")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Create on a subscriber-only engine = %v", err)
	}
}
