// Package ormtest provides a conformance suite run against every ORM
// adapter, checking the common Mapper contract Synapse relies on:
// find/create/update/delete/save semantics, callback dispatch, snapshot
// iteration, and subscriber-merge behaviour.
package ormtest

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
)

// NewUserDescriptor returns the model used throughout the suite.
func NewUserDescriptor() *model.Descriptor {
	return model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "likes", Type: model.Int},
		model.Field{Name: "interests", Type: model.StringList},
	)
}

// Run exercises the full Mapper contract. publisherCapable selects
// whether Create/Update/Delete are expected to work (false for the
// subscriber-only search and graph adapters).
func Run(t *testing.T, m orm.Mapper, publisherCapable bool) {
	t.Helper()
	d := NewUserDescriptor()
	if err := m.Register(d); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if got, ok := m.Descriptor("User"); !ok || got != d {
		t.Fatal("Descriptor not registered")
	}

	t.Run("UnknownModel", func(t *testing.T) {
		if _, err := m.Find("Ghost", "1"); !errors.Is(err, orm.ErrUnknownModel) {
			t.Errorf("Find unknown model = %v", err)
		}
		rec := model.NewRecord("Ghost", "1")
		if err := m.Save(rec); !errors.Is(err, orm.ErrUnknownModel) {
			t.Errorf("Save unknown model = %v", err)
		}
	})

	t.Run("SaveFindMerge", func(t *testing.T) {
		rec := model.NewRecord("User", "s1")
		rec.Set("name", "alice")
		rec.Set("likes", 1)
		if err := m.Save(rec); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, err := m.Find("User", "s1")
		if err != nil {
			t.Fatalf("Find: %v", err)
		}
		if got.String("name") != "alice" || got.Int("likes") != 1 {
			t.Errorf("Find = %+v", got.Attrs)
		}

		// Saving a partial record merges, preserving other attributes —
		// the behaviour decorations depend on.
		partial := model.NewRecord("User", "s1")
		partial.Set("likes", 2)
		if err := m.Save(partial); err != nil {
			t.Fatalf("Save partial: %v", err)
		}
		got, _ = m.Find("User", "s1")
		if got.String("name") != "alice" {
			t.Error("partial Save clobbered other attributes")
		}
		if got.Int("likes") != 2 {
			t.Errorf("partial Save did not apply: %+v", got.Attrs)
		}
	})

	t.Run("SaveCallbacks", func(t *testing.T) {
		var calls []model.Hook
		for _, h := range []model.Hook{model.BeforeCreate, model.AfterCreate, model.BeforeUpdate, model.AfterUpdate} {
			hook := h
			d.Callbacks.On(hook, func(*model.CallbackCtx) error {
				calls = append(calls, hook)
				return nil
			})
		}
		rec := model.NewRecord("User", "cb1")
		rec.Set("name", "x")
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 2 || calls[0] != model.BeforeCreate || calls[1] != model.AfterCreate {
			t.Errorf("first save hooks = %v", calls)
		}
		calls = nil
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 2 || calls[0] != model.BeforeUpdate || calls[1] != model.AfterUpdate {
			t.Errorf("second save hooks = %v", calls)
		}
	})

	t.Run("FindMissing", func(t *testing.T) {
		if _, err := m.Find("User", "missing"); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Find missing = %v", err)
		}
	})

	t.Run("DeleteCallbacksAndRemoval", func(t *testing.T) {
		rec := model.NewRecord("User", "del1")
		rec.Set("name", "to-delete")
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
		var destroyed *model.Record
		d.Callbacks.On(model.AfterDestroy, func(ctx *model.CallbackCtx) error {
			destroyed = ctx.Record.Clone() // the record is valid for the callback only
			return nil
		})
		if err := m.Delete("User", "del1"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if destroyed == nil || destroyed.ID != "del1" || destroyed.String("name") != "to-delete" {
			t.Errorf("after_destroy callback got %+v, want the stored object", destroyed)
		}
		if _, err := m.Find("User", "del1"); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Find after Delete = %v", err)
		}
	})

	t.Run("DeleteHandsOverRow", func(t *testing.T) { runDeleteHandsOverRow(t, m) })
	t.Run("DeleteMissingRunsNoCallback", func(t *testing.T) { runDeleteMissing(t, m) })

	t.Run("EachOrderedFrom", func(t *testing.T) {
		for i := 0; i < 5; i++ {
			rec := model.NewRecord("User", fmt.Sprintf("each%02d", i))
			rec.Set("name", "n")
			if err := m.Save(rec); err != nil {
				t.Fatal(err)
			}
		}
		var ids []string
		if err := m.Each("User", "each02", func(r *model.Record) bool {
			ids = append(ids, r.ID)
			return len(ids) < 2
		}); err != nil {
			t.Fatal(err)
		}
		if len(ids) != 2 || ids[0] != "each02" || ids[1] != "each03" {
			t.Errorf("Each ids = %v", ids)
		}
		if m.Len("User") < 5 {
			t.Errorf("Len = %d", m.Len("User"))
		}
	})

	t.Run("StringListRoundTrip", func(t *testing.T) {
		rec := model.NewRecord("User", "arr1")
		rec.Set("interests", []string{"cats", "dogs"})
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
		got, err := m.Find("User", "arr1")
		if err != nil {
			t.Fatal(err)
		}
		in := got.Strings("interests")
		if len(in) != 2 || in[0] != "cats" {
			t.Errorf("interests = %v", in)
		}
	})

	t.Run("DeleteRange", func(t *testing.T) { runDeleteRange(t, m, d) })
	t.Run("StoredStateIsIsolated", func(t *testing.T) { runIsolation(t, m, publisherCapable) })
	t.Run("QueriesPerOperation", func(t *testing.T) { runQueries(t, m) })
	t.Run("SaveAllocBudget", func(t *testing.T) { runSaveAllocBudget(t, m) })
	t.Run("EachStopsEarly", func(t *testing.T) { runEachStopsEarly(t, m) })

	if publisherCapable {
		runPublisherHalf(t, m)
	} else {
		t.Run("SubscriberOnly", func(t *testing.T) {
			rec := model.NewRecord("User", "ro1")
			if _, err := m.Create(rec); !errors.Is(err, orm.ErrReadOnly) {
				t.Errorf("Create on read-only adapter = %v", err)
			}
			if _, err := m.Update(rec); !errors.Is(err, orm.ErrReadOnly) {
				t.Errorf("Update on read-only adapter = %v", err)
			}
		})
	}
}

// runDeleteHandsOverRow checks a Delete whose model has only an
// after-destroy callback: the callback sees the final state, with no read
// first where the engine's delete returns the row, and shares nothing
// with a row later stored under the id; and what the Delete allocates.
func runDeleteHandsOverRow(t *testing.T, m orm.Mapper) {
	d := model.NewDescriptor("Note", model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList})
	var seen string
	var kept map[string]any
	d.Callbacks.On(model.AfterDestroy, func(ctx *model.CallbackCtx) error {
		seen, kept = ctx.Record.ID, ctx.Record.Attrs
		return nil
	})
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	save := func(id, name string) {
		rec := model.NewRecord("Note", id)
		rec.Set("name", name)
		rec.Set("interests", []string{name})
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	save("n1", "first")
	save("n1", "final")
	// Measured allocations: 5 on every engine while each such Delete
	// loaded the object. An engine whose delete returns the row hands it
	// to the callback; the others load it first, and its copy is left.
	want, ceiling := [3]int64{0, 1, 0}, 0.0
	if e := m.Engine(); e == "mysql" || e == "cassandra" {
		want, ceiling = [3]int64{1, 1, 0}, 4
	}
	r0, w0, x0 := m.Stats().Snapshot()
	if err := m.Delete("Note", "n1"); err != nil {
		t.Fatal(err)
	}
	if r, w, x := m.Stats().Snapshot(); [3]int64{r - r0, w - w0, x - x0} != want {
		t.Errorf("Delete on %s issued (reads, writes, extra reads) = %v, want %v", m.Engine(), [3]int64{r - r0, w - w0, x - x0}, want)
	}
	if seen != "n1" || kept["name"] != "final" {
		t.Errorf("after_destroy saw %s %v, want n1's final state", seen, kept)
	}
	save("n1", "again")
	kept["name"], kept["interests"].([]any)[0] = "scribbled", "scribbled"
	if got, err := m.Find("Note", "n1"); err != nil || fmt.Sprint(got.String("name"), got.Strings("interests")) != "again[again]" {
		t.Errorf("re-created object = %+v, %v; it shares state with the destroyed one", got, err)
	}

	skipUnderRace(t)
	ids := make([]string, 101) // AllocsPerRun's warm-up and 100 runs
	for i := range ids {
		ids[i] = fmt.Sprint("a", i)
		save(ids[i], "x")
	}
	n := 0
	got := testing.AllocsPerRun(100, func() { _ = m.Delete("Note", ids[n]); n++ })
	if got > ceiling || seen != "a100" {
		t.Errorf("%s Delete with an after-destroy callback = %v allocs (last saw %s), ceiling %v", m.Engine(), got, seen, ceiling)
	}
}

// runDeleteMissing checks that a Delete of a missing object runs no
// destroy callback, whether or not the engine's delete could tell.
func runDeleteMissing(t *testing.T, m orm.Mapper) {
	d, calls := model.NewDescriptor("Phantom"), 0
	d.Callbacks.On(model.BeforeDestroy, func(*model.CallbackCtx) error { calls++; return nil })
	d.Callbacks.On(model.AfterDestroy, func(*model.CallbackCtx) error { calls++; return nil })
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("Phantom", "never"); !errors.Is(err, storage.ErrNotFound) || calls != 0 {
		t.Errorf("Delete of a missing object = %v after %d destroy callbacks, want ErrNotFound after none", err, calls)
	}
}

// runDeleteRange checks the bulk delete every adapter offers: a
// half-open id range, gone in one statement, the count returned, with
// no object loaded — so no callback fires — and the query counters
// untouched.
func runDeleteRange(t *testing.T, m orm.Mapper, d *model.Descriptor) {
	for i := 0; i < 10; i++ {
		rec := model.NewRecord("User", fmt.Sprintf("rng%02d", i))
		rec.Set("name", "n")
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	callbacks := 0
	for _, h := range []model.Hook{model.BeforeDestroy, model.AfterDestroy} {
		d.Callbacks.On(h, func(ctx *model.CallbackCtx) error {
			if len(ctx.Record.ID) > 3 && ctx.Record.ID[:3] == "rng" {
				callbacks++
			}
			return nil
		})
	}
	left := func() string {
		var ids string
		if err := m.Each("User", "rng", func(r *model.Record) bool {
			if r.ID >= "rnh" {
				return false
			}
			ids += r.ID[3:] + " "
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	reads, writes, extra := m.Stats().Snapshot()
	for _, c := range []struct {
		name, from, to string
		want           int
		left           string
	}{
		{"half-open: from goes, to stays", "rng02", "rng05", 3, "00 01 05 06 07 08 09 "},
		{"empty range", "rng07", "rng07", 0, "00 01 05 06 07 08 09 "},
		{"inverted range", "rng09", "rng01", 0, "00 01 05 06 07 08 09 "},
		{"range between ids", "rng02", "rng05", 0, "00 01 05 06 07 08 09 "},
		{"range past every id", "rnh", "rnz", 0, "00 01 05 06 07 08 09 "},
		{"bound that is no id", "rng08x", "rng99", 1, "00 01 05 06 07 08 "},
		{"everything left", "rng", "rng\xff", 6, ""},
	} {
		n, err := m.DeleteRange("User", c.from, c.to)
		if err != nil || n != c.want {
			t.Errorf("%s: DeleteRange(%q, %q) = %d, %v; want %d, nil", c.name, c.from, c.to, n, err, c.want)
		}
		r, w, x := m.Stats().Snapshot()
		if r != reads || w != writes || x != extra {
			t.Errorf("%s: DeleteRange moved the query counters", c.name)
		}
		if got := left(); got != c.left {
			t.Errorf("%s: ids left %q, want %q", c.name, got, c.left)
		}
		reads, writes, extra = m.Stats().Snapshot() // left() scanned
	}
	if callbacks != 0 {
		t.Errorf("DeleteRange fired %d destroy callbacks, want none", callbacks)
	}
	if _, err := m.Find("User", "s1"); err != nil {
		t.Errorf("DeleteRange reached outside its range: %v", err)
	}
	if _, err := m.DeleteRange("Ghost", "a", "b"); !errors.Is(err, orm.ErrUnknownModel) {
		t.Errorf("DeleteRange on an unknown model = %v", err)
	}
	// A deleted id is free again.
	rec := model.NewRecord("User", "rng03")
	rec.Set("name", "back")
	if err := m.Save(rec); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Find("User", "rng03"); err != nil || got.String("name") != "back" {
		t.Errorf("re-created object = %+v, %v", got, err)
	}
	if _, err := m.DeleteRange("User", "rng03", "rng04"); err != nil {
		t.Fatal(err)
	}
}

// runIsolation checks the row-ownership rule from above the adapter,
// which makes no copy of its own: what is stored shares nothing, nested
// values included, with a record a caller wrote or was handed.
func runIsolation(t *testing.T, m orm.Mapper, publisherCapable bool) {
	scribble := func(rec *model.Record) {
		if in, ok := rec.Attrs["interests"].([]any); ok && len(in) > 0 {
			in[0] = "scribbled"
		}
		rec.Attrs["name"], rec.Attrs["interests"] = "scribbled", "scribbled"
	}
	writes := []func(*model.Record) (*model.Record, error){
		func(rec *model.Record) (*model.Record, error) { return nil, m.Save(rec) }, // creates
		func(rec *model.Record) (*model.Record, error) { return nil, m.Save(rec) }, // updates
	}
	if publisherCapable {
		writes = append(writes, func(rec *model.Record) (*model.Record, error) {
			if err := m.Delete("User", "iso1"); err != nil {
				return nil, err
			}
			return m.Create(rec)
		}, m.Update)
	}
	for i, write := range writes {
		stored := func(after string) *model.Record {
			t.Helper()
			got, err := m.Find("User", "iso1")
			if err != nil {
				t.Fatal(err)
			}
			if have, want := fmt.Sprint(got.String("name"), got.Strings("interests")), fmt.Sprintf("alice[interest%d]", i); have != want {
				t.Errorf("write %d: after %s the stored object reads %s, want %s", i, after, have, want)
			}
			return got
		}
		rec := model.NewRecord("User", "iso1")
		rec.Set("name", "alice")
		rec.Set("interests", []string{fmt.Sprint("interest", i)})
		written, err := write(rec)
		if err != nil {
			t.Fatal(err)
		}
		scribble(rec)
		if written != nil {
			scribble(written)
		}
		scribble(stored("the writer scribbled on its record and on the written one"))
		if err := m.Each("User", "iso1", func(rec *model.Record) bool {
			scribble(rec)
			return false
		}); err != nil {
			t.Fatal(err)
		}
		stored("readers scribbled on what Find and Each handed them")
	}
}

// runQueries pins the (reads, writes, extra reads) every operation adds
// to orm.Stats — what Fig 13's latency profiles charge for. Vendors
// differ only in what a write query reports back (§4.1): the row; a
// status, so Create and Update read it back (MySQL); or nothing, so they
// check existence first too, and so does a Delete (Cassandra).
// Subscriber-only ones refuse both. A Delete loads the object only for a
// destroy callback, which User has by now and Tag has not.
func runQueries(t *testing.T, m orm.Mapper) {
	type queries [3]int64
	publish, bareDelete := queries{0, 1, 0}, queries{0, 1, 0}
	switch m.Engine() {
	case "mysql":
		publish = queries{0, 1, 1}
	case "cassandra":
		publish, bareDelete = queries{1, 1, 1}, queries{1, 1, 0}
	case "elasticsearch", "neo4j":
		publish = queries{}
	}
	if err := errors.Join(m.Register(model.NewDescriptor("Tag")), m.Save(model.NewRecord("Tag", "t1"))); err != nil {
		t.Fatal(err)
	}
	rec := func(id string) *model.Record { return model.NewRecord("User", id) }
	for _, step := range []struct {
		op   string
		run  func() error
		want queries
	}{
		{"Save-create", func() error { return m.Save(rec("q1")) }, queries{1, 1, 0}},
		{"Save-update", func() error { return m.Save(rec("q1")) }, queries{1, 1, 0}},
		{"Find", func() error { _, err := m.Find("User", "q1"); return err }, queries{1, 0, 0}},
		{"Each", func() error { return m.Each("User", "q1", func(*model.Record) bool { return false }) }, queries{1, 0, 0}},
		{"Create", func() error { _, err := m.Create(rec("q2")); return err }, publish},
		{"Update", func() error { _, err := m.Update(rec("q2")); return err }, publish},
		{"Delete", func() error { return m.Delete("User", "q1") }, queries{1, 1, 0}},
		{"Delete-no-callback", func() error { return m.Delete("Tag", "t1") }, bareDelete},
		{"DeleteRange", func() error { _, err := m.DeleteRange("User", "q", "r"); return err }, queries{}},
	} {
		r0, w0, x0 := m.Stats().Snapshot()
		if err := step.run(); err != nil && !errors.Is(err, orm.ErrReadOnly) {
			t.Fatalf("%s: %v", step.op, err)
		}
		r, w, x := m.Stats().Snapshot()
		if got := (queries{r - r0, w - w0, x - x0}); got != step.want {
			t.Errorf("%s on %s issued (reads, writes, extra reads) = %v, want %v", step.op, m.Engine(), got, step.want)
		}
	}
}

// saveAllocCeiling is what Save may allocate when it updates a stored
// object of four attributes: the measured count (9, 11, 13, 25 and 8
// when each adapter copied records into its engine's row shape; 2 on
// PostgreSQL and Oracle and on the document stores while Save took the
// written row back; 4 on Elasticsearch while a keyword value was
// analyzed into a slice). Left is the graph node's id.
var saveAllocCeiling = map[string]float64{
	"activerecord": 0, "documentorm": 0, "columnorm": 0, "searchorm": 0, "graphorm": 1,
}

func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates on its own account")
			}
		}
	}
}

// runEachStopsEarly checks that a scan copies a row only as it hands it
// over: an Each that stops at its first row allocates as much over 2,000
// rows as over 100.
func runEachStopsEarly(t *testing.T, m orm.Mapper) {
	skipUnderRace(t)
	if err := m.Register(model.NewDescriptor("Item")); err != nil {
		t.Fatal(err)
	}
	var allocs []float64
	for n := 1; n <= 2000; n++ {
		if err := m.Save(model.NewRecord("Item", fmt.Sprintf("i%05d", n))); err != nil {
			t.Fatal(err)
		}
		if n == 100 || n == 2000 {
			allocs = append(allocs, testing.AllocsPerRun(20, func() {
				_ = m.Each("Item", "", func(*model.Record) bool { return false })
			}))
		}
	}
	if allocs[1] != allocs[0] {
		t.Errorf("%s: an Each that stops at its first row = %v allocs over 100 rows, %v over 2,000", m.Name(), allocs[0], allocs[1])
	}
}

func runSaveAllocBudget(t *testing.T, m orm.Mapper) {
	skipUnderRace(t)
	// A model of its own: the suite has hung callbacks on User by now.
	d := model.NewDescriptor("Post")
	rec := model.NewRecord("Post", "p1")
	for _, name := range []string{"title", "body", "author", "category"} {
		d.AddField(model.Field{Name: name, Type: model.String})
		rec.Set(name, "four attributes")
	}
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(rec); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
	})
	if got > saveAllocCeiling[m.Name()] {
		t.Errorf("%s Save of a stored object = %v allocs, ceiling %v", m.Name(), got, saveAllocCeiling[m.Name()])
	}
}

func runPublisherHalf(t *testing.T, m orm.Mapper) {
	t.Helper()
	t.Run("CreateReturnsWritten", func(t *testing.T) {
		rec := model.NewRecord("User", "c1")
		rec.Set("name", "bob")
		written, err := m.Create(rec)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if written.ID != "c1" || written.String("name") != "bob" {
			t.Errorf("written = %+v", written)
		}
		if _, err := m.Create(rec); !errors.Is(err, storage.ErrExists) {
			t.Errorf("duplicate Create = %v", err)
		}
	})

	t.Run("UpdateReturnsFullObject", func(t *testing.T) {
		rec := model.NewRecord("User", "u1")
		rec.Set("name", "carol")
		rec.Set("likes", 1)
		if _, err := m.Create(rec); err != nil {
			t.Fatal(err)
		}
		patch := model.NewRecord("User", "u1")
		patch.Set("likes", 7)
		written, err := m.Update(patch)
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		// The read-back must include attributes not in the patch.
		if written.String("name") != "carol" || written.Int("likes") != 7 {
			t.Errorf("update read-back = %+v", written.Attrs)
		}
	})

	t.Run("UpdateMissing", func(t *testing.T) {
		patch := model.NewRecord("User", "nope")
		patch.Set("likes", 1)
		if _, err := m.Update(patch); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Update missing = %v", err)
		}
	})

	t.Run("DeleteMissing", func(t *testing.T) {
		if err := m.Delete("User", "never"); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Delete missing = %v", err)
		}
	})

	t.Run("ValidationRejects", func(t *testing.T) {
		rec := model.NewRecord("User", "bad1")
		rec.Set("likes", "not-an-int")
		if _, err := m.Create(rec); err == nil {
			t.Error("Create accepted invalid attribute type")
		}
	})

	t.Run("BeforeCreateAborts", func(t *testing.T) {
		d, _ := m.Descriptor("User")
		boom := errors.New("rejected")
		d.Callbacks.On(model.BeforeCreate, func(ctx *model.CallbackCtx) error {
			if ctx.Record.String("name") == "forbidden" {
				return boom
			}
			return nil
		})
		rec := model.NewRecord("User", "abort1")
		rec.Set("name", "forbidden")
		if _, err := m.Create(rec); !errors.Is(err, boom) {
			t.Errorf("Create with failing before hook = %v", err)
		}
		if _, err := m.Find("User", "abort1"); !errors.Is(err, storage.ErrNotFound) {
			t.Error("aborted create persisted the record")
		}
	})
}
