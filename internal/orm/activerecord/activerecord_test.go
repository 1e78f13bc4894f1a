package activerecord

import (
	"errors"
	"fmt"
	"testing"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/orm/ormtest"
	"synapse/internal/storage"
	"synapse/internal/storage/reldb"
)

func TestConformancePostgres(t *testing.T) {
	ormtest.Run(t, New(reldb.New(reldb.Postgres)), true)
}

func TestConformanceMySQL(t *testing.T) {
	ormtest.Run(t, New(reldb.New(reldb.MySQL)), true)
}

func TestConformanceOracle(t *testing.T) {
	ormtest.Run(t, New(reldb.New(reldb.Oracle)), true)
}

func TestMySQLExtraReadQueries(t *testing.T) {
	pg := New(reldb.New(reldb.Postgres))
	my := New(reldb.New(reldb.MySQL))
	d := ormtest.NewUserDescriptor()
	if err := pg.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := my.Register(ormtest.NewUserDescriptor()); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Mapper{pg, my} {
		rec := model.NewRecord("User", "u1")
		rec.Set("name", "a")
		if _, err := m.Create(rec); err != nil {
			t.Fatal(err)
		}
		patch := model.NewRecord("User", "u1")
		patch.Set("likes", 3)
		if _, err := m.Update(patch); err != nil {
			t.Fatal(err)
		}
	}
	_, _, pgExtra := pg.Stats().Snapshot()
	_, _, myExtra := my.Stats().Snapshot()
	if pgExtra != 0 {
		t.Errorf("postgres extra reads = %d, want 0 (RETURNING)", pgExtra)
	}
	if myExtra != 2 {
		t.Errorf("mysql extra reads = %d, want 2 (no RETURNING)", myExtra)
	}
}

func TestInheritanceColumns(t *testing.T) {
	m := New(reldb.New(reldb.Postgres))
	base := model.NewDescriptor("Content", model.Field{Name: "body", Type: model.String})
	post := model.NewDescriptor("Post", model.Field{Name: "title", Type: model.String})
	post.Parent = base
	if err := m.Register(post); err != nil {
		t.Fatal(err)
	}
	rec := model.NewRecord("Post", "p1")
	rec.Set("title", "t")
	rec.Set("body", "inherited column")
	if _, err := m.Create(rec); err != nil {
		t.Fatalf("inherited column write: %v", err)
	}
}

func TestReRegisterAfterMigrationIsIdempotent(t *testing.T) {
	db := reldb.New(reldb.Postgres)
	m := New(db)
	d := ormtest.NewUserDescriptor()
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(d); err != nil {
		t.Fatalf("re-register: %v", err)
	}
}

func TestTxCommitReturnsWrittenRecords(t *testing.T) {
	m := New(reldb.New(reldb.Postgres))
	if err := m.Register(ormtest.NewUserDescriptor()); err != nil {
		t.Fatal(err)
	}
	seed := model.NewRecord("User", "u0")
	seed.Set("name", "seed")
	seed.Set("likes", 1)
	if _, err := m.Create(seed); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "a")
	if err := tx.Create(rec); err != nil {
		t.Fatal(err)
	}
	patch := model.NewRecord("User", "u0")
	patch.Set("likes", 9)
	if err := tx.Update(patch); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("User", "u0"); err == nil {
		// Deleting the row we just updated in the same tx is legal.
	} else {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	written, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 3 {
		t.Fatalf("written = %d records", len(written))
	}
	if written[0].ID != "u1" || written[0].String("name") != "a" {
		t.Errorf("written[0] = %+v", written[0])
	}
	// Update read-back carries non-patched attributes.
	if written[1].String("name") != "seed" || written[1].Int("likes") != 9 {
		t.Errorf("written[1] = %+v", written[1].Attrs)
	}
	if written[2] != nil { // a deleted object's slot
		t.Errorf("written[2] = %+v, want nil", written[2])
	}
	if _, err := m.Find("User", "u0"); !errors.Is(err, storage.ErrNotFound) {
		t.Error("tx delete not applied")
	}
}

// TestTxDestroyLoadsNothing: a transaction's delete loads nothing, so
// its destroy callbacks get an id-only record; the deleted object's slot
// in Commit's result is nil, with callbacks or without; and the delete is
// one write query and no read, on every flavour.
func TestTxDestroyLoadsNothing(t *testing.T) {
	for _, f := range []reldb.Flavor{reldb.Postgres, reldb.MySQL, reldb.Oracle} {
		m := New(reldb.New(f))
		var seen []string
		withCallbacks := model.NewDescriptor("Doomed", model.Field{Name: "name", Type: model.String})
		for _, h := range []model.Hook{model.BeforeDestroy, model.AfterDestroy} {
			withCallbacks.Callbacks.On(h, func(ctx *model.CallbackCtx) error {
				seen = append(seen, fmt.Sprintf("%s %s attrs=%d", h, ctx.Record.ID, len(ctx.Record.Attrs)))
				return nil
			})
		}
		for _, d := range []*model.Descriptor{withCallbacks, model.NewDescriptor("Plain", model.Field{Name: "name", Type: model.String})} {
			if err := m.Register(d); err != nil {
				t.Fatal(err)
			}
			rec := model.NewRecord(d.Name, "x1")
			rec.Set("name", "final")
			if err := m.Save(rec); err != nil {
				t.Fatal(err)
			}
			r0, w0, x0 := m.Stats().Snapshot()
			tx := m.Begin()
			if err := tx.Delete(d.Name, "x1"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Prepare(); err != nil {
				t.Fatal(err)
			}
			out, err := tx.Commit()
			if err != nil || len(out) != 1 || out[0] != nil {
				t.Errorf("%s: Commit of a %s delete = %v, %v; want one nil slot", f.Name, d.Name, out, err)
			}
			if r, w, x := m.Stats().Snapshot(); [3]int64{r - r0, w - w0, x - x0} != [3]int64{0, 1, 0} {
				t.Errorf("%s: a %s delete issued (reads, writes, extra reads) = %v, want [0 1 0]", f.Name, d.Name, [3]int64{r - r0, w - w0, x - x0})
			}
			if _, err := m.Find(d.Name, "x1"); !errors.Is(err, storage.ErrNotFound) {
				t.Errorf("%s: Find after a committed %s delete = %v", f.Name, d.Name, err)
			}
		}
		if want := []string{"before_destroy x1 attrs=0", "after_destroy x1 attrs=0"}; fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Errorf("%s: destroy callbacks saw %q, want %q", f.Name, seen, want)
		}
	}
}

func TestTxAbortDiscards(t *testing.T) {
	m := New(reldb.New(reldb.Postgres))
	if err := m.Register(ormtest.NewUserDescriptor()); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "a")
	if err := tx.Create(rec); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if _, err := m.Find("User", "u1"); !errors.Is(err, storage.ErrNotFound) {
		t.Error("aborted tx persisted data")
	}
}

func TestTxAfterCallbacksRunOnCommit(t *testing.T) {
	m := New(reldb.New(reldb.Postgres))
	d := ormtest.NewUserDescriptor()
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	var afters int
	d.Callbacks.On(model.AfterCreate, func(*model.CallbackCtx) error {
		afters++
		return nil
	})
	tx := m.Begin()
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "a")
	if err := tx.Create(rec); err != nil {
		t.Fatal(err)
	}
	if afters != 0 {
		t.Fatal("after_create ran before commit")
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if afters != 1 {
		t.Fatalf("after_create ran %d times", afters)
	}
}

// DeleteRange goes through the engine's own delete path: secondary
// index entries go with the rows.
func TestDeleteRangeCleansSecondaryIndex(t *testing.T) {
	m := New(reldb.New(reldb.Postgres))
	d := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "team", Type: model.String, Indexed: true},
	)
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a1", "a2", "b1"} {
		rec := model.NewRecord("User", id)
		rec.Set("team", "red")
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := m.DeleteRange("User", "a", "b"); n != 2 || err != nil {
		t.Fatalf("DeleteRange = %d, %v", n, err)
	}
	rows, err := m.DB().Select("users", storage.Predicate{Field: "team", Op: storage.Eq, Value: "red"})
	if err != nil || len(rows) != 1 || rows[0].ID != "b1" {
		t.Errorf("index lookup after DeleteRange = %+v, %v; want only b1", rows, err)
	}
}

// The journal record staged into a prepared transaction commits with
// it, but is not an operation of the caller's: no read-back, no
// callback, not among the returned records.
func TestStageJournalIsNotReadBack(t *testing.T) {
	m := New(reldb.New(reldb.Postgres))
	if err := m.Register(ormtest.NewUserDescriptor()); err != nil {
		t.Fatal(err)
	}
	jd := model.NewDescriptor("Journal", model.Field{Name: "payload", Type: model.String})
	if err := m.Register(jd); err != nil {
		t.Fatal(err)
	}
	callbacks := 0
	for _, h := range []model.Hook{model.BeforeCreate, model.AfterCreate} {
		jd.Callbacks.On(h, func(*model.CallbackCtx) error { callbacks++; return nil })
	}
	stage := func(user, id string) ([]*model.Record, error) {
		tx := m.Begin()
		rec := model.NewRecord("User", user)
		rec.Set("name", "a")
		if err := tx.Create(rec); err != nil {
			t.Fatal(err)
		}
		if err := tx.Prepare(); err != nil {
			t.Fatal(err)
		}
		entry := model.NewRecord("Journal", id)
		entry.Set("payload", "p-"+id)
		if err := tx.(orm.TxJournaler).StageJournal(entry); err != nil {
			tx.Abort()
			return nil, err
		}
		return tx.Commit()
	}
	written, err := stage("u1", "j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 1 || written[0].ID != "u1" {
		t.Errorf("Commit returned %+v, want the one data write", written)
	}
	if callbacks != 0 {
		t.Errorf("%d callbacks ran for the journal record", callbacks)
	}
	if got, err := m.Find("Journal", "j1"); err != nil || got.String("payload") != "p-j1" {
		t.Errorf("journal row = %+v, %v", got, err)
	}
	// An id that is already stored is refused at staging, so that Commit
	// still cannot fail — and the data write aborts with it.
	if _, err := stage("u2", "j1"); !errors.Is(err, storage.ErrExists) {
		t.Errorf("staging a stored id = %v, want ErrExists", err)
	}
	if _, err := m.Find("User", "u2"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("the refused transaction's data write persisted: %v", err)
	}
}

// What a transaction stores shares nothing with the records staged into
// it or the records its Commit returns, nested values included (outside
// a transaction: ormtest's StoredStateIsIsolated). An update's
// attributes are borrowed until Commit, which copies them in.
func TestStoredStateIsIsolated(t *testing.T) {
	m := New(reldb.New(reldb.Postgres))
	if err := m.Register(ormtest.NewUserDescriptor()); err != nil {
		t.Fatal(err)
	}
	stored := func(id string) string {
		t.Helper()
		got, err := m.Find("User", id)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(got.String("name"), got.Strings("interests"))
	}
	scribble := func(rec *model.Record) {
		rec.Attrs["name"] = "scribbled"
		if in, ok := rec.Attrs["interests"].([]any); ok && len(in) > 0 {
			in[0] = "scribbled"
		}
	}
	newRec := func(id, interest string) *model.Record {
		rec := model.NewRecord("User", id)
		rec.Set("name", "alice")
		rec.Set("interests", []string{interest})
		return rec
	}
	if err := m.Save(newRec("c1", "dogs")); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	created, patched := newRec("t1", "cats"), newRec("c1", "birds")
	if err := tx.Create(created); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(patched); err != nil {
		t.Fatal(err)
	}
	scribble(created) // between staging and commit
	out, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	scribble(patched) // an update's attributes are borrowed until Commit
	for _, r := range out {
		scribble(r)
	}
	if a, b := stored("t1"), stored("c1"); a != "alice[cats]" || b != "alice[birds]" {
		t.Errorf("a transaction shares state with its arguments or results: stored %s, %s", a, b)
	}
}
