package reldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"synapse/internal/storage"
)

func newUserDB(t *testing.T, f Flavor) *DB {
	t.Helper()
	db := New(f)
	if err := db.CreateTable("users",
		Column{Name: "name"},
		Column{Name: "email", Indexed: true},
		Column{Name: "age"},
	); err != nil {
		t.Fatal(err)
	}
	return db
}

func row(id string, cols map[string]any) storage.Row {
	return storage.Row{ID: id, Cols: cols}
}

func TestInsertGet(t *testing.T) {
	db := newUserDB(t, Postgres)
	ret, err := db.Insert("users", row("u1", map[string]any{"name": "alice", "age": int64(30)}), true)
	if err != nil {
		t.Fatal(err)
	}
	if ret.ID != "u1" || ret.Cols["name"] != "alice" {
		t.Errorf("RETURNING row = %+v", ret)
	}
	got, err := db.Get("users", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Cols["age"] != int64(30) {
		t.Errorf("Get = %+v", got)
	}
}

func TestMySQLNoReturning(t *testing.T) {
	db := newUserDB(t, MySQL)
	ret, err := db.Insert("users", row("u1", map[string]any{"name": "alice"}), true)
	if err != nil {
		t.Fatal(err)
	}
	if ret.ID != "" || ret.Cols != nil {
		t.Errorf("MySQL flavor returned a row: %+v", ret)
	}
	// The row is still written.
	if _, err := db.Get("users", "u1"); err != nil {
		t.Fatal(err)
	}
	if gone, err := db.Delete("users", "u1"); err != nil || gone.ID != "" || gone.Cols != nil {
		t.Errorf("MySQL Delete = %+v, %v; want a zero row", gone, err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"name": "a"})
	_, err := db.Insert("users", row("u1", map[string]any{"name": "b"}), true)
	if !errors.Is(err, storage.ErrExists) {
		t.Fatalf("duplicate insert error = %v", err)
	}
}

func mustInsert(t *testing.T, db *DB, id string, cols map[string]any) {
	t.Helper()
	if _, err := db.Insert("users", row(id, cols), true); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownColumnRejected(t *testing.T) {
	db := newUserDB(t, Postgres)
	_, err := db.Insert("users", row("u1", map[string]any{"nope": 1}), true)
	if err == nil {
		t.Fatal("insert with unknown column succeeded")
	}
}

func TestUpdate(t *testing.T) {
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"name": "alice", "age": int64(30)})
	ret, err := db.Update("users", "u1", map[string]any{"age": int64(31)}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ret.Cols["age"] != int64(31) || ret.Cols["name"] != "alice" {
		t.Errorf("update RETURNING = %+v", ret)
	}
	if _, err := db.Update("users", "missing", map[string]any{"age": int64(1)}, true); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("update missing = %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"name": "a"})
	if gone, err := db.Delete("users", "u1"); err != nil || gone.ID != "u1" || gone.Cols["name"] != "a" {
		t.Fatalf("Delete = %+v, %v; want the removed row (RETURNING)", gone, err)
	}
	if _, err := db.Get("users", "u1"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
	if _, err := db.Delete("users", "u1"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
}

func TestSelectWithIndex(t *testing.T) {
	db := newUserDB(t, Postgres)
	for i := 0; i < 20; i++ {
		mustInsert(t, db, fmt.Sprintf("u%02d", i), map[string]any{
			"name":  fmt.Sprintf("user%d", i),
			"email": fmt.Sprintf("g%d@example.com", i%4),
			"age":   int64(20 + i),
		})
	}
	rows, err := db.Select("users", storage.Predicate{Field: "email", Op: storage.Eq, Value: "g1@example.com"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("indexed select returned %d rows, want 5", len(rows))
	}
	// Compound: indexed eq + extra predicate. Matching rows are u01
	// (age 21), u05 (25), u09 (29), u13 (33), u17 (37); age > 30 keeps 2.
	rows, _ = db.Select("users",
		storage.Predicate{Field: "email", Op: storage.Eq, Value: "g1@example.com"},
		storage.Predicate{Field: "age", Op: storage.Gt, Value: 30},
	)
	if len(rows) != 2 {
		t.Fatalf("compound select returned %d rows, want 2", len(rows))
	}
	// Non-indexed scan path.
	rows, _ = db.Select("users", storage.Predicate{Field: "age", Op: storage.Ge, Value: 38})
	if len(rows) != 2 {
		t.Fatalf("scan select returned %d rows, want 2", len(rows))
	}
}

func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"email": "old@example.com"})
	if _, err := db.Update("users", "u1", map[string]any{"email": "new@example.com"}, true); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.Select("users", storage.Predicate{Field: "email", Op: storage.Eq, Value: "old@example.com"})
	if len(rows) != 0 {
		t.Fatal("stale index entry after update")
	}
	rows, _ = db.Select("users", storage.Predicate{Field: "email", Op: storage.Eq, Value: "new@example.com"})
	if len(rows) != 1 {
		t.Fatal("missing index entry after update")
	}
	if _, err := db.Delete("users", "u1"); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.Select("users", storage.Predicate{Field: "email", Op: storage.Eq, Value: "new@example.com"})
	if len(rows) != 0 {
		t.Fatal("stale index entry after delete")
	}
}

func TestScanFromOrdered(t *testing.T) {
	db := newUserDB(t, Postgres)
	for i := 0; i < 10; i++ {
		mustInsert(t, db, fmt.Sprintf("u%02d", i), map[string]any{"name": "x"})
	}
	var ids []string
	if err := db.ScanFrom("users", "u05", func(r storage.Row) bool {
		ids = append(ids, r.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 || ids[0] != "u05" || ids[4] != "u09" {
		t.Fatalf("ScanFrom ids = %v", ids)
	}
}

func TestTxCommit(t *testing.T) {
	db := newUserDB(t, Postgres)
	tx := db.Begin()
	if err := tx.Insert("users", row("u1", map[string]any{"name": "a"})); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("users", row("u2", map[string]any{"name": "b"})); err != nil {
		t.Fatal(err)
	}
	// Not visible before commit.
	if _, err := db.Get("users", "u1"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("uncommitted write visible")
	}
	written, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 || written[0].ID != "u1" {
		t.Fatalf("written = %+v", written)
	}
	if _, err := db.Get("users", "u2"); err != nil {
		t.Fatal("committed write missing")
	}
}

func TestTxPrepareValidates(t *testing.T) {
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"name": "a"})
	tx := db.Begin()
	if err := tx.Insert("users", row("u1", map[string]any{"name": "dup"})); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); !errors.Is(err, storage.ErrExists) {
		t.Fatalf("Prepare = %v, want ErrExists", err)
	}
	// A failed prepare releases locks: a new tx on the same row works.
	tx2 := db.Begin()
	if err := tx2.Update("users", "u1", map[string]any{"name": "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxInsertThenUpdateSameRow(t *testing.T) {
	db := newUserDB(t, Postgres)
	tx := db.Begin()
	if err := tx.Insert("users", row("u1", map[string]any{"name": "a"})); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("users", "u1", map[string]any{"name": "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("users", "u1")
	if got.Cols["name"] != "b" {
		t.Errorf("final row = %+v", got)
	}
}

func TestTxAbortAfterPrepareReleasesLocks(t *testing.T) {
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"name": "a"})
	tx := db.Begin()
	if err := tx.Update("users", "u1", map[string]any{"name": "b"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	got, _ := db.Get("users", "u1")
	if got.Cols["name"] != "a" {
		t.Error("abort applied changes")
	}
	// Lock must be free: a direct write should not block.
	if _, err := db.Update("users", "u1", map[string]any{"name": "c"}, true); err != nil {
		t.Fatal(err)
	}
}

func TestTxUseAfterCommitFails(t *testing.T) {
	db := newUserDB(t, Postgres)
	tx := db.Begin()
	if err := tx.Insert("users", row("u1", map[string]any{"name": "a"})); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("users", row("u2", nil)); !errors.Is(err, storage.ErrTxClosed) {
		t.Errorf("stage after commit = %v", err)
	}
	if _, err := tx.Commit(); !errors.Is(err, storage.ErrTxClosed) {
		t.Errorf("double commit = %v", err)
	}
}

func TestConcurrentTransactionsSerialize(t *testing.T) {
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"age": int64(0)})
	const workers, iters = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := db.Begin()
				if err := tx.Update("users", "u1", nil); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Prepare(); err != nil {
					t.Error(err)
					return
				}
				// Read-modify-write under the row lock.
				cur, err := db.Get("users", "u1")
				if err != nil {
					t.Error(err)
					return
				}
				tx.Abort()
				tx2 := db.Begin()
				_ = tx2.Update("users", "u1", map[string]any{"age": cur.Cols["age"].(int64) + 1})
				// tx2 must wait for tx's lock release; but tx aborted, so
				// this prepares immediately.
				if _, err := tx2.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Increments raced between Get and tx2 commit, so we can only assert
	// the row survived and age is positive and bounded.
	got, _ := db.Get("users", "u1")
	age := got.Cols["age"].(int64)
	if age <= 0 || age > workers*iters {
		t.Fatalf("age = %d out of range", age)
	}
}

func TestConcurrentTxIncrementsUnderLock(t *testing.T) {
	// Proper serialized read-modify-write: hold the row lock via Prepare
	// on the same tx that writes.
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"age": int64(0)})
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for {
					tx := db.Begin()
					cur, err := db.Get("users", "u1")
					if err != nil {
						t.Error(err)
						return
					}
					age := cur.Cols["age"].(int64)
					if err := tx.Update("users", "u1", map[string]any{"age": age + 1}); err != nil {
						t.Error(err)
						return
					}
					if err := tx.Prepare(); err != nil {
						t.Error(err)
						return
					}
					// Validate the read is still current under the lock.
					now, _ := db.Get("users", "u1")
					if now.Cols["age"].(int64) != age {
						tx.Abort()
						continue // retry
					}
					if _, err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	got, _ := db.Get("users", "u1")
	if got.Cols["age"].(int64) != workers*iters {
		t.Fatalf("age = %v, want %d", got.Cols["age"], workers*iters)
	}
}

func TestClosedDBRejectsWrites(t *testing.T) {
	db := newUserDB(t, Postgres)
	db.Close()
	if _, err := db.Insert("users", row("u1", nil), true); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("insert after close = %v", err)
	}
}

func TestTablesAndLen(t *testing.T) {
	db := newUserDB(t, Postgres)
	if err := db.CreateTable("posts", Column{Name: "body"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("posts"); !errors.Is(err, storage.ErrExists) {
		t.Errorf("duplicate CreateTable = %v", err)
	}
	mustInsert(t, db, "u1", map[string]any{"name": "a"})
	n, err := db.Len("users")
	if err != nil || n != 1 {
		t.Errorf("Len = %d, %v", n, err)
	}
	if _, err := db.Len("missing"); !errors.Is(err, storage.ErrNoTable) {
		t.Errorf("Len(missing) = %v", err)
	}
}

// TestCount counts matching rows the one way the engine offers, an
// aggregation over Select.
func TestCount(t *testing.T) {
	db := newUserDB(t, Postgres)
	for i := 0; i < 5; i++ {
		mustInsert(t, db, fmt.Sprintf("u%d", i), map[string]any{"age": int64(i)})
	}
	rows, err := db.Select("users", storage.Predicate{Field: "age", Op: storage.Ge, Value: 3})
	if err != nil || len(rows) != 2 {
		t.Errorf("len(Select) = %d, %v", len(rows), err)
	}
}

func TestDeleteRange(t *testing.T) {
	db := newUserDB(t, Postgres)
	for i := 0; i < 6; i++ {
		if _, err := db.Insert("users", row(fmt.Sprintf("u%d", i), map[string]any{"email": "x@example.com"}), true); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := db.DeleteRange("users", "u1", "u4"); n != 3 || err != nil {
		t.Fatalf("DeleteRange = %d, %v; want 3, nil", n, err)
	}
	var ids []string
	_ = db.ScanFrom("users", "", func(r storage.Row) bool { ids = append(ids, r.ID); return true })
	if fmt.Sprint(ids) != "[u0 u4 u5]" {
		t.Errorf("rows left = %v", ids)
	}
	rows, _ := db.Select("users", storage.Predicate{Field: "email", Op: storage.Eq, Value: "x@example.com"})
	if len(rows) != 3 {
		t.Errorf("index still lists %d rows, want 3", len(rows))
	}
	if n, err := db.DeleteRange("users", "u4", "u4"); n != 0 || err != nil {
		t.Errorf("empty range = %d, %v", n, err)
	}
	if _, err := db.DeleteRange("ghosts", "a", "b"); !errors.Is(err, storage.ErrNoTable) {
		t.Errorf("DeleteRange on a missing table = %v", err)
	}
	db.Close()
	if _, err := db.DeleteRange("users", "u0", "u9"); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("DeleteRange on a closed engine = %v", err)
	}
}

// scribble overwrites everything reachable from a row the test owns.
func scribble(r storage.Row) {
	for k, v := range r.Cols {
		if l, ok := v.([]any); ok && len(l) > 0 {
			l[0] = "scribbled"
		}
		r.Cols[k] = "scribbled"
	}
	r.Cols["extra"] = "scribbled"
}

// The engine copies once on the way in and once on the way out, and
// nowhere shares a map or a nested value with the caller — including
// the rows a transaction stages and the rows its Commit returns. A
// staged update's columns are borrowed until Commit, which makes the
// copy; they are the caller's again once it returns.
func TestStoredRowsAreIsolated(t *testing.T) {
	db := New(Postgres)
	if err := db.CreateTable("t", Column{Name: "name"}, Column{Name: "tags"}); err != nil {
		t.Fatal(err)
	}
	fresh := func(id string) storage.Row {
		return row(id, map[string]any{"name": "n", "tags": []any{"a"}})
	}
	check := func(what, id string, wantTag string) {
		t.Helper()
		got, err := db.Get("t", id)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got.Cols) != 2 || got.Cols["name"] != "n" || fmt.Sprint(got.Cols["tags"]) != "["+wantTag+"]" {
			t.Errorf("%s: stored row shares state with the caller: %+v", what, got.Cols)
		}
	}

	in := fresh("i1")
	out, err := db.Insert("t", in, true)
	if err != nil {
		t.Fatal(err)
	}
	scribble(in)
	scribble(out)
	check("Insert", "i1", "a")

	cols := map[string]any{"tags": []any{"b"}}
	out, err = db.Update("t", "i1", cols, true)
	if err != nil {
		t.Fatal(err)
	}
	scribble(storage.Row{Cols: cols})
	scribble(out)
	check("Update", "i1", "b")

	got, _ := db.Get("t", "i1")
	scribble(got)
	check("Get", "i1", "b")

	tx := db.Begin()
	ins, upd := fresh("t1"), map[string]any{"tags": []any{"c"}}
	if err := tx.Insert("t", ins); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", "i1", upd); err != nil {
		t.Fatal(err)
	}
	scribble(ins) // between staging and commit
	written, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range written {
		scribble(w)
	}
	scribble(storage.Row{Cols: upd})
	check("Tx insert", "t1", "a")
	check("Tx update", "i1", "c")
}

// InsertPrepared consumes its row and reports only the id at Commit.
func TestInsertPreparedIsBare(t *testing.T) {
	db := newUserDB(t, Postgres)
	tx := db.Begin()
	if err := tx.Insert("users", row("u1", map[string]any{"name": "a"})); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertPrepared("users", row("j1", map[string]any{"name": "journal"})); err != nil {
		t.Fatal(err)
	}
	written, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 || written[0].Cols["name"] != "a" || written[1].ID != "j1" || written[1].Cols != nil {
		t.Errorf("Commit returned %+v; want the data row and a bare id", written)
	}
	if got, err := db.Get("users", "j1"); err != nil || got.Cols["name"] != "journal" {
		t.Errorf("prepared insert = %+v, %v", got, err)
	}
	if db.rowLocks.Held() != 0 {
		t.Errorf("%d row locks left held", db.rowLocks.Held())
	}
	// A stored id is refused, and its lock is given back.
	tx = db.Begin()
	_ = tx.Prepare()
	if err := tx.InsertPrepared("users", row("j1", nil)); !errors.Is(err, storage.ErrExists) {
		t.Errorf("InsertPrepared of a stored id = %v", err)
	}
	tx.Abort()
	if db.rowLocks.Held() != 0 {
		t.Errorf("%d row locks left held after a refused insert", db.rowLocks.Held())
	}
}

// TestTxAllocBudget pins a publish's transaction on a warm table: Begin,
// a staged update, Prepare, the journal row, Commit. What it allocates
// is what outlives it — the transaction, the copy of the updated row
// Commit hands back, the stored copy of the journal row and its slot —
// and no lock, key or list of its own.
func TestTxAllocBudget(t *testing.T) {
	db := newUserDB(t, Postgres)
	mustInsert(t, db, "u1", map[string]any{"name": "a", "age": int64(1)})
	cols := map[string]any{"name": "b"}
	n := 0
	journal := make([]storage.Row, 0, 1200)
	for i := range cap(journal) {
		journal = append(journal, row(fmt.Sprintf("j%04d", i), map[string]any{"name": "payload"}))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tx := db.Begin()
		if err := tx.Update("users", "u1", cols); err != nil {
			t.Fatal(err)
		}
		if err := tx.Prepare(); err != nil {
			t.Fatal(err)
		}
		if err := tx.InsertPrepared("users", journal[n]); err != nil {
			t.Fatal(err)
		}
		n++
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	// 5 measured: the transaction, the copy of the updated row (its map
	// and a group) and the copy of the journal row (the same two), which
	// the row tree stores unboxed. 6 while the tree boxed it into an any.
	if allocs > 5 {
		t.Errorf("Begin → Update → Prepare → InsertPrepared → Commit = %v allocs, want <= 5", allocs)
	}
	if db.rowLocks.Held() != 0 {
		t.Errorf("%d row locks left held", db.rowLocks.Held())
	}
}
