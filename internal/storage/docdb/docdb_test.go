package docdb

import (
	"errors"
	"fmt"
	"testing"

	"synapse/internal/storage"
)

func doc(id string, cols map[string]any) storage.Row {
	return storage.Row{ID: id, Cols: cols}
}

func TestInsertGetDelete(t *testing.T) {
	db := New(MongoDB)
	ret, err := db.Insert("users", doc("u1", map[string]any{"name": "alice"}), true)
	if err != nil {
		t.Fatal(err)
	}
	if ret.Cols["name"] != "alice" {
		t.Errorf("insert returned %+v", ret)
	}
	got, err := db.Get("users", "u1")
	if err != nil || got.Cols["name"] != "alice" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if _, err := db.Insert("users", doc("u1", nil), true); !errors.Is(err, storage.ErrExists) {
		t.Errorf("duplicate insert = %v", err)
	}
	if gone, err := db.Delete("users", "u1"); err != nil || gone.ID != "u1" || gone.Cols["name"] != "alice" {
		t.Fatalf("Delete = %+v, %v; want the removed document", gone, err)
	}
	if _, err := db.Get("users", "u1"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
	if _, err := db.Delete("users", "u1"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
}

func TestSchemaless(t *testing.T) {
	db := New(MongoDB)
	// Different documents in the same collection can have different shapes.
	if _, err := db.Insert("stuff", doc("a", map[string]any{"x": int64(1)}), true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("stuff", doc("b", map[string]any{"nested": map[string]any{"k": "v"}, "tags": []any{"t1"}}), true); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("stuff", "b")
	if got.Cols["nested"].(map[string]any)["k"] != "v" {
		t.Errorf("nested doc = %+v", got)
	}
}

func TestUpdateMerges(t *testing.T) {
	db := New(MongoDB)
	if _, err := db.Insert("users", doc("u1", map[string]any{"name": "a", "age": int64(1)}), true); err != nil {
		t.Fatal(err)
	}
	ret, err := db.Update("users", "u1", map[string]any{"age": int64(2)}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ret.Cols["name"] != "a" || ret.Cols["age"] != int64(2) {
		t.Errorf("update returned %+v", ret)
	}
	if _, err := db.Update("users", "missing", nil, true); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("update missing = %v", err)
	}
}

func TestFindByExample(t *testing.T) {
	db := New(MongoDB)
	for i := 0; i < 10; i++ {
		if _, err := db.Insert("users", doc(fmt.Sprintf("u%d", i), map[string]any{
			"group":   fmt.Sprintf("g%d", i%2),
			"profile": map[string]any{"city": fmt.Sprintf("c%d", i%3)},
			"tags":    []any{fmt.Sprintf("t%d", i), "common"},
		}), true); err != nil {
			t.Fatal(err)
		}
	}
	rows, _ := db.Find("users", map[string]any{"group": "g1"})
	if len(rows) != 5 {
		t.Fatalf("Find(group=g1) = %d rows", len(rows))
	}
	// Dotted path into nested document.
	rows, _ = db.Find("users", map[string]any{"profile.city": "c0"})
	if len(rows) != 4 {
		t.Fatalf("Find(profile.city=c0) = %d rows", len(rows))
	}
	// Scalar example against array field = membership.
	rows, _ = db.Find("users", map[string]any{"tags": "common"})
	if len(rows) != 10 {
		t.Fatalf("Find(tags contains common) = %d rows", len(rows))
	}
	rows, _ = db.Find("users", map[string]any{"tags": "t3"})
	if len(rows) != 1 || rows[0].ID != "u3" {
		t.Fatalf("Find(tags contains t3) = %+v", rows)
	}
	// Compound example.
	rows, _ = db.Find("users", map[string]any{"group": "g1", "profile.city": "c1"})
	for _, r := range rows {
		if r.Cols["group"] != "g1" {
			t.Errorf("compound match returned %+v", r)
		}
	}
	// Missing path matches nothing.
	rows, _ = db.Find("users", map[string]any{"profile.country": "x"})
	if len(rows) != 0 {
		t.Fatalf("Find on missing path = %d rows", len(rows))
	}
}

// TestCount counts matching documents the one way the engine offers, an
// aggregation over Find.
func TestCount(t *testing.T) {
	db := New(MongoDB)
	for i := 0; i < 6; i++ {
		_, _ = db.Insert("u", doc(fmt.Sprintf("u%d", i), map[string]any{"even": i%2 == 0}), true)
	}
	rows, err := db.Find("u", map[string]any{"even": true})
	if err != nil || len(rows) != 3 {
		t.Fatalf("len(Find) = %d, %v", len(rows), err)
	}
}

func TestScanFromOrdered(t *testing.T) {
	db := New(RethinkDB)
	for i := 0; i < 10; i++ {
		_, _ = db.Insert("c", doc(fmt.Sprintf("d%02d", i), map[string]any{"i": int64(i)}), true)
	}
	var ids []string
	_ = db.ScanFrom("c", "d05", func(r storage.Row) bool {
		ids = append(ids, r.ID)
		return len(ids) < 3
	})
	if len(ids) != 3 || ids[0] != "d05" || ids[2] != "d07" {
		t.Fatalf("ScanFrom = %v", ids)
	}
}

func TestCollectionsAndLen(t *testing.T) {
	db := New(MongoDB)
	_, _ = db.Insert("b", doc("1", nil), true)
	_, _ = db.Insert("a", doc("1", nil), true)
	if db.Len("a") != 1 || db.Len("missing") != 0 {
		t.Error("Len misreported")
	}
}

func TestClosedRejectsWrites(t *testing.T) {
	db := New(MongoDB)
	db.Close()
	if _, err := db.Insert("c", doc("1", nil), true); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("insert after close = %v", err)
	}
	if _, err := db.Update("c", "1", nil, true); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("update after close = %v", err)
	}
}

func TestReturnedDocIsIsolated(t *testing.T) {
	db := New(MongoDB)
	ret, _ := db.Insert("c", doc("1", map[string]any{"tags": []any{"a"}}), true)
	ret.Cols["tags"].([]any)[0] = "mutated"
	got, _ := db.Get("c", "1")
	if got.Cols["tags"].([]any)[0] != "a" {
		t.Error("returned document shares storage with the engine")
	}
}

func TestDeleteRange(t *testing.T) {
	db := New(MongoDB)
	for _, id := range []string{"a1", "a2", "a3", "b1"} {
		if _, err := db.Insert("c", storage.Row{ID: id, Cols: map[string]any{"k": "v"}}, true); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = db.Insert("other", storage.Row{ID: "a2"}, true)
	if n, err := db.DeleteRange("c", "a2", "b1"); n != 2 || err != nil {
		t.Fatalf("DeleteRange = %d, %v; want 2, nil", n, err)
	}
	if db.Len("c") != 2 || db.Len("other") != 1 {
		t.Errorf("Len = %d (other %d) after DeleteRange", db.Len("c"), db.Len("other"))
	}
	if _, err := db.Get("c", "b1"); err != nil {
		t.Error("the upper bound was deleted")
	}
	if n, err := db.DeleteRange("never", "a", "z"); n != 0 || err != nil {
		t.Errorf("DeleteRange on a missing collection = %d, %v", n, err)
	}
	db.Close()
	if _, err := db.DeleteRange("c", "a", "z"); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("DeleteRange on a closed engine = %v", err)
	}
}
