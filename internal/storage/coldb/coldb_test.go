package coldb

import (
	"errors"
	"fmt"
	"testing"

	"synapse/internal/storage"
)

func TestApplyGet(t *testing.T) {
	db := New()
	if err := db.Apply(Mutation{Family: "users", ID: "u1", Cols: map[string]any{"name": "alice"}}); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("users", "u1")
	if err != nil || got.Cols["name"] != "alice" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if _, err := db.Get("users", "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Get missing = %v", err)
	}
}

func TestLastWriteWinsPerCell(t *testing.T) {
	db := New()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(1), "b": int64(1)}})
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(2)}})
	got, _ := db.Get("u", "1")
	if got.Cols["a"] != int64(2) || got.Cols["b"] != int64(1) {
		t.Fatalf("merged row = %+v", got)
	}
}

func TestDeleteTombstone(t *testing.T) {
	db := New()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(1)}})
	_ = db.Apply(Mutation{Family: "u", ID: "1", Delete: true})
	if _, err := db.Get("u", "1"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if db.Len("u") != 0 {
		t.Fatalf("Len after delete = %d", db.Len("u"))
	}
}

func TestReinsertDoesNotResurrectOldCells(t *testing.T) {
	db := New()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"old": "stale", "keep": "x"}})
	db.Flush() // old cells now live in an sstable
	_ = db.Apply(Mutation{Family: "u", ID: "1", Delete: true})
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"keep": "y"}})
	got, err := db.Get("u", "1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Cols["old"]; ok {
		t.Fatalf("stale sstable cell resurrected: %+v", got)
	}
	if got.Cols["keep"] != "y" {
		t.Fatalf("row = %+v", got)
	}
}

func TestFlushAndReadAcrossSSTables(t *testing.T) {
	db := New()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(1)}})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"b": int64(2)}})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(3)}})
	if db.SSTables() != 2 {
		t.Fatalf("SSTables = %d", db.SSTables())
	}
	got, _ := db.Get("u", "1")
	if got.Cols["a"] != int64(3) || got.Cols["b"] != int64(2) {
		t.Fatalf("merged read = %+v", got)
	}
}

func TestAutoFlush(t *testing.T) {
	db := New()
	db.flushSize = 8
	for i := 0; i < 20; i++ {
		_ = db.Apply(Mutation{Family: "u", ID: fmt.Sprintf("r%d", i), Cols: map[string]any{"v": int64(i)}})
	}
	if db.SSTables() == 0 {
		t.Fatal("memtable never flushed")
	}
	for i := 0; i < 20; i++ {
		got, err := db.Get("u", fmt.Sprintf("r%d", i))
		if err != nil || got.Cols["v"] != int64(i) {
			t.Fatalf("row r%d = %+v, %v", i, got, err)
		}
	}
}

func TestCompact(t *testing.T) {
	db := New()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(1)}})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(2)}})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "2", Cols: map[string]any{"a": int64(9)}})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "2", Delete: true})
	db.Flush()
	db.Compact()
	if db.SSTables() != 1 {
		t.Fatalf("SSTables after compact = %d", db.SSTables())
	}
	got, err := db.Get("u", "1")
	if err != nil || got.Cols["a"] != int64(2) {
		t.Fatalf("row 1 after compact = %+v, %v", got, err)
	}
	if _, err := db.Get("u", "2"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("deleted row after compact = %v", err)
	}
}

func TestCompactPreservesReinsert(t *testing.T) {
	db := New()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"old": "x"}})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Delete: true})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"new": "y"}})
	db.Flush()
	db.Compact()
	got, err := db.Get("u", "1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Cols["old"]; ok {
		t.Fatalf("compact resurrected old cell: %+v", got)
	}
	if got.Cols["new"] != "y" {
		t.Fatalf("row after compact = %+v", got)
	}
}

func TestLoggedBatchAtomicTimestamp(t *testing.T) {
	db := New()
	// All mutations in a batch share one timestamp; a later single write
	// must shadow every batched cell it touches.
	if err := db.ApplyBatch([]Mutation{
		{Family: "u", ID: "1", Cols: map[string]any{"a": int64(1)}},
		{Family: "u", ID: "2", Cols: map[string]any{"a": int64(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(2)}})
	r1, _ := db.Get("u", "1")
	r2, _ := db.Get("u", "2")
	if r1.Cols["a"] != int64(2) || r2.Cols["a"] != int64(1) {
		t.Fatalf("rows = %+v / %+v", r1, r2)
	}
}

func TestScanAndScanFrom(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		_ = db.Apply(Mutation{Family: "u", ID: fmt.Sprintf("r%02d", i), Cols: map[string]any{"v": int64(i)}})
	}
	_ = db.Apply(Mutation{Family: "other", ID: "x", Cols: map[string]any{"v": int64(99)}})
	rows, _ := db.Scan("u", storage.Predicate{Field: "v", Op: storage.Ge, Value: 8})
	if len(rows) != 2 {
		t.Fatalf("Scan = %d rows", len(rows))
	}
	var ids []string
	_ = db.ScanFrom("u", "r05", func(r storage.Row) bool {
		ids = append(ids, r.ID)
		return true
	})
	if len(ids) != 5 || ids[0] != "r05" {
		t.Fatalf("ScanFrom = %v", ids)
	}
}

func TestFamilyIsolation(t *testing.T) {
	db := New()
	_ = db.Apply(Mutation{Family: "a", ID: "1", Cols: map[string]any{"v": int64(1)}})
	_ = db.Apply(Mutation{Family: "ab", ID: "1", Cols: map[string]any{"v": int64(2)}})
	if db.Len("a") != 1 || db.Len("ab") != 1 {
		t.Fatalf("family lengths = %d / %d", db.Len("a"), db.Len("ab"))
	}
	ra, _ := db.Get("a", "1")
	rb, _ := db.Get("ab", "1")
	if ra.Cols["v"] != int64(1) || rb.Cols["v"] != int64(2) {
		t.Fatal("family data bled across families")
	}
}

func TestClosedRejectsWrites(t *testing.T) {
	db := New()
	db.Close()
	if err := db.Apply(Mutation{Family: "u", ID: "1"}); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("apply after close = %v", err)
	}
}

// A range delete is one logged batch of tombstones: the rows stay dead
// across a flush and a compaction, rows outside the range and in other
// families live on, and a deleted id can be written again.
func TestDeleteRange(t *testing.T) {
	db := New()
	for i := 0; i < 6; i++ {
		_ = db.Apply(Mutation{Family: "j", ID: fmt.Sprintf("e%d", i), Cols: map[string]any{"p": int64(i)}})
	}
	_ = db.Apply(Mutation{Family: "jx", ID: "e2", Cols: map[string]any{"p": int64(9)}})
	db.Flush() // the rows sit in an sstable, the tombstones in the memtable
	if n, err := db.DeleteRange("j", "e1", "e4"); n != 3 || err != nil {
		t.Fatalf("DeleteRange = %d, %v; want 3, nil", n, err)
	}
	if n, err := db.DeleteRange("j", "e1", "e4"); n != 0 || err != nil {
		t.Fatalf("second DeleteRange = %d, %v; dead rows counted again", n, err)
	}
	live := func() string {
		var ids []string
		_ = db.ScanFrom("j", "", func(r storage.Row) bool { ids = append(ids, r.ID); return true })
		return fmt.Sprint(ids)
	}
	if got := live(); got != "[e0 e4 e5]" {
		t.Errorf("rows left = %s", got)
	}
	db.Flush()
	db.Compact()
	if got := live(); got != "[e0 e4 e5]" {
		t.Errorf("rows left after compaction = %s", got)
	}
	if db.Len("jx") != 1 {
		t.Error("DeleteRange reached into another family")
	}
	_ = db.Apply(Mutation{Family: "j", ID: "e2", Cols: map[string]any{"p": int64(7)}})
	if got, err := db.Get("j", "e2"); err != nil || got.Cols["p"] != int64(7) {
		t.Errorf("re-created row = %+v, %v", got, err)
	}
}
