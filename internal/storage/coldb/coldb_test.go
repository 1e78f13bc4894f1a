package coldb

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
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
	db.Flush() // old cells now live in the base
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

// sstables reports how many flushed tables db holds: 1 once a flush has
// left a live row, else 0.
func sstables(db *DB) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return min(len(db.base), 1)
}

func TestFlushAndReadAcrossSSTables(t *testing.T) {
	db := New()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(1)}})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"b": int64(2)}})
	db.Flush()
	_ = db.Apply(Mutation{Family: "u", ID: "1", Cols: map[string]any{"a": int64(3)}})
	if sstables(db) > 1 {
		t.Fatalf("SSTables = %d; every flush merges into one", sstables(db))
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
	if sstables(db) == 0 {
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
	if sstables(db) != 1 {
		t.Fatalf("SSTables after compact = %d", sstables(db))
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
	var big, ids []string
	_ = db.ScanFrom("u", "", func(r storage.Row) bool {
		if storage.MatchAll(r, []storage.Predicate{{Field: "v", Op: storage.Ge, Value: 8}}) {
			big = append(big, r.ID)
		}
		return true
	})
	if fmt.Sprint(big) != "[r08 r09]" {
		t.Fatalf("ScanFrom filtered on v >= 8 = %v", big)
	}
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
// across the flush that compacts them away, rows outside the range and in other
// families live on, and a deleted id can be written again.
func TestDeleteRange(t *testing.T) {
	db := New()
	for i := 0; i < 6; i++ {
		_ = db.Apply(Mutation{Family: "j", ID: fmt.Sprintf("e%d", i), Cols: map[string]any{"p": int64(i)}})
	}
	_ = db.Apply(Mutation{Family: "jx", ID: "e2", Cols: map[string]any{"p": int64(9)}})
	db.Flush() // the rows sit in the base, the tombstones in the memtable
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

// TestModelAgainstMap drives random writes, deletes, range deletes and
// flushes at random flush sizes, and checks every read after every step
// against a map of the live rows: re-inserts after deletes and range
// deletes across flushes included.
func TestModelAgainstMap(t *testing.T) {
	families := []string{"a", "ab"}
	ids := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		db.flushSize = 1 + rng.Intn(40)
		ref := make(map[rowKey]map[string]any)
		for step := 0; step < 100; step++ {
			k := rowKey{families[rng.Intn(len(families))], ids[rng.Intn(len(ids))]}
			var op string
			switch r := rng.Intn(10); {
			case r < 5:
				cols := make(map[string]any)
				for _, c := range []string{"x", "y", "z"} {
					if rng.Intn(2) == 0 {
						cols[c] = int64(rng.Intn(100))
					}
				}
				op = fmt.Sprintf("Apply %v %v", k, cols)
				_ = db.Apply(Mutation{Family: k.family, ID: k.id, Cols: cols})
				if ref[k] == nil {
					ref[k] = make(map[string]any)
				}
				maps.Copy(ref[k], cols)
			case r < 7:
				op = fmt.Sprintf("Delete %v", k)
				_ = db.Apply(Mutation{Family: k.family, ID: k.id, Delete: true})
				delete(ref, k)
			case r < 9:
				from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if rng.Intn(3) == 0 {
					to = ""
				}
				op = fmt.Sprintf("DeleteRange %s [%s, %s)", k.family, from, to)
				want := 0
				for rk := range ref {
					if rk.family == k.family && rk.id >= from && (to == "" || rk.id < to) {
						delete(ref, rk)
						want++
					}
				}
				if n, err := db.DeleteRange(k.family, from, to); n != want || err != nil {
					t.Fatalf("seed %d step %d %s = %d, %v; want %d", seed, step, op, n, err, want)
				}
			default:
				op = "Flush"
				db.Flush()
			}
			if err := checkAgainst(db, ref, families, ids, ids[rng.Intn(len(ids))]); err != nil {
				t.Fatalf("seed %d step %d after %s (flushSize %d): %v", seed, step, op, db.flushSize, err)
			}
		}
	}
}

// checkAgainst compares Get, Exists, Len and ScanFrom with the reference.
func checkAgainst(db *DB, ref map[rowKey]map[string]any, families, ids []string, start string) error {
	for _, fam := range families {
		var live, scanned []string
		for _, id := range ids {
			want, ok := ref[rowKey{fam, id}]
			got, err := db.Get(fam, id)
			switch {
			case db.Exists(fam, id) != ok:
				return fmt.Errorf("Exists(%s, %s) = %v, want %v", fam, id, !ok, ok)
			case !ok && !errors.Is(err, storage.ErrNotFound):
				return fmt.Errorf("Get(%s, %s) of a dead row = %+v, %v", fam, id, got, err)
			case ok && (err != nil || !reflect.DeepEqual(got.Cols, want)):
				return fmt.Errorf("Get(%s, %s) = %+v, %v; want %v", fam, id, got, err, want)
			}
			if ok && id >= start {
				live = append(live, id)
			}
		}
		if n, want := db.Len(fam), countFamily(ref, fam); n != want {
			return fmt.Errorf("Len(%s) = %d, want %d", fam, n, want)
		}
		var err error
		_ = db.ScanFrom(fam, start, func(r storage.Row) bool {
			scanned = append(scanned, r.ID)
			if !reflect.DeepEqual(r.Cols, ref[rowKey{fam, r.ID}]) {
				err = fmt.Errorf("ScanFrom(%s) row %s = %v, want %v", fam, r.ID, r.Cols, ref[rowKey{fam, r.ID}])
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		if fmt.Sprint(scanned) != fmt.Sprint(live) {
			return fmt.Errorf("ScanFrom(%s, %s) = %v, want %v", fam, start, scanned, live)
		}
	}
	return nil
}

func countFamily(ref map[rowKey]map[string]any, fam string) int {
	n := 0
	for k := range ref {
		if k.family == fam {
			n++
		}
	}
	return n
}

// Readers running beside a writer that flushes every few writes never see
// a torn row: each write sets x and y to one value, and a delete takes
// both.
func TestReadersDuringFlushes(t *testing.T) {
	db := New()
	db.flushSize = 16
	torn := func(r storage.Row) bool { return r.Cols["x"] != r.Cols["y"] }
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := fmt.Sprintf("r%02d", i%20)
				if row, err := db.Get("u", id); err == nil && torn(row) {
					t.Errorf("Get %s = %v: a torn row", id, row.Cols)
					return
				}
				_ = db.Exists("u", id)
				_ = db.Len("u")
				_ = db.ScanFrom("u", id, func(row storage.Row) bool {
					if torn(row) {
						t.Errorf("ScanFrom row %s = %v: a torn row", row.ID, row.Cols)
					}
					return true
				})
			}
		}(r)
	}
	for i := 0; i < 3000; i++ {
		m := Mutation{Family: "u", ID: fmt.Sprintf("r%02d", i%20), Cols: map[string]any{"x": int64(i), "y": int64(i)}}
		m.Delete = i%7 == 0
		_ = db.Apply(m)
	}
	close(done)
	wg.Wait()
}

// Rewriting a fixed population keeps only the live cells and one
// memtable's worth: the engine's state does not grow with its writes. An
// emptied partition kept for the next memtable counts as retained state.
func TestStateBoundedByLiveData(t *testing.T) {
	db := New()
	db.flushSize = 256
	state := func() (cells, kept, live int) {
		for _, t := range [2]map[rowKey]partition{db.base, db.memtable} {
			for _, p := range t {
				cells += len(p)
			}
		}
		_ = db.ScanFrom("u", "", func(r storage.Row) bool {
			live += len(r.Cols) + 1 // and its presence cell
			return true
		})
		return cells, len(db.spare), live
	}
	for pass := 0; pass <= 10; pass++ {
		for i := 0; i < 1000; i++ {
			_ = db.Apply(Mutation{Family: "u", ID: fmt.Sprintf("r%04d", i), Cols: map[string]any{"a": int64(pass), "b": "x", "c": int64(i)}})
		}
		if cells, kept, live := state(); cells+kept > live+db.flushSize || sstables(db) > 1 {
			t.Fatalf("pass %d: %d cells and %d kept partitions retained for %d live cells, %d tables", pass, cells, kept, live, sstables(db))
		}
	}
	if n, _ := db.DeleteRange("u", "r0500", ""); n != 500 {
		t.Fatalf("DeleteRange = %d", n)
	}
	db.Flush()
	if cells, kept, live := state(); cells != live || live != 500*4 || cells+kept > live+db.flushSize {
		t.Fatalf("after a flush: %d cells and %d kept partitions retained, %d live cells; want %d cells and at most %d partitions",
			cells, kept, live, 500*4, db.flushSize)
	}
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates on its own account")
			}
		}
	}
}

// Once flushes run, a steady stream of updates to rows already in the
// base allocates no partition: each takes one a flush emptied.
func TestUpdateAllocBudget(t *testing.T) {
	skipUnderRace(t)
	db := New()
	db.flushSize = 64
	ms := make([]Mutation, 100)
	for i := range ms {
		ms[i] = Mutation{Family: "u", ID: fmt.Sprintf("r%03d", i), Cols: map[string]any{"a": int64(i), "b": "x"}}
		_ = db.Apply(ms[i])
	}
	db.Flush()
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		if err := db.Apply(ms[i%len(ms)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("Apply of an update = %v allocs, want 0", got)
	}
}
