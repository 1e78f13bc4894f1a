package storage_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"synapse/internal/storage"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/reldb"
)

// recycler is an engine seen through every call that hands a row out or
// drops one: the rows an engine drops give their maps back to Clone
// (storage.Row.Recycle), and those that it hands over must not.
type recycler struct {
	name        string
	insert      func(id string, cols map[string]any) (storage.Row, error) // returning
	update      func(id string, cols map[string]any) (storage.Row, error) // returning
	get         func(id string) (storage.Row, error)
	scan        func(fn func(storage.Row) bool) error
	remove      func(id string) (storage.Row, error) // hands the row over
	deleteRange func(from, to string) (int, error)
	// commit runs one committed transaction (nil: the engine has none):
	// inserts of ins, merges of upd, deletes of del, returning what its
	// Commit reads back.
	commit func(ins map[string]map[string]any, upd map[string]map[string]any, del []string) ([]storage.Row, error)
}

func recyclers(t *testing.T) []recycler {
	rel := reldb.New(reldb.Postgres)
	if err := rel.CreateTable("t", reldb.Column{Name: "n"}, reldb.Column{Name: "s"}, reldb.Column{Name: "tags"}); err != nil {
		t.Fatal(err)
	}
	doc := docdb.New(docdb.MongoDB)
	return []recycler{
		{
			name: "reldb",
			insert: func(id string, cols map[string]any) (storage.Row, error) {
				return rel.Insert("t", storage.Row{ID: id, Cols: cols}, true)
			},
			update: func(id string, cols map[string]any) (storage.Row, error) { return rel.Update("t", id, cols, true) },
			get:    func(id string) (storage.Row, error) { return rel.Get("t", id) },
			scan:   func(fn func(storage.Row) bool) error { return rel.ScanFrom("t", "", fn) },
			remove: func(id string) (storage.Row, error) { return rel.Delete("t", id) },
			deleteRange: func(from, to string) (int, error) {
				return rel.DeleteRange("t", from, to)
			},
			commit: func(ins, upd map[string]map[string]any, del []string) ([]storage.Row, error) {
				tx := rel.Begin()
				for _, id := range sortedKeys(ins) {
					if err := tx.Insert("t", storage.Row{ID: id, Cols: ins[id]}); err != nil {
						return nil, err
					}
				}
				for _, id := range sortedKeys(upd) {
					if err := tx.Update("t", id, upd[id]); err != nil {
						return nil, err
					}
				}
				for _, id := range del {
					if err := tx.Delete("t", id); err != nil {
						return nil, err
					}
				}
				return tx.Commit()
			},
		},
		{
			name: "docdb",
			insert: func(id string, cols map[string]any) (storage.Row, error) {
				return doc.Insert("t", storage.Row{ID: id, Cols: cols}, true)
			},
			update: func(id string, cols map[string]any) (storage.Row, error) { return doc.Update("t", id, cols, true) },
			get:    func(id string) (storage.Row, error) { return doc.Get("t", id) },
			scan:   func(fn func(storage.Row) bool) error { return doc.ScanFrom("t", "", fn) },
			remove: func(id string) (storage.Row, error) { return doc.Delete("t", id) },
			deleteRange: func(from, to string) (int, error) {
				return doc.DeleteRange("t", from, to)
			},
		},
	}
}

func sortedKeys(m map[string]map[string]any) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// kept is a row a caller was given, with what it read when it got it.
type kept struct {
	how  string
	row  storage.Row
	want storage.Row
}

// snapshot copies a row without Clone, so that no recycled map is in it.
func snapshot(r storage.Row) storage.Row {
	out := storage.Row{ID: r.ID, Cols: make(map[string]any, len(r.Cols))}
	for k, v := range r.Cols {
		out.Cols[k] = storage.CloneValue(v)
	}
	return out
}

// TestRecycledRowsStayOwned is the model test of the recycling rule. A
// random walk of inserts, updates, copy-outs (Get and scan), handed-over
// deletes, range deletes and committed transactional deletes runs
// against each engine and a model of its table. Every row a caller is
// given — copy-outs, RETURNING rows, Commit's read-backs, handed-over
// deletes — is kept, and after every step no kept row may have changed
// and the engine must equal the model: a dropped row's map that is still
// held somewhere (handed over, or stored) would be cleared and refilled
// under its holder.
func TestRecycledRowsStayOwned(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, e := range recyclers(t) {
			t.Run(fmt.Sprintf("%s/seed=%d", e.name, seed), func(t *testing.T) {
				walkRecycling(t, e, rand.New(rand.NewSource(seed)), 400)
			})
		}
	}
}

func walkRecycling(t *testing.T, e recycler, rng *rand.Rand, steps int) {
	const ids, keepMax = 24, 64
	model := map[string]map[string]any{}
	var keep []kept
	// hold keeps a row the caller was given, which must read as the
	// model reads at that moment.
	hold := func(how string, r storage.Row) {
		t.Helper()
		if r.Cols == nil {
			return
		}
		if !reflect.DeepEqual(r.Cols, model[r.ID]) {
			t.Fatalf("%s %s = %v, want %v", how, r.ID, r.Cols, model[r.ID])
		}
		if len(keep) == keepMax {
			keep = keep[1:]
		}
		keep = append(keep, kept{how, r, snapshot(r)})
	}
	idOf := func(i int) string { return fmt.Sprintf("r%02d", i) }
	present := func() []string {
		out := make([]string, 0, len(model))
		for id := range model {
			out = append(out, id)
		}
		sort.Strings(out)
		return out
	}
	absent := func() []string {
		var out []string
		for i := 0; i < ids; i++ {
			if _, ok := model[idOf(i)]; !ok {
				out = append(out, idOf(i))
			}
		}
		return out
	}
	pick := func(from []string) (string, bool) {
		if len(from) == 0 {
			return "", false
		}
		return from[rng.Intn(len(from))], true
	}
	cols := func(step int) map[string]any {
		c := map[string]any{"n": int64(step), "tags": []any{"t", int64(step)}}
		if rng.Intn(2) == 0 {
			c["s"] = fmt.Sprintf("s%d", step)
		}
		return c
	}
	merge := func(id string, c map[string]any) {
		for k, v := range c {
			model[id][k] = storage.CloneValue(v)
		}
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	for step := 0; step < steps; step++ {
		var did string
		k := rng.Intn(6)
		if k == 5 && e.commit == nil {
			k = 0
		}
		switch k {
		case 0:
			if id, ok := pick(absent()); ok {
				c := cols(step)
				r, err := e.insert(id, c)
				must("insert", err)
				model[id] = map[string]any{}
				merge(id, c)
				hold("insert returning", r)
				did = "insert " + id
			}
		case 1:
			if id, ok := pick(present()); ok {
				c := cols(step)
				r, err := e.update(id, c)
				must("update", err)
				merge(id, c)
				hold("update returning", r)
				did = "update " + id
			}
		case 2:
			if id, ok := pick(present()); ok {
				r, err := e.get(id)
				must("get", err)
				hold("get", r)
				did = "get " + id
			}
			stop := rng.Intn(ids)
			must("scan", e.scan(func(r storage.Row) bool {
				hold("scan", r)
				stop--
				return stop > 0
			}))
		case 3:
			if id, ok := pick(present()); ok {
				r, err := e.remove(id)
				must("delete", err)
				hold("handed-over delete", r)
				delete(model, id)
				did = "delete " + id
			}
		case 4:
			lo := rng.Intn(ids)
			hi := lo + 1 + rng.Intn(4)
			n, err := e.deleteRange(idOf(lo), idOf(hi))
			must("delete range", err)
			want := 0
			for id := range model {
				if id >= idOf(lo) && id < idOf(hi) {
					delete(model, id)
					want++
				}
			}
			if n != want {
				t.Fatalf("step %d: DeleteRange(%s, %s) = %d, want %d", step, idOf(lo), idOf(hi), n, want)
			}
			did = fmt.Sprintf("delete range [%s, %s)", idOf(lo), idOf(hi))
		case 5: // a committed transaction: deletes, with an insert and an update beside them
			ins, upd := map[string]map[string]any{}, map[string]map[string]any{}
			var del []string
			live := present()
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			for i, id := range live {
				switch {
				case i < 2:
					del = append(del, id)
				case i == 2:
					upd[id] = cols(step)
				}
			}
			if id, ok := pick(absent()); ok {
				ins[id] = cols(step)
			}
			rows, err := e.commit(ins, upd, del)
			must("commit", err)
			for id, c := range ins {
				model[id] = map[string]any{}
				merge(id, c)
			}
			for id, c := range upd {
				merge(id, c)
			}
			for _, id := range del {
				delete(model, id)
			}
			for _, r := range rows {
				hold("commit read-back", r)
			}
			did = fmt.Sprintf("commit +%d ~%d -%v", len(ins), len(upd), del)
		}

		for _, k := range keep {
			if k.row.ID != k.want.ID || !reflect.DeepEqual(k.row.Cols, k.want.Cols) {
				t.Fatalf("step %d (%s): a row the caller kept (%s) changed: %s %v, was %v", step, did, k.how, k.row.ID, k.row.Cols, k.want.Cols)
			}
		}
		for _, id := range present() {
			r, err := e.get(id)
			if err != nil || !reflect.DeepEqual(r.Cols, model[id]) {
				t.Fatalf("step %d (%s): stored %s = %v, %v; want %v", step, did, id, r.Cols, err, model[id])
			}
		}
		n := 0
		must("scan", e.scan(func(storage.Row) bool { n++; return true }))
		if n != len(model) {
			t.Fatalf("step %d (%s): %d rows stored, want %d", step, did, n, len(model))
		}
	}
}
