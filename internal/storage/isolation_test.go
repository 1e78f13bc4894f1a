package storage_test

import (
	"fmt"
	"testing"

	"synapse/internal/storage"
	"synapse/internal/storage/coldb"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/graphdb"
	"synapse/internal/storage/reldb"
	"synapse/internal/storage/searchdb"
)

// engine is one storage engine seen through the three calls the
// row-ownership rule is about: a write that creates a row, a write that
// merges into it, and the two reads that hand a row out.
type engine struct {
	name   string
	insert func(id string, cols map[string]any) error
	merge  func(id string, cols map[string]any) error
	get    func(id string) (storage.Row, error)
	scan   func(fn func(storage.Row) bool) error
}

func engines(t *testing.T) []engine {
	rel := reldb.New(reldb.Postgres)
	if err := rel.CreateTable("t", reldb.Column{Name: "tags"}, reldb.Column{Name: "meta"}); err != nil {
		t.Fatal(err)
	}
	doc, col, search, graph := docdb.New(docdb.MongoDB), coldb.New(), searchdb.New(), graphdb.New()
	return []engine{
		{
			name: "reldb",
			insert: func(id string, cols map[string]any) error {
				_, err := rel.Insert("t", storage.Row{ID: id, Cols: cols}, true)
				return err
			},
			merge: func(id string, cols map[string]any) error {
				_, err := rel.Update("t", id, cols, true)
				return err
			},
			get:  func(id string) (storage.Row, error) { return rel.Get("t", id) },
			scan: func(fn func(storage.Row) bool) error { return rel.ScanFrom("t", "", fn) },
		},
		{
			name: "docdb",
			insert: func(id string, cols map[string]any) error {
				_, err := doc.Insert("t", storage.Row{ID: id, Cols: cols}, true)
				return err
			},
			merge: func(id string, cols map[string]any) error {
				_, err := doc.Update("t", id, cols, true)
				return err
			},
			get:  func(id string) (storage.Row, error) { return doc.Get("t", id) },
			scan: func(fn func(storage.Row) bool) error { return doc.ScanFrom("t", "", fn) },
		},
		{
			name: "coldb",
			insert: func(id string, cols map[string]any) error {
				return col.Apply(coldb.Mutation{Family: "t", ID: id, Cols: cols})
			},
			merge: func(id string, cols map[string]any) error {
				return col.Apply(coldb.Mutation{Family: "t", ID: id, Cols: cols})
			},
			get:  func(id string) (storage.Row, error) { return col.Get("t", id) },
			scan: func(fn func(storage.Row) bool) error { return col.ScanFrom("t", "", fn) },
		},
		{
			name: "searchdb",
			insert: func(id string, cols map[string]any) error {
				return search.Index("t", storage.Row{ID: id, Cols: cols})
			},
			merge: func(id string, cols map[string]any) error {
				return search.Update("t", storage.Row{ID: id, Cols: cols})
			},
			get:  func(id string) (storage.Row, error) { return search.Get("t", id) },
			scan: func(fn func(storage.Row) bool) error { return search.ScanFrom("t", "", fn) },
		},
		{
			name:   "graphdb",
			insert: func(id string, cols map[string]any) error { return graph.MergeNode("T", id, cols) },
			merge:  func(id string, cols map[string]any) error { return graph.MergeNode("T", id, cols) },
			get: func(id string) (storage.Row, error) {
				_, props, err := graph.Node(id)
				return storage.Row{ID: id, Cols: props}, err
			},
			scan: func(fn func(storage.Row) bool) error { return graph.ScanFrom("", fn) },
		},
	}
}

// The row-ownership rule of the package doc, for every engine: a stored
// row shares nothing with the values a caller wrote or the rows a caller
// read, nested lists and maps included, in either direction.
func TestStoredRowsAreIsolated(t *testing.T) {
	fresh := func(tag, city string) map[string]any {
		return map[string]any{"tags": []any{tag, "z"}, "meta": map[string]any{"city": city}}
	}
	// scribble overwrites everything a caller can reach through cols.
	scribble := func(cols map[string]any) {
		cols["tags"].([]any)[0] = "SCRIBBLED"
		cols["meta"].(map[string]any)["city"] = "SCRIBBLED"
		cols["tags"], cols["meta"] = "SCRIBBLED", "SCRIBBLED"
	}
	for _, e := range engines(t) {
		t.Run(e.name, func(t *testing.T) {
			check := func(after, tag, city string) {
				t.Helper()
				got, err := e.get("r1")
				if err != nil {
					t.Fatalf("after %s: %v", after, err)
				}
				want := fmt.Sprint([]any{tag, "z"}, map[string]any{"city": city})
				if have := fmt.Sprint(got.Cols["tags"], got.Cols["meta"]); have != want {
					t.Errorf("after %s the stored row reads %s, want %s", after, have, want)
				}
			}

			in := fresh("a", "paris")
			if err := e.insert("r1", in); err != nil {
				t.Fatal(err)
			}
			scribble(in)
			check("the writer scribbled on an inserted row", "a", "paris")

			in = fresh("b", "oslo")
			if err := e.merge("r1", in); err != nil {
				t.Fatal(err)
			}
			scribble(in)
			check("the writer scribbled on a merged row", "b", "oslo")

			out, err := e.get("r1")
			if err != nil {
				t.Fatal(err)
			}
			scribble(out.Cols)
			check("a reader scribbled on a point read", "b", "oslo")

			if err := e.scan(func(row storage.Row) bool {
				scribble(row.Cols)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			check("a reader scribbled on a scanned row", "b", "oslo")
		})
	}
}
