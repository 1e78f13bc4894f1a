package searchdb

import (
	"errors"
	"fmt"
	"testing"

	"synapse/internal/storage"
)

func doc(id string, cols map[string]any) storage.Row {
	return storage.Row{ID: id, Cols: cols}
}

func TestSimpleAnalyzer(t *testing.T) {
	toks := SimpleAnalyzer("Hello, World! go-lang 2024")
	want := []string{"hello", "world", "go", "lang", "2024"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", toks, want)
		}
	}
	if got := SimpleAnalyzer(""); len(got) != 0 {
		t.Errorf("empty input produced %v", got)
	}
}

func TestKeywordAnalyzer(t *testing.T) {
	if got := KeywordAnalyzer("Exact Value"); len(got) != 1 || got[0] != "Exact Value" {
		t.Errorf("KeywordAnalyzer = %v", got)
	}
	if got := KeywordAnalyzer(""); got != nil {
		t.Errorf("KeywordAnalyzer(\"\") = %v", got)
	}
}

func TestIndexAndTermSearch(t *testing.T) {
	db := New()
	db.SetAnalyzer("posts", "body", SimpleAnalyzer)
	_ = db.Index("posts", doc("p1", map[string]any{"body": "the quick brown fox"}))
	_ = db.Index("posts", doc("p2", map[string]any{"body": "lazy brown dog"}))

	ids, _ := db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "brown"}})
	if len(ids) != 2 {
		t.Fatalf("term search = %v", ids)
	}
	ids, _ = db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "fox"}})
	if len(ids) != 1 || ids[0] != "p1" {
		t.Fatalf("term search fox = %v", ids)
	}
}

func TestMatchQueryRequiresAllTokens(t *testing.T) {
	db := New()
	db.SetAnalyzer("posts", "body", SimpleAnalyzer)
	_ = db.Index("posts", doc("p1", map[string]any{"body": "the quick brown fox"}))
	_ = db.Index("posts", doc("p2", map[string]any{"body": "quick dog"}))

	ids, _ := db.Search("posts", Query{Match: &MatchQuery{Field: "body", Text: "Quick Fox"}})
	if len(ids) != 1 || ids[0] != "p1" {
		t.Fatalf("match search = %v", ids)
	}
	ids, _ = db.Search("posts", Query{Match: &MatchQuery{Field: "body", Text: "missing token"}})
	if len(ids) != 0 {
		t.Fatalf("match on absent tokens = %v", ids)
	}
}

func TestBoolQuery(t *testing.T) {
	db := New()
	db.SetAnalyzer("posts", "body", SimpleAnalyzer)
	_ = db.Index("posts", doc("p1", map[string]any{"body": "go databases", "lang": "en"}))
	_ = db.Index("posts", doc("p2", map[string]any{"body": "go compilers", "lang": "fr"}))
	_ = db.Index("posts", doc("p3", map[string]any{"body": "rust databases", "lang": "en"}))

	q := Query{
		Must: []Query{
			{Term: &TermQuery{Field: "lang", Token: "en"}},
		},
		Should: []Query{
			{Match: &MatchQuery{Field: "body", Text: "go"}},
			{Match: &MatchQuery{Field: "body", Text: "rust"}},
		},
	}
	ids, _ := db.Search("posts", q)
	if len(ids) != 2 || ids[0] != "p1" || ids[1] != "p3" {
		t.Fatalf("bool search = %v", ids)
	}
}

func TestMatchAllQuery(t *testing.T) {
	db := New()
	_ = db.Index("x", doc("1", map[string]any{"a": "b"}))
	_ = db.Index("x", doc("2", map[string]any{"a": "c"}))
	ids, _ := db.Search("x", Query{})
	if len(ids) != 2 {
		t.Fatalf("match-all = %v", ids)
	}
}

func TestReindexOnUpdate(t *testing.T) {
	db := New()
	db.SetAnalyzer("posts", "body", SimpleAnalyzer)
	_ = db.Index("posts", doc("p1", map[string]any{"body": "old words"}))
	_ = db.Index("posts", doc("p1", map[string]any{"body": "new words"}))
	ids, _ := db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "old"}})
	if len(ids) != 0 {
		t.Fatal("stale token survived reindex")
	}
	ids, _ = db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "new"}})
	if len(ids) != 1 {
		t.Fatal("new token missing after reindex")
	}
}

func TestDeleteUnindexes(t *testing.T) {
	db := New()
	db.SetAnalyzer("posts", "body", SimpleAnalyzer)
	_ = db.Index("posts", doc("p1", map[string]any{"body": "hello"}))
	if err := db.Delete("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	ids, _ := db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "hello"}})
	if len(ids) != 0 {
		t.Fatal("token survived delete")
	}
	if err := db.Delete("posts", "p1"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
}

func TestArrayFieldIndexing(t *testing.T) {
	db := New()
	_ = db.Index("users", doc("u1", map[string]any{"interests": []any{"cats", "dogs"}}))
	_ = db.Index("users", doc("u2", map[string]any{"interests": []any{"cats"}}))
	ids, _ := db.Search("users", Query{Term: &TermQuery{Field: "interests", Token: "dogs"}})
	if len(ids) != 1 || ids[0] != "u1" {
		t.Fatalf("array term search = %v", ids)
	}
}

func TestAggregate(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		_ = db.Index("events", doc(fmt.Sprintf("e%d", i), map[string]any{
			"kind": fmt.Sprintf("k%d", i%3),
			"app":  "main",
		}))
	}
	buckets, _ := db.Aggregate("events", "kind", Query{Term: &TermQuery{Field: "app", Token: "main"}})
	if len(buckets) != 3 {
		t.Fatalf("buckets = %+v", buckets)
	}
	if buckets[0].Token != "k0" || buckets[0].Count != 4 {
		t.Fatalf("top bucket = %+v", buckets[0])
	}
	if buckets[1].Count != 3 || buckets[2].Count != 3 {
		t.Fatalf("buckets = %+v", buckets)
	}
}

func TestNumericTokens(t *testing.T) {
	db := New()
	_ = db.Index("m", doc("1", map[string]any{"n": int64(42), "f": float64(42)}))
	ids, _ := db.Search("m", Query{Term: &TermQuery{Field: "n", Token: "42"}})
	if len(ids) != 1 {
		t.Fatalf("int token search = %v", ids)
	}
	ids, _ = db.Search("m", Query{Term: &TermQuery{Field: "f", Token: "42"}})
	if len(ids) != 1 {
		t.Fatalf("float token search = %v", ids)
	}
}

func TestGetAndScanFrom(t *testing.T) {
	db := New()
	for i := 0; i < 5; i++ {
		_ = db.Index("x", doc(fmt.Sprintf("d%d", i), map[string]any{"v": int64(i)}))
	}
	got, err := db.Get("x", "d3")
	if err != nil || got.Cols["v"] != int64(3) {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if _, err := db.Get("x", "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Get missing = %v", err)
	}
	var ids []string
	_ = db.ScanFrom("x", "d2", func(r storage.Row) bool {
		ids = append(ids, r.ID)
		return true
	})
	if len(ids) != 3 || ids[0] != "d2" {
		t.Fatalf("ScanFrom = %v", ids)
	}
	if db.Len("x") != 5 || db.Len("missing") != 0 {
		t.Error("Len misreported")
	}
}

func TestClosedRejectsWrites(t *testing.T) {
	db := New()
	db.Close()
	if err := db.Index("x", doc("1", nil)); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("index after close = %v", err)
	}
}

func TestDeleteRangeUnindexes(t *testing.T) {
	db := New()
	db.SetAnalyzer("posts", "body", SimpleAnalyzer)
	for _, id := range []string{"p1", "p2", "p3"} {
		_ = db.Index("posts", doc(id, map[string]any{"body": "hello " + id}))
	}
	if n, err := db.DeleteRange("posts", "p1", "p3"); n != 2 || err != nil {
		t.Fatalf("DeleteRange = %d, %v; want 2, nil", n, err)
	}
	ids, _ := db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "hello"}})
	if len(ids) != 1 || ids[0] != "p3" {
		t.Errorf("Search after DeleteRange = %v, want [p3]", ids)
	}
	if ids, _ := db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "p1"}}); len(ids) != 0 {
		t.Error("a token of a deleted document survived")
	}
	if n, err := db.DeleteRange("never", "a", "z"); n != 0 || err != nil {
		t.Errorf("DeleteRange on a missing index = %d, %v", n, err)
	}
}
