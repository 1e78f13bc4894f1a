package searchdb

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
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
	if gone, err := db.Delete("posts", "p1"); err != nil || gone.ID != "p1" || gone.Cols["body"] != "hello" {
		t.Fatalf("Delete = %+v, %v; want the removed document", gone, err)
	}
	ids, _ := db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "hello"}})
	if len(ids) != 0 {
		t.Fatal("token survived delete")
	}
	if _, err := db.Delete("posts", "p1"); !errors.Is(err, storage.ErrNotFound) {
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
	// Values int64 cannot hold each keep a token of their own.
	for i, v := range []float64{1e19, 2e19, math.NaN(), math.Inf(1), -1e300} {
		_ = db.Index("big", doc(fmt.Sprint(i), map[string]any{"v": v}))
	}
	buckets, _ := db.Aggregate("big", "v", Query{})
	if len(buckets) != 5 {
		t.Fatalf("Aggregate over five distinct values = %+v, want five buckets", buckets)
	}
	for _, b := range buckets {
		if ids, _ := db.Search("big", Query{Term: &TermQuery{Field: "v", Token: b.Token}}); len(ids) != 1 {
			t.Errorf("Term %q = %v, want one document", b.Token, ids)
		}
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

// A field's analyzer may change on a populated index: an update then
// removes the tokens the old value was indexed under, not the ones the new
// analyzer would make of it.
func TestAnalyzerChangeLeavesNoStalePostings(t *testing.T) {
	db := New()
	_ = db.Index("posts", doc("p1", map[string]any{"body": "Old Words"}))
	db.SetAnalyzer("posts", "body", SimpleAnalyzer)
	if err := db.Update("posts", doc("p1", map[string]any{"body": "new words"})); err != nil {
		t.Fatal(err)
	}
	if ids, _ := db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "Old Words"}}); len(ids) != 0 {
		t.Errorf("Term on the replaced keyword token = %v, want none", ids)
	}
	if ids, _ := db.Search("posts", Query{Term: &TermQuery{Field: "body", Token: "new"}}); len(ids) != 1 {
		t.Errorf("Term on a new token = %v, want [p1]", ids)
	}
	if b, _ := db.Aggregate("posts", "body", Query{}); len(b) != 2 {
		t.Errorf("Aggregate = %+v, want the two new tokens", b)
	}
}

// TestModelAgainstScan checks term and match searches and aggregations
// after random indexes, updates, deletes and range deletes against a
// brute-force scan of the documents a map holds. Field n declares no
// analyzer and takes few values over few documents, so its postings keep
// moving between none, one inline document and a set.
func TestModelAgainstScan(t *testing.T) {
	words := []string{"red", "green", "blue", "Red Fox", "fox"}
	analyzers := map[string]Analyzer{"body": SimpleAnalyzer, "tag": KeywordAnalyzer, "tags": KeywordAnalyzer, "n": KeywordAnalyzer}
	// numbers[i] is indexed under numberTokens[i].
	numbers := []any{int64(1), int64(2), float64(2), 2.5, 1e19}
	numberTokens := []string{"1", "2", "2", "2500e-3", "1e+19"}
	value := func(rng *rand.Rand, field string) any {
		switch field {
		case "tags":
			return []any{words[rng.Intn(len(words))], words[rng.Intn(len(words))], ""}
		case "n":
			return numbers[rng.Intn(len(numbers))]
		}
		ws := make([]string, rng.Intn(4)) // "" indexes no token

		for i := range ws {
			ws[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(ws, " ")
	}
	tokens := func(field string, v any) []string {
		var out []string
		switch v := v.(type) {
		case string:
			out = analyzers[field](v)
		case []any:
			for _, e := range v {
				out = append(out, analyzers[field](e.(string))...)
			}
		case int64, float64:
			out = []string{numberTokens[slices.Index(numbers, v)]}
		}
		return out
	}
	fields := slices.Sorted(maps.Keys(analyzers)) // a seed draws the same values every run
	ids := []string{"d0", "d1", "d2", "d3", "d4", "d5"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		for f, a := range analyzers {
			if f != "n" {
				db.SetAnalyzer("x", f, a)
			}
		}
		ref := make(map[string]map[string]any)
		for step := 0; step < 40; step++ {
			id := ids[rng.Intn(len(ids))]
			cols := make(map[string]any)
			for _, f := range fields {
				if rng.Intn(2) == 0 {
					cols[f] = value(rng, f)
				}
			}
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				op = fmt.Sprintf("Index %s %v", id, cols)
				_ = db.Index("x", doc(id, cols))
				ref[id] = maps.Clone(cols)
			case r < 7:
				op = fmt.Sprintf("Update %s %v", id, cols)
				err := db.Update("x", doc(id, cols))
				if stored, ok := ref[id]; ok {
					maps.Copy(stored, cols)
				} else if !errors.Is(err, storage.ErrNotFound) {
					t.Fatalf("seed %d step %d: %s of a missing doc = %v", seed, step, op, err)
				}
			case r < 9:
				op = "Delete " + id
				_, _ = db.Delete("x", id)
				delete(ref, id)
			default:
				from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				op = fmt.Sprintf("DeleteRange [%s, %s)", from, to)
				for id := range ref {
					if id >= from && id < to {
						delete(ref, id)
					}
				}
				_, _ = db.DeleteRange("x", from, to)
			}
			fail := func(format string, args ...any) {
				t.Fatalf("seed %d step %d after %s: %s", seed, step, op, fmt.Sprintf(format, args...))
			}
			for field := range analyzers {
				queried := words
				if field == "n" {
					queried = numberTokens
				}
				for _, w := range queried {
					for _, q := range []Query{
						{Term: &TermQuery{Field: field, Token: w}},
						{Match: &MatchQuery{Field: field, Text: w}},
					} {
						var want []string
						needed := analyzers[field](w)
						if q.Term != nil {
							needed = []string{w}
						}
						for id, cols := range ref {
							has := tokens(field, cols[field])
							if len(needed) > 0 && !slices.ContainsFunc(needed, func(tok string) bool { return !slices.Contains(has, tok) }) {
								want = append(want, id)
							}
						}
						sort.Strings(want)
						if got, _ := db.Search("x", q); fmt.Sprint(got) != fmt.Sprint(want) {
							fail("Search %s %q = %v, want %v", field, w, got, want)
						}
					}
				}
				counts := make(map[string]int)
				for _, cols := range ref {
					for _, tok := range tokens(field, cols[field]) {
						counts[tok]++
					}
				}
				got, _ := db.Aggregate("x", field, Query{})
				gotCounts := make(map[string]int)
				for _, b := range got {
					gotCounts[b.Token] = b.Count
				}
				if !reflect.DeepEqual(gotCounts, counts) && (len(gotCounts) > 0 || len(counts) > 0) {
					fail("Aggregate %s = %v, want %v", field, gotCounts, counts)
				}
			}
		}
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

// An update that moves a keyword field to a value no other document holds
// allocates nothing: the token is kept inline in the document and in its
// posting.
func TestUpdateAllocBudget(t *testing.T) {
	skipUnderRace(t)
	db := New()
	const n = 1000
	for _, id := range []string{"a", "b", "c"} {
		_ = db.Index("x", doc(id, map[string]any{"t": "first " + id, "kind": "post"}))
	}
	updates := make([]storage.Row, n)
	for i := range updates {
		updates[i] = doc("b", map[string]any{"t": fmt.Sprintf("t%05d", i)})
	}
	i := 0
	if got := testing.AllocsPerRun(n-1, func() {
		if err := db.Update("x", updates[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("Update to a unique keyword value = %v allocs, want 0", got)
	}
	if ids, _ := db.Search("x", Query{Term: &TermQuery{Field: "t", Token: fmt.Sprintf("t%05d", n-1)}}); fmt.Sprint(ids) != "[b]" {
		t.Errorf("Term on the last value = %v, want [b]", ids)
	}
}
