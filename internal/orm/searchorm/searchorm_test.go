package searchorm

import (
	"testing"

	"synapse/internal/model"
	"synapse/internal/orm/ormtest"
	"synapse/internal/storage/searchdb"
)

func TestConformanceElasticsearch(t *testing.T) {
	ormtest.Run(t, New(searchdb.New()), false)
}

func TestAnalyzedSearchThroughMapper(t *testing.T) {
	m := New(searchdb.New())
	d := model.NewDescriptor("Post",
		model.Field{Name: "body", Type: model.String},
		model.Field{Name: "author", Type: model.String},
	)
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	m.SetAnalyzer("Post", "body", searchdb.SimpleAnalyzer)

	for i, body := range []string{"the quick brown fox", "lazy brown dog", "green turtle"} {
		rec := model.NewRecord("Post", string(rune('a'+i)))
		rec.Set("body", body)
		rec.Set("author", "x")
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := m.Search("Post", searchdb.Query{Match: &searchdb.MatchQuery{Field: "body", Text: "BROWN"}})
	if err != nil || len(recs) != 2 {
		t.Fatalf("Search = %d recs, %v", len(recs), err)
	}
	buckets, err := m.Aggregate("Post", "author", searchdb.Query{})
	if err != nil || len(buckets) != 1 || buckets[0].Count != 3 {
		t.Fatalf("Aggregate = %+v, %v", buckets, err)
	}
}

func TestSaveMergePreservesDecorations(t *testing.T) {
	m := New(searchdb.New())
	d := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "interests", Type: model.StringList},
	)
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	base := model.NewRecord("User", "u1")
	base.Set("name", "alice")
	if err := m.Save(base); err != nil {
		t.Fatal(err)
	}
	deco := model.NewRecord("User", "u1")
	deco.Set("interests", []string{"cats"})
	if err := m.Save(deco); err != nil {
		t.Fatal(err)
	}
	got, err := m.Find("User", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if got.String("name") != "alice" || len(got.Strings("interests")) != 1 {
		t.Errorf("merged doc = %+v", got.Attrs)
	}
	// Both halves remain searchable.
	ids, _ := m.DB().Search("users", searchdb.Query{Term: &searchdb.TermQuery{Field: "interests", Token: "cats"}})
	if len(ids) != 1 {
		t.Error("decoration not indexed")
	}
}

func TestDeleteRangeCleansInvertedIndex(t *testing.T) {
	m := New(searchdb.New())
	d := model.NewDescriptor("Post", model.Field{Name: "body", Type: model.String})
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	m.SetAnalyzer("Post", "body", searchdb.SimpleAnalyzer)
	for _, id := range []string{"a", "b", "c"} {
		rec := model.NewRecord("Post", id)
		rec.Set("body", "brown fox")
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := m.DeleteRange("Post", "a", "c"); n != 2 || err != nil {
		t.Fatalf("DeleteRange = %d, %v; want 2, nil", n, err)
	}
	recs, err := m.Search("Post", searchdb.Query{Match: &searchdb.MatchQuery{Field: "body", Text: "fox"}})
	if err != nil || len(recs) != 1 || recs[0].ID != "c" {
		t.Errorf("Search after DeleteRange = %+v, %v; want only c", recs, err)
	}
}
