package graphorm

import (
	"testing"

	"synapse/internal/model"
	"synapse/internal/orm/ormtest"
	"synapse/internal/storage/graphdb"
)

func TestConformanceNeo4j(t *testing.T) {
	ormtest.Run(t, New(graphdb.New()), false)
}

func TestRelateTraverseThroughMapper(t *testing.T) {
	m := New(graphdb.New())
	d := model.NewDescriptor("User",
		model.Field{Name: "name", Type: model.String},
		model.Field{Name: "likes", Type: model.Int},
	)
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		rec := model.NewRecord("User", id)
		rec.Set("name", id)
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Relate("User", "a", "FRIEND", "User", "b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Relate("User", "b", "FRIEND", "User", "c"); err != nil {
		t.Fatal(err)
	}
	if got := m.Neighbors("User", "a", "FRIEND"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Neighbors = %v", got)
	}
	if got := m.Network("User", "a", "FRIEND", 2); len(got) != 2 {
		t.Fatalf("Network = %v", got)
	}
	if err := m.Unrelate("User", "a", "FRIEND", "User", "b"); err != nil {
		t.Fatal(err)
	}
	if got := m.Neighbors("User", "a", "FRIEND"); len(got) != 0 {
		t.Fatalf("Neighbors after unrelate = %v", got)
	}
}

func TestModelNamespacesDoNotCollide(t *testing.T) {
	m := New(graphdb.New())
	for _, name := range []string{"User", "Product"} {
		d := model.NewDescriptor(name, model.Field{Name: "name", Type: model.String})
		if err := m.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	u := model.NewRecord("User", "1")
	u.Set("name", "user-one")
	p := model.NewRecord("Product", "1")
	p.Set("name", "product-one")
	if err := m.Save(u); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(p); err != nil {
		t.Fatal(err)
	}
	gu, err := m.Find("User", "1")
	if err != nil || gu.String("name") != "user-one" {
		t.Fatalf("User = %+v, %v", gu, err)
	}
	gp, err := m.Find("Product", "1")
	if err != nil || gp.String("name") != "product-one" {
		t.Fatalf("Product = %+v, %v", gp, err)
	}
	if m.Len("User") != 1 || m.Len("Product") != 1 {
		t.Errorf("Len: users=%d products=%d", m.Len("User"), m.Len("Product"))
	}
}

func TestDeleteDetachesEdges(t *testing.T) {
	m := New(graphdb.New())
	d := model.NewDescriptor("User", model.Field{Name: "name", Type: model.String})
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		rec := model.NewRecord("User", id)
		if err := m.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Relate("User", "a", "FRIEND", "User", "b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("User", "b"); err != nil {
		t.Fatal(err)
	}
	if got := m.Neighbors("User", "a", "FRIEND"); len(got) != 0 {
		t.Fatalf("dangling edges = %v", got)
	}
}

// DeleteRange is scoped to the model's nodes and detaches them.
func TestDeleteRangeScopedAndDetached(t *testing.T) {
	m := New(graphdb.New())
	for _, name := range []string{"User", "Usher"} {
		if err := m.Register(model.NewDescriptor(name, model.Field{Name: "name", Type: model.String})); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		for _, name := range []string{"User", "Usher"} {
			if err := m.Save(model.NewRecord(name, id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Relate("User", "a", "FRIEND", "User", "b"); err != nil {
		t.Fatal(err)
	}
	if n, err := m.DeleteRange("User", "b", "z"); n != 2 || err != nil {
		t.Fatalf("DeleteRange = %d, %v; want 2, nil", n, err)
	}
	if got := m.Neighbors("User", "a", "FRIEND"); len(got) != 0 {
		t.Errorf("a deleted node is still a neighbour: %v", got)
	}
	if m.Len("User") != 1 || m.Len("Usher") != 3 {
		t.Errorf("Len = %d users, %d ushers; want 1, 3", m.Len("User"), m.Len("Usher"))
	}
}
