package columnorm

import (
	"testing"

	"synapse/internal/model"
	"synapse/internal/orm/ormtest"
	"synapse/internal/storage/coldb"
)

func TestConformanceCassandra(t *testing.T) {
	ormtest.Run(t, New(coldb.New()), true)
}

func TestExtraReadsCounted(t *testing.T) {
	m := New(coldb.New())
	if err := m.Register(ormtest.NewUserDescriptor()); err != nil {
		t.Fatal(err)
	}
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "a")
	if _, err := m.Create(rec); err != nil {
		t.Fatal(err)
	}
	patch := model.NewRecord("User", "u1")
	patch.Set("likes", 2)
	if _, err := m.Update(patch); err != nil {
		t.Fatal(err)
	}
	_, _, extra := m.Stats().Snapshot()
	if extra != 2 {
		t.Errorf("cassandra extra reads = %d, want 2", extra)
	}
}

func TestUpdateAfterFlushMergesAcrossSSTables(t *testing.T) {
	m := New(coldb.New())
	if err := m.Register(ormtest.NewUserDescriptor()); err != nil {
		t.Fatal(err)
	}
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "orig")
	rec.Set("likes", 1)
	if _, err := m.Create(rec); err != nil {
		t.Fatal(err)
	}
	m.DB().Flush()
	patch := model.NewRecord("User", "u1")
	patch.Set("likes", 5)
	written, err := m.Update(patch)
	if err != nil {
		t.Fatal(err)
	}
	if written.String("name") != "orig" || written.Int("likes") != 5 {
		t.Errorf("read-back = %+v", written.Attrs)
	}
}
