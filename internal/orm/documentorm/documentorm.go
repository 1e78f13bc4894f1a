// Package documentorm adapts the document engine (docdb) to the Synapse
// ORM surface — the Mongoid/NoBrainer stand-in covering MongoDB, TokuMX,
// and RethinkDB from Table 1. Document stores report written documents
// from write queries, so no extra read-back queries are needed (the
// zero-DB-LoC rows of Table 3).
package documentorm

import (
	"errors"
	"fmt"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/docdb"
)

// Mapper implements orm.Mapper over docdb.
type Mapper struct {
	orm.Registry
	db *docdb.DB
}

// New wraps a document database.
func New(db *docdb.DB) *Mapper { return &Mapper{db: db} }

// Name identifies the ORM.
func (m *Mapper) Name() string { return "documentorm" }

// Engine identifies the backing vendor.
func (m *Mapper) Engine() string { return m.db.Flavor().Name }

// DB exposes the underlying engine.
func (m *Mapper) DB() *docdb.DB { return m.db }

// Register records the descriptor; document stores need no schema setup.
func (m *Mapper) Register(d *model.Descriptor) error {
	m.Registry.Add(d)
	return nil
}

func (m *Mapper) collection(modelName string) (string, *model.Descriptor, error) {
	d, ok := m.Descriptor(modelName)
	if !ok {
		return "", nil, fmt.Errorf("%w: %s", orm.ErrUnknownModel, modelName)
	}
	return orm.Tableize(modelName), d, nil
}

func toDoc(rec *model.Record) storage.Row {
	return storage.Row{ID: rec.ID, Cols: rec.Clone().Attrs}
}

func toRecord(modelName string, doc storage.Row) *model.Record {
	rec := model.NewRecord(modelName, doc.ID)
	rec.Merge(doc.Clone().Cols)
	return rec
}

// Find loads one document by id.
func (m *Mapper) Find(modelName, id string) (*model.Record, error) {
	coll, _, err := m.collection(modelName)
	if err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	doc, err := m.db.Get(coll, id)
	if err != nil {
		return nil, err
	}
	return toRecord(modelName, doc), nil
}

// Create persists a new document and returns it as written.
func (m *Mapper) Create(rec *model.Record) (*model.Record, error) {
	coll, d, err := m.collection(rec.Model)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(rec); err != nil {
		return nil, err
	}
	if err := m.RunCallbacks(model.BeforeCreate, rec); err != nil {
		return nil, err
	}
	m.Stats().Writes.Add(1)
	doc, err := m.db.Insert(coll, toDoc(rec))
	if err != nil {
		return nil, err
	}
	written := toRecord(rec.Model, doc)
	if err := m.RunCallbacks(model.AfterCreate, written); err != nil {
		return nil, err
	}
	return written, nil
}

// Update merges attributes into the stored document.
func (m *Mapper) Update(rec *model.Record) (*model.Record, error) {
	coll, d, err := m.collection(rec.Model)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(rec); err != nil {
		return nil, err
	}
	if err := m.RunCallbacks(model.BeforeUpdate, rec); err != nil {
		return nil, err
	}
	m.Stats().Writes.Add(1)
	doc, err := m.db.Update(coll, rec.ID, rec.Clone().Attrs)
	if err != nil {
		return nil, err
	}
	written := toRecord(rec.Model, doc)
	if err := m.RunCallbacks(model.AfterUpdate, written); err != nil {
		return nil, err
	}
	return written, nil
}

// Delete removes a document.
func (m *Mapper) Delete(modelName, id string) error {
	coll, _, err := m.collection(modelName)
	if err != nil {
		return err
	}
	rec := model.NewRecord(modelName, id)
	m.Stats().Reads.Add(1)
	if doc, err := m.db.Get(coll, id); err == nil {
		rec = toRecord(modelName, doc)
	}
	if err := m.RunCallbacks(model.BeforeDestroy, rec); err != nil {
		return err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.Delete(coll, id); err != nil {
		return err
	}
	return m.RunCallbacks(model.AfterDestroy, rec)
}

// DeleteRange removes the documents with from <= id < to in one
// statement.
func (m *Mapper) DeleteRange(modelName, from, to string) (int, error) {
	coll, _, err := m.collection(modelName)
	if err != nil {
		return 0, err
	}
	return m.db.DeleteRange(coll, from, to)
}

// Save upserts, merging attributes to preserve decorations.
func (m *Mapper) Save(rec *model.Record) error {
	coll, d, err := m.collection(rec.Model)
	if err != nil {
		return err
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	_, findErr := m.db.Get(coll, rec.ID)
	switch {
	case findErr == nil:
		if err := m.RunCallbacks(model.BeforeUpdate, rec); err != nil {
			return err
		}
		m.Stats().Writes.Add(1)
		if _, err := m.db.Update(coll, rec.ID, rec.Clone().Attrs); err != nil {
			return err
		}
		return m.RunCallbacks(model.AfterUpdate, rec)
	case errors.Is(findErr, storage.ErrNotFound):
		if err := m.RunCallbacks(model.BeforeCreate, rec); err != nil {
			return err
		}
		m.Stats().Writes.Add(1)
		if _, err := m.db.Insert(coll, toDoc(rec)); err != nil {
			return err
		}
		return m.RunCallbacks(model.AfterCreate, rec)
	default:
		return findErr
	}
}

// Each streams documents with id >= from in id order.
func (m *Mapper) Each(modelName, from string, fn func(*model.Record) bool) error {
	coll, _, err := m.collection(modelName)
	if err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	return m.db.ScanFrom(coll, from, func(doc storage.Row) bool {
		return fn(toRecord(modelName, doc))
	})
}

// Len reports the number of stored documents for the model.
func (m *Mapper) Len(modelName string) int {
	coll, _, err := m.collection(modelName)
	if err != nil {
		return 0
	}
	return m.db.Len(coll)
}

var _ orm.Mapper = (*Mapper)(nil)
