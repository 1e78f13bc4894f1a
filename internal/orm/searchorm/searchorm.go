// Package searchorm adapts the search engine (searchdb) to the Synapse
// ORM surface — the Stretcher/Elasticsearch stand-in from Table 1.
// Elasticsearch is subscriber-only in the paper (Table 3: Pub? N/A), so
// publisher-side Create/Update/Delete return orm.ErrReadOnly; the
// subscriber path (Save, Delete via Save of a tombstone) indexes
// documents with the per-field analyzers declared at registration.
package searchorm

import (
	"fmt"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/searchdb"
)

// Mapper implements the subscriber half of orm.Mapper over searchdb.
type Mapper struct {
	orm.Registry
	db *searchdb.DB
}

// New wraps a search database.
func New(db *searchdb.DB) *Mapper { return &Mapper{db: db} }

// Name identifies the ORM.
func (m *Mapper) Name() string { return "searchorm" }

// Engine identifies the backing vendor.
func (m *Mapper) Engine() string { return "elasticsearch" }

// DB exposes the underlying engine (examples run searches/aggregations).
func (m *Mapper) DB() *searchdb.DB { return m.db }

// Register records the descriptor. Use SetAnalyzer to declare per-field
// analysis (the `property :name, analyzer: :simple` of Fig 4).
func (m *Mapper) Register(d *model.Descriptor) error {
	m.Registry.Add(d)
	return nil
}

// SetAnalyzer declares the analyzer for a model field.
func (m *Mapper) SetAnalyzer(modelName, field string, a searchdb.Analyzer) {
	m.db.SetAnalyzer(orm.Tableize(modelName), field, a)
}

func (m *Mapper) index(modelName string) (string, *model.Descriptor, error) {
	d, ok := m.Descriptor(modelName)
	if !ok {
		return "", nil, fmt.Errorf("%w: %s", orm.ErrUnknownModel, modelName)
	}
	return orm.Tableize(modelName), d, nil
}

func toRecord(modelName string, doc storage.Row) *model.Record {
	rec := model.NewRecord(modelName, doc.ID)
	rec.Merge(doc.Clone().Cols)
	return rec
}

// Find loads one document by id.
func (m *Mapper) Find(modelName, id string) (*model.Record, error) {
	idx, _, err := m.index(modelName)
	if err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	doc, err := m.db.Get(idx, id)
	if err != nil {
		return nil, err
	}
	return toRecord(modelName, doc), nil
}

// Create is unsupported: the adapter is subscriber-only.
func (m *Mapper) Create(*model.Record) (*model.Record, error) { return nil, orm.ErrReadOnly }

// Update is unsupported: the adapter is subscriber-only.
func (m *Mapper) Update(*model.Record) (*model.Record, error) { return nil, orm.ErrReadOnly }

// Delete removes a document (subscribers must apply publisher deletes).
func (m *Mapper) Delete(modelName, id string) error {
	idx, _, err := m.index(modelName)
	if err != nil {
		return err
	}
	rec := model.NewRecord(modelName, id)
	m.Stats().Reads.Add(1)
	if doc, err := m.db.Get(idx, id); err == nil {
		rec = toRecord(modelName, doc)
	}
	if err := m.RunCallbacks(model.BeforeDestroy, rec); err != nil {
		return err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.Delete(idx, id); err != nil {
		return err
	}
	return m.RunCallbacks(model.AfterDestroy, rec)
}

// DeleteRange removes the documents with from <= id < to in one
// statement.
func (m *Mapper) DeleteRange(modelName, from, to string) (int, error) {
	idx, _, err := m.index(modelName)
	if err != nil {
		return 0, err
	}
	return m.db.DeleteRange(idx, from, to)
}

// Save indexes the document, merging with any existing copy so partial
// subscriptions and decorations coexist.
func (m *Mapper) Save(rec *model.Record) error {
	idx, d, err := m.index(rec.Model)
	if err != nil {
		return err
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	existing, findErr := m.db.Get(idx, rec.ID)
	exists := findErr == nil
	before, after := model.BeforeCreate, model.AfterCreate
	merged := rec.Clone()
	if exists {
		before, after = model.BeforeUpdate, model.AfterUpdate
		base := toRecord(rec.Model, existing)
		base.Merge(rec.Attrs)
		merged = base
	}
	if err := m.RunCallbacks(before, rec); err != nil {
		return err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.Index(idx, storage.Row{ID: merged.ID, Cols: merged.Attrs}); err != nil {
		return err
	}
	return m.RunCallbacks(after, rec)
}

// Each streams documents with id >= from in id order.
func (m *Mapper) Each(modelName, from string, fn func(*model.Record) bool) error {
	idx, _, err := m.index(modelName)
	if err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	return m.db.ScanFrom(idx, from, func(doc storage.Row) bool {
		return fn(toRecord(modelName, doc))
	})
}

// Len reports the number of indexed documents for the model.
func (m *Mapper) Len(modelName string) int {
	idx, _, err := m.index(modelName)
	if err != nil {
		return 0
	}
	return m.db.Len(idx)
}

// Search runs a query against the model's index and returns matching
// records.
func (m *Mapper) Search(modelName string, q searchdb.Query) ([]*model.Record, error) {
	idx, _, err := m.index(modelName)
	if err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	ids, err := m.db.Search(idx, q)
	if err != nil {
		return nil, err
	}
	out := make([]*model.Record, 0, len(ids))
	for _, id := range ids {
		doc, err := m.db.Get(idx, id)
		if err != nil {
			continue
		}
		out = append(out, toRecord(modelName, doc))
	}
	return out, nil
}

// Aggregate computes term buckets over a field of the model's index.
func (m *Mapper) Aggregate(modelName, field string, q searchdb.Query) ([]searchdb.Bucket, error) {
	idx, _, err := m.index(modelName)
	if err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	return m.db.Aggregate(idx, field, q)
}

var _ orm.Mapper = (*Mapper)(nil)
