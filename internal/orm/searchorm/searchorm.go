// Package searchorm adapts the search engine (searchdb) to the Synapse
// ORM surface — the Stretcher/Elasticsearch stand-in from Table 1.
// Elasticsearch is subscriber-only in the paper (Table 3: Pub? N/A), so
// publisher-side Create/Update return orm.ErrReadOnly; the subscriber
// path (Save, Delete) indexes documents with the per-field analyzers
// declared at registration.
package searchorm

import (
	"fmt"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/searchdb"
)

// Mapper implements the subscriber half of orm.Mapper over searchdb. Use
// SetAnalyzer to declare per-field analysis (Fig 4's `analyzer: :simple`).
type Mapper struct {
	orm.Registry
	db *searchdb.DB
}

// New wraps a search database.
func New(db *searchdb.DB) *Mapper {
	m := &Mapper{db: db}
	m.Bind(orm.Traits{ORM: "searchorm", Vendor: "elasticsearch"}, binding{db})
	return m
}

// DB exposes the underlying engine (examples run searches/aggregations).
func (m *Mapper) DB() *searchdb.DB { return m.db }

// binding is searchdb as the skeleton sees it. A stored document takes a
// partial update, so partial subscriptions and decorations coexist.
type binding struct{ *searchdb.DB }

func (b binding) Exists(idx, id string) (bool, error) { return b.DB.Exists(idx, id), nil }

func (b binding) Insert(idx string, doc storage.Row, _ bool) (storage.Row, error) {
	return storage.Row{}, b.Index(idx, doc)
}

func (b binding) Update(idx string, doc storage.Row, _ bool) (storage.Row, error) {
	return storage.Row{}, b.DB.Update(idx, doc)
}

// SetAnalyzer declares the analyzer for a model field.
func (m *Mapper) SetAnalyzer(modelName, field string, a searchdb.Analyzer) {
	m.db.SetAnalyzer(orm.Tableize(modelName), field, a)
}

func (m *Mapper) index(modelName string) (string, error) {
	if _, ok := m.Descriptor(modelName); !ok {
		return "", fmt.Errorf("%w: %s", orm.ErrUnknownModel, modelName)
	}
	return orm.Tableize(modelName), nil
}

// Search runs a query against the model's index and returns matching
// records.
func (m *Mapper) Search(modelName string, q searchdb.Query) ([]*model.Record, error) {
	idx, err := m.index(modelName)
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
		out = append(out, orm.Adopt(modelName, doc))
	}
	return out, nil
}

// Aggregate computes term buckets over a field of the model's index.
func (m *Mapper) Aggregate(modelName, field string, q searchdb.Query) ([]searchdb.Bucket, error) {
	idx, err := m.index(modelName)
	if err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	return m.db.Aggregate(idx, field, q)
}

var _ orm.Mapper = (*Mapper)(nil)
