// Package documentorm adapts the document engine (docdb) to the Synapse
// ORM surface — the Mongoid/NoBrainer stand-in covering MongoDB, TokuMX,
// and RethinkDB from Table 1. Document stores report written documents
// from write queries, so no extra read-back queries are needed (the
// zero-DB-LoC rows of Table 3).
package documentorm

import (
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/docdb"
)

// Mapper implements orm.Mapper over docdb; there is no schema to set up.
type Mapper struct {
	orm.Registry
	db *docdb.DB
}

// New wraps a document database.
func New(db *docdb.DB) *Mapper {
	m := &Mapper{db: db}
	m.Bind(orm.Traits{ORM: "documentorm", Vendor: db.Flavor().Name, Publisher: true, Written: orm.WrittenRow}, binding{db})
	return m
}

// DB exposes the underlying engine.
func (m *Mapper) DB() *docdb.DB { return m.db }

// binding is docdb as the skeleton sees it; the engine's calls already
// have the binding's shape.
type binding struct{ *docdb.DB }

func (b binding) Exists(coll, id string) (bool, error) { return b.DB.Exists(coll, id), nil }

func (b binding) Update(coll string, doc storage.Row, returning bool) (storage.Row, error) {
	return b.DB.Update(coll, doc.ID, doc.Cols, returning)
}

var _ orm.Mapper = (*Mapper)(nil)
