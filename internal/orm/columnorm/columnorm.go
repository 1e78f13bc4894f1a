// Package columnorm adapts the column-family engine (coldb) to the
// Synapse ORM surface — the Cequel/Cassandra stand-in from Table 1.
//
// Cassandra can neither return the rows a mutation wrote nor refuse a
// duplicate without paxos, so Create and Update check existence first, as
// Cequel does, and read the row back (§4.1): orm.WrittenNothing.
package columnorm

import (
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/coldb"
)

// Mapper implements orm.Mapper over coldb; column families come lazily.
type Mapper struct {
	orm.Registry
	db *coldb.DB
}

// New wraps a column-family database.
func New(db *coldb.DB) *Mapper {
	m := &Mapper{db: db}
	m.Bind(orm.Traits{ORM: "columnorm", Vendor: "cassandra", Publisher: true, Written: orm.WrittenNothing}, binding{db})
	return m
}

// DB exposes the underlying engine.
func (m *Mapper) DB() *coldb.DB { return m.db }

// binding is coldb as the skeleton sees it: every write is a mutation,
// and column writes merge cells natively, so Insert and Update are one.
type binding struct{ *coldb.DB }

func (b binding) Exists(fam, id string) (bool, error) { return b.DB.Exists(fam, id), nil }

func (b binding) Insert(fam string, row storage.Row, _ bool) (storage.Row, error) {
	return storage.Row{}, b.Apply(coldb.Mutation{Family: fam, ID: row.ID, Cols: row.Cols})
}

func (b binding) Update(fam string, row storage.Row, _ bool) (storage.Row, error) {
	return b.Insert(fam, row, false)
}

// Delete writes a tombstone, which returns nothing.
func (b binding) Delete(fam, id string) (storage.Row, error) {
	return storage.Row{}, b.Apply(coldb.Mutation{Family: fam, ID: id, Delete: true})
}

var _ orm.Mapper = (*Mapper)(nil)
