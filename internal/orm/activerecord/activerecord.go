// Package activerecord adapts the relational engine (reldb) to the
// Synapse ORM surface — the ActiveRecord stand-in covering PostgreSQL,
// MySQL, and Oracle from Table 1.
//
// Where the flavour supports RETURNING (PostgreSQL, Oracle), written
// rows come back from the write query itself; on MySQL the skeleton runs
// the additional read query the paper describes, counted in
// Stats().ExtraReads (§4.1).
package activerecord

import (
	"errors"
	"sync"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/reldb"
)

// Mapper implements orm.Mapper and orm.Transactional over reldb.
type Mapper struct {
	orm.Registry
	db  *reldb.DB
	txs sync.Pool // of *Tx, handed back by Tx.Release
}

// New wraps a relational database.
func New(db *reldb.DB) *Mapper {
	m := &Mapper{db: db}
	t := orm.Traits{ORM: "activerecord", Vendor: db.Flavor().Name, Publisher: true, Written: orm.WrittenStatus}
	if db.Flavor().Returning {
		t.Written = orm.WrittenRow
	}
	m.Bind(t, binding{db})
	return m
}

// DB exposes the underlying engine (examples issue native queries).
func (m *Mapper) DB() *reldb.DB { return m.db }

// Register creates the model's table with one column per declared field.
func (m *Mapper) Register(d *model.Descriptor) error {
	table := orm.Tableize(d.Name)
	m.RegisterAs(d, table)
	cols := make([]reldb.Column, 0, len(d.Fields()))
	for _, f := range allFields(d) {
		cols = append(cols, reldb.Column{Name: f.Name, Indexed: f.Indexed})
	}
	err := m.db.CreateTable(table, cols...)
	if errors.Is(err, storage.ErrExists) {
		return nil // re-registration after live schema migration
	}
	return err
}

// allFields flattens the inheritance chain (single-table inheritance).
func allFields(d *model.Descriptor) []model.Field {
	var out []model.Field
	seen := make(map[string]struct{})
	for cur := d; cur != nil; cur = cur.Parent {
		for _, f := range cur.Fields() {
			if _, ok := seen[f.Name]; ok {
				continue
			}
			seen[f.Name] = struct{}{}
			out = append(out, f)
		}
	}
	return out
}

// binding is reldb as the skeleton sees it; the engine's calls already
// have the binding's shape.
type binding struct{ *reldb.DB }

func (b binding) Update(table string, row storage.Row, returning bool) (storage.Row, error) {
	return b.DB.Update(table, row.ID, row.Cols, returning)
}

func (b binding) Len(table string) int {
	n, _ := b.DB.Len(table) // no table, no rows
	return n
}

var _ orm.Mapper = (*Mapper)(nil)
var _ orm.Transactional = (*Mapper)(nil)
