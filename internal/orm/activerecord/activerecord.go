// Package activerecord adapts the relational engine (reldb) to the
// Synapse ORM surface — the ActiveRecord stand-in covering PostgreSQL,
// MySQL, and Oracle from Table 1.
//
// Where the flavour supports RETURNING (PostgreSQL, Oracle), written
// rows come back from the write query itself; on MySQL the adapter runs
// the additional read query the paper describes, counted in
// Stats().ExtraReads (§4.1).
package activerecord

import (
	"errors"
	"fmt"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/reldb"
)

// Mapper implements orm.Mapper and orm.Transactional over reldb.
type Mapper struct {
	orm.Registry
	db *reldb.DB
}

// New wraps a relational database.
func New(db *reldb.DB) *Mapper { return &Mapper{db: db} }

// Name identifies the ORM.
func (m *Mapper) Name() string { return "activerecord" }

// Engine identifies the backing vendor.
func (m *Mapper) Engine() string { return m.db.Flavor().Name }

// DB exposes the underlying engine (examples issue native queries).
func (m *Mapper) DB() *reldb.DB { return m.db }

// Register creates the model's table with one column per declared field.
func (m *Mapper) Register(d *model.Descriptor) error {
	m.Registry.Add(d)
	cols := make([]reldb.Column, 0, len(d.Fields))
	for _, f := range allFields(d) {
		cols = append(cols, reldb.Column{Name: f.Name, Indexed: f.Indexed})
	}
	err := m.db.CreateTable(orm.Tableize(d.Name), cols...)
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
		for _, f := range cur.Fields {
			if _, ok := seen[f.Name]; ok {
				continue
			}
			seen[f.Name] = struct{}{}
			out = append(out, f)
		}
	}
	return out
}

func (m *Mapper) table(modelName string) (string, *model.Descriptor, error) {
	d, ok := m.Descriptor(modelName)
	if !ok {
		return "", nil, fmt.Errorf("%w: %s", orm.ErrUnknownModel, modelName)
	}
	return orm.Tableize(modelName), d, nil
}

// The engine copies on the way in and on the way out, so the adapter
// makes no copy of its own: toRow lends the record's attributes to a
// call that clones them, and toRecord adopts a row the engine already
// cloned for the caller.
func toRow(rec *model.Record) storage.Row {
	return storage.Row{ID: rec.ID, Cols: rec.Attrs}
}

func toRecord(modelName string, row storage.Row) *model.Record {
	if row.Cols == nil {
		return model.NewRecord(modelName, row.ID)
	}
	return &model.Record{Model: modelName, ID: row.ID, Attrs: row.Cols}
}

// Find loads one object by primary key.
func (m *Mapper) Find(modelName, id string) (*model.Record, error) {
	table, _, err := m.table(modelName)
	if err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	row, err := m.db.Get(table, id)
	if err != nil {
		return nil, err
	}
	return toRecord(modelName, row), nil
}

// Create persists a new object and returns it as written.
func (m *Mapper) Create(rec *model.Record) (*model.Record, error) {
	table, d, err := m.table(rec.Model)
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
	row, err := m.db.Insert(table, toRow(rec))
	if err != nil {
		return nil, err
	}
	written := rec
	if m.db.Flavor().Returning {
		written = toRecord(rec.Model, row)
	} else {
		// The engine cannot return written rows: issue the additional
		// read query of §4.1.
		m.Stats().ExtraReads.Add(1)
		back, err := m.db.Get(table, rec.ID)
		if err != nil {
			return nil, err
		}
		written = toRecord(rec.Model, back)
	}
	if err := m.RunCallbacks(model.AfterCreate, written); err != nil {
		return nil, err
	}
	return written, nil
}

// Update merges the record's attributes into the stored object.
func (m *Mapper) Update(rec *model.Record) (*model.Record, error) {
	table, d, err := m.table(rec.Model)
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
	row, err := m.db.Update(table, rec.ID, rec.Attrs)
	if err != nil {
		return nil, err
	}
	written := rec
	if m.db.Flavor().Returning {
		written = toRecord(rec.Model, row)
	} else {
		m.Stats().ExtraReads.Add(1)
		back, err := m.db.Get(table, rec.ID)
		if err != nil {
			return nil, err
		}
		written = toRecord(rec.Model, back)
	}
	if err := m.RunCallbacks(model.AfterUpdate, written); err != nil {
		return nil, err
	}
	return written, nil
}

// Delete removes an object, running destroy callbacks with the object's
// last state when it can be loaded.
func (m *Mapper) Delete(modelName, id string) error {
	table, _, err := m.table(modelName)
	if err != nil {
		return err
	}
	rec := model.NewRecord(modelName, id)
	m.Stats().Reads.Add(1)
	if row, err := m.db.Get(table, id); err == nil {
		rec = toRecord(modelName, row)
	}
	if err := m.RunCallbacks(model.BeforeDestroy, rec); err != nil {
		return err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.Delete(table, id); err != nil {
		return err
	}
	return m.RunCallbacks(model.AfterDestroy, rec)
}

// DeleteRange removes the objects with from <= id < to in one statement.
func (m *Mapper) DeleteRange(modelName, from, to string) (int, error) {
	table, _, err := m.table(modelName)
	if err != nil {
		return 0, err
	}
	return m.db.DeleteRange(table, from, to)
}

// Save upserts: update callbacks and an attribute merge when the object
// exists, create callbacks and an insert otherwise. Merging (rather than
// replacing) preserves decoration attributes owned by other publishers.
func (m *Mapper) Save(rec *model.Record) error {
	table, d, err := m.table(rec.Model)
	if err != nil {
		return err
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	_, findErr := m.db.Get(table, rec.ID)
	switch {
	case findErr == nil:
		if err := m.RunCallbacks(model.BeforeUpdate, rec); err != nil {
			return err
		}
		m.Stats().Writes.Add(1)
		if _, err := m.db.Update(table, rec.ID, rec.Attrs); err != nil {
			return err
		}
		return m.RunCallbacks(model.AfterUpdate, rec)
	case errors.Is(findErr, storage.ErrNotFound):
		if err := m.RunCallbacks(model.BeforeCreate, rec); err != nil {
			return err
		}
		m.Stats().Writes.Add(1)
		if _, err := m.db.Insert(table, toRow(rec)); err != nil {
			return err
		}
		return m.RunCallbacks(model.AfterCreate, rec)
	default:
		return findErr
	}
}

// Each streams objects with id >= from in id order.
func (m *Mapper) Each(modelName, from string, fn func(*model.Record) bool) error {
	table, _, err := m.table(modelName)
	if err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	return m.db.ScanFrom(table, from, func(row storage.Row) bool {
		return fn(toRecord(modelName, row))
	})
}

// Len reports the number of stored objects for the model.
func (m *Mapper) Len(modelName string) int {
	table, _, err := m.table(modelName)
	if err != nil {
		return 0
	}
	n, _ := m.db.Len(table)
	return n
}

var _ orm.Mapper = (*Mapper)(nil)
var _ orm.Transactional = (*Mapper)(nil)
