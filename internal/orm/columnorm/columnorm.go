// Package columnorm adapts the column-family engine (coldb) to the
// Synapse ORM surface — the Cequel/Cassandra stand-in from Table 1.
//
// Cassandra cannot return the rows a mutation wrote, so Create and
// Update issue the additional read query of §4.1 (counted in
// Stats().ExtraReads). Subscriber-side transactional messages are
// persisted with logged batches, the strongest atomicity the engine
// offers (§4.2).
package columnorm

import (
	"errors"
	"fmt"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/coldb"
)

// Mapper implements orm.Mapper over coldb.
type Mapper struct {
	orm.Registry
	db *coldb.DB
}

// New wraps a column-family database.
func New(db *coldb.DB) *Mapper { return &Mapper{db: db} }

// Name identifies the ORM.
func (m *Mapper) Name() string { return "columnorm" }

// Engine identifies the backing vendor.
func (m *Mapper) Engine() string { return "cassandra" }

// DB exposes the underlying engine.
func (m *Mapper) DB() *coldb.DB { return m.db }

// Register records the descriptor; column families are created lazily.
func (m *Mapper) Register(d *model.Descriptor) error {
	m.Registry.Add(d)
	return nil
}

func (m *Mapper) family(modelName string) (string, *model.Descriptor, error) {
	d, ok := m.Descriptor(modelName)
	if !ok {
		return "", nil, fmt.Errorf("%w: %s", orm.ErrUnknownModel, modelName)
	}
	return orm.Tableize(modelName), d, nil
}

func toRecord(modelName string, row storage.Row) *model.Record {
	rec := model.NewRecord(modelName, row.ID)
	rec.Merge(row.Clone().Cols)
	return rec
}

// Find loads one row by primary key.
func (m *Mapper) Find(modelName, id string) (*model.Record, error) {
	fam, _, err := m.family(modelName)
	if err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	row, err := m.db.Get(fam, id)
	if err != nil {
		return nil, err
	}
	return toRecord(modelName, row), nil
}

// Create persists a new row and reads it back (no RETURNING support).
// Cassandra has no uniqueness constraint without paxos; like Cequel, the
// adapter checks existence first.
func (m *Mapper) Create(rec *model.Record) (*model.Record, error) {
	fam, d, err := m.family(rec.Model)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(rec); err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	if _, err := m.db.Get(fam, rec.ID); err == nil {
		return nil, fmt.Errorf("%w: %s/%s", storage.ErrExists, fam, rec.ID)
	}
	if err := m.RunCallbacks(model.BeforeCreate, rec); err != nil {
		return nil, err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.Apply(coldb.Mutation{Family: fam, ID: rec.ID, Cols: rec.Clone().Attrs}); err != nil {
		return nil, err
	}
	written, err := m.readBack(rec.Model, fam, rec.ID)
	if err != nil {
		return nil, err
	}
	if err := m.RunCallbacks(model.AfterCreate, written); err != nil {
		return nil, err
	}
	return written, nil
}

// Update merges attributes into the stored row and reads it back.
func (m *Mapper) Update(rec *model.Record) (*model.Record, error) {
	fam, d, err := m.family(rec.Model)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(rec); err != nil {
		return nil, err
	}
	m.Stats().Reads.Add(1)
	if _, err := m.db.Get(fam, rec.ID); err != nil {
		return nil, err
	}
	if err := m.RunCallbacks(model.BeforeUpdate, rec); err != nil {
		return nil, err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.Apply(coldb.Mutation{Family: fam, ID: rec.ID, Cols: rec.Clone().Attrs}); err != nil {
		return nil, err
	}
	written, err := m.readBack(rec.Model, fam, rec.ID)
	if err != nil {
		return nil, err
	}
	if err := m.RunCallbacks(model.AfterUpdate, written); err != nil {
		return nil, err
	}
	return written, nil
}

func (m *Mapper) readBack(modelName, fam, id string) (*model.Record, error) {
	m.Stats().ExtraReads.Add(1)
	row, err := m.db.Get(fam, id)
	if err != nil {
		return nil, err
	}
	return toRecord(modelName, row), nil
}

// Delete tombstones a row.
func (m *Mapper) Delete(modelName, id string) error {
	fam, _, err := m.family(modelName)
	if err != nil {
		return err
	}
	rec := model.NewRecord(modelName, id)
	m.Stats().Reads.Add(1)
	row, getErr := m.db.Get(fam, id)
	if getErr != nil {
		return getErr
	}
	rec = toRecord(modelName, row)
	if err := m.RunCallbacks(model.BeforeDestroy, rec); err != nil {
		return err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.Apply(coldb.Mutation{Family: fam, ID: id, Delete: true}); err != nil {
		return err
	}
	return m.RunCallbacks(model.AfterDestroy, rec)
}

// DeleteRange tombstones the rows with from <= id < to in one logged
// batch.
func (m *Mapper) DeleteRange(modelName, from, to string) (int, error) {
	fam, _, err := m.family(modelName)
	if err != nil {
		return 0, err
	}
	return m.db.DeleteRange(fam, from, to)
}

// Save upserts; column writes merge cells natively.
func (m *Mapper) Save(rec *model.Record) error {
	fam, d, err := m.family(rec.Model)
	if err != nil {
		return err
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	_, findErr := m.db.Get(fam, rec.ID)
	exists := findErr == nil
	if findErr != nil && !errors.Is(findErr, storage.ErrNotFound) {
		return findErr
	}
	before, after := model.BeforeCreate, model.AfterCreate
	if exists {
		before, after = model.BeforeUpdate, model.AfterUpdate
	}
	if err := m.RunCallbacks(before, rec); err != nil {
		return err
	}
	m.Stats().Writes.Add(1)
	if err := m.db.Apply(coldb.Mutation{Family: fam, ID: rec.ID, Cols: rec.Clone().Attrs}); err != nil {
		return err
	}
	return m.RunCallbacks(after, rec)
}

// SaveBatch persists several records in one logged batch — used by the
// Synapse subscriber to apply a transactional message atomically.
func (m *Mapper) SaveBatch(recs []*model.Record, deletes []*model.Record) error {
	ms := make([]coldb.Mutation, 0, len(recs)+len(deletes))
	for _, rec := range recs {
		fam, d, err := m.family(rec.Model)
		if err != nil {
			return err
		}
		if err := d.Validate(rec); err != nil {
			return err
		}
		ms = append(ms, coldb.Mutation{Family: fam, ID: rec.ID, Cols: rec.Clone().Attrs})
	}
	for _, rec := range deletes {
		fam, _, err := m.family(rec.Model)
		if err != nil {
			return err
		}
		ms = append(ms, coldb.Mutation{Family: fam, ID: rec.ID, Delete: true})
	}
	m.Stats().Writes.Add(1)
	return m.db.ApplyBatch(ms)
}

// Each streams rows with id >= from in id order.
func (m *Mapper) Each(modelName, from string, fn func(*model.Record) bool) error {
	fam, _, err := m.family(modelName)
	if err != nil {
		return err
	}
	m.Stats().Reads.Add(1)
	return m.db.ScanFrom(fam, from, func(row storage.Row) bool {
		return fn(toRecord(modelName, row))
	})
}

// Len reports the number of live rows for the model.
func (m *Mapper) Len(modelName string) int {
	fam, _, err := m.family(modelName)
	if err != nil {
		return 0
	}
	return m.db.Len(fam)
}

var _ orm.Mapper = (*Mapper)(nil)
