package activerecord

import (
	"fmt"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
)

// Tx is a buffered multi-object transaction over the relational engine.
// Before-callbacks run when operations are staged (matching ActiveRecord,
// where they run inside the transaction); after-callbacks run once the
// commit succeeds.
type Tx struct {
	m      *Mapper
	tx     txHandle
	ops    []txRecOp
	closed bool
}

// txHandle narrows reldb.Tx to what the adapter uses.
type txHandle interface {
	Insert(table string, row storage.Row) error
	Update(table, id string, cols map[string]any) error
	Delete(table, id string) error
	InsertPrepared(table string, row storage.Row) error
	Prepare() error
	Commit() ([]storage.Row, error)
	Abort()
}

type txRecOp struct {
	modelName string
	id        string
	hook      model.Hook // after-hook to run on commit
	journal   bool       // staged by StageJournal: no read-back, no callbacks
}

// Begin starts a transaction (orm.Transactional).
func (m *Mapper) Begin() orm.MapperTx {
	return &Tx{m: m, tx: m.db.Begin()}
}

// Create stages an insert.
func (tx *Tx) Create(rec *model.Record) error {
	table, d, err := tx.m.table(rec.Model)
	if err != nil {
		return err
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	if err := tx.m.RunCallbacks(model.BeforeCreate, rec); err != nil {
		return err
	}
	tx.m.Stats().Writes.Add(1)
	if err := tx.tx.Insert(table, toRow(rec)); err != nil {
		return err
	}
	tx.ops = append(tx.ops, txRecOp{modelName: rec.Model, id: rec.ID, hook: model.AfterCreate})
	return nil
}

// Update stages an attribute merge.
func (tx *Tx) Update(rec *model.Record) error {
	table, d, err := tx.m.table(rec.Model)
	if err != nil {
		return err
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	if err := tx.m.RunCallbacks(model.BeforeUpdate, rec); err != nil {
		return err
	}
	tx.m.Stats().Writes.Add(1)
	if err := tx.tx.Update(table, rec.ID, rec.Attrs); err != nil {
		return err
	}
	tx.ops = append(tx.ops, txRecOp{modelName: rec.Model, id: rec.ID, hook: model.AfterUpdate})
	return nil
}

// Delete stages a deletion.
func (tx *Tx) Delete(modelName, id string) error {
	table, _, err := tx.m.table(modelName)
	if err != nil {
		return err
	}
	rec := model.NewRecord(modelName, id)
	if err := tx.m.RunCallbacks(model.BeforeDestroy, rec); err != nil {
		return err
	}
	tx.m.Stats().Writes.Add(1)
	if err := tx.tx.Delete(table, id); err != nil {
		return err
	}
	tx.ops = append(tx.ops, txRecOp{modelName: modelName, id: id, hook: model.AfterDestroy})
	return nil
}

// Prepare locks and validates the staged writes.
func (tx *Tx) Prepare() error { return tx.tx.Prepare() }

// StageJournal implements orm.TxJournaler: the publish-journal record
// rides in the same engine transaction as the data writes, staged after
// Prepare (when its payload — the bumped dependency versions — exists).
// Journal rows have app-unique IDs, so the extra row lock cannot
// deadlock with concurrent transactions, and the fresh-ID validation in
// InsertPrepared keeps the Commit-cannot-fail guarantee. The record's
// attribute map goes to the engine as is (InsertPrepared consumes it).
func (tx *Tx) StageJournal(rec *model.Record) error {
	table, d, err := tx.m.table(rec.Model)
	if err != nil {
		return err
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	if err := tx.tx.InsertPrepared(table, toRow(rec)); err != nil {
		return err
	}
	tx.m.Stats().Writes.Add(1)
	tx.ops = append(tx.ops, txRecOp{modelName: rec.Model, id: rec.ID, journal: true})
	return nil
}

// Commit applies the staged writes, returning the written objects (the
// engine-level read-back) in operation order, and runs after-callbacks.
// A staged journal record is neither read back nor returned.
func (tx *Tx) Commit() ([]*model.Record, error) {
	rows, err := tx.tx.Commit()
	if err != nil {
		return nil, err
	}
	tx.closed = true
	if len(rows) != len(tx.ops) {
		return nil, fmt.Errorf("activerecord: commit returned %d rows for %d ops", len(rows), len(tx.ops))
	}
	out := make([]*model.Record, 0, len(rows))
	for i, op := range tx.ops {
		if op.journal {
			continue
		}
		rec := toRecord(op.modelName, rows[i]) // a deleted row carries only its id
		if err := tx.m.RunCallbacks(op.hook, rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Abort discards the transaction.
func (tx *Tx) Abort() {
	if !tx.closed {
		tx.tx.Abort()
		tx.closed = true
	}
}
