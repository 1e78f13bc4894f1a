package activerecord

import (
	"fmt"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/storage/reldb"
)

// Tx is a buffered multi-object transaction over the relational engine.
// Before-callbacks run when operations are staged (matching ActiveRecord,
// where they run inside the transaction); after-callbacks run once the
// commit succeeds. It embeds its engine transaction and keeps a publish's
// worth of operations and returned records inline, and it is pooled:
// Begin takes one that Release handed back, so a caller that releases
// what it began allocates no transaction. Like the engine's, it is used
// once between the two, and the records Commit returns are a view of its
// own storage, read before Release.
type Tx struct {
	m      *Mapper
	tx     reldb.Tx
	ops    []txRecOp
	closed bool

	opBuf  [txInline]txRecOp
	recBuf [txInline]*model.Record
	del    model.Record // see idOnly
}

const txInline = 2

type txRecOp struct {
	modelName string
	hook      model.Hook // after-hook to run on commit
	journal   bool       // staged by StageJournal: no read-back, no callbacks
}

// Begin starts a transaction (orm.Transactional), in one Release handed
// back when there is one.
func (m *Mapper) Begin() orm.MapperTx {
	tx, _ := m.txs.Get().(*Tx)
	if tx == nil {
		tx = new(Tx)
	}
	tx.m = m
	m.db.BeginIn(&tx.tx)
	tx.ops = tx.opBuf[:0]
	return tx
}

// Release hands the transaction back to its mapper's pool once its
// caller is done with it and with the records Commit returned (the
// records themselves stay the caller's). One still open is aborted
// first. It is not part of orm.MapperTx: a caller type-asserts it, and
// a transaction never released is left to the collector.
func (tx *Tx) Release() {
	m := tx.m
	if m == nil {
		panic("activerecord: transaction released twice")
	}
	tx.Abort()
	*tx = Tx{}
	m.txs.Put(tx)
}

// stage runs the skeleton's validate → before-hook → count step, hands
// the write to the engine transaction and notes the after-hook.
func (tx *Tx) stage(rec *model.Record, before, after model.Hook, write func(table string) error) error {
	table, err := tx.m.Stage(before, rec)
	if err != nil {
		return err
	}
	if err := write(table); err != nil {
		return err
	}
	tx.ops = append(tx.ops, txRecOp{modelName: rec.Model, hook: after})
	return nil
}

// Create stages an insert.
func (tx *Tx) Create(rec *model.Record) error {
	return tx.stage(rec, model.BeforeCreate, model.AfterCreate, func(table string) error {
		return tx.tx.Insert(table, storage.Row{ID: rec.ID, Cols: rec.Attrs})
	})
}

// Update stages an attribute merge.
func (tx *Tx) Update(rec *model.Record) error {
	return tx.stage(rec, model.BeforeUpdate, model.AfterUpdate, func(table string) error {
		return tx.tx.Update(table, rec.ID, rec.Attrs)
	})
}

// Delete stages a deletion. It loads nothing: its destroy callbacks get
// an id-only record.
func (tx *Tx) Delete(modelName, id string) error {
	return tx.stage(tx.idOnly(modelName, id), model.BeforeDestroy, model.AfterDestroy, func(table string) error {
		return tx.tx.Delete(table, id)
	})
}

// idOnly is the record a destroy callback gets: the transaction's own,
// valid for the duration of the callback, so a delete builds no record.
func (tx *Tx) idOnly(modelName, id string) *model.Record {
	tx.del = model.Record{Model: modelName, ID: id}
	return &tx.del
}

// Prepare locks and validates the staged writes.
func (tx *Tx) Prepare() error { return tx.tx.Prepare() }

// StageJournal implements orm.TxJournaler: the publish-journal record
// rides in the same engine transaction as the data writes, staged after
// Prepare (when its payload — the bumped dependency versions — exists).
// Journal rows have app-unique IDs, so the extra row lock cannot
// deadlock with concurrent transactions, and the fresh-ID validation in
// InsertPrepared keeps the Commit-cannot-fail guarantee. The engine
// copies the record's attributes, as it does every write's.
func (tx *Tx) StageJournal(rec *model.Record) error {
	d, ok := tx.m.Descriptor(rec.Model)
	if !ok {
		return fmt.Errorf("%w: %s", orm.ErrUnknownModel, rec.Model)
	}
	if err := d.Validate(rec); err != nil {
		return err
	}
	if err := tx.tx.InsertPrepared(orm.Tableize(rec.Model), storage.Row{ID: rec.ID, Cols: rec.Attrs}); err != nil {
		return err
	}
	tx.m.Stats().Writes.Add(1)
	tx.ops = append(tx.ops, txRecOp{modelName: rec.Model, journal: true})
	return nil
}

// Commit applies the staged writes, returning the written objects (the
// engine-level read-back) in operation order, and runs after-callbacks.
// A deleted object's slot is nil, and only an after-destroy callback gets
// a record of it, id-only. A staged journal record is neither read back
// nor returned.
func (tx *Tx) Commit() ([]*model.Record, error) {
	rows, err := tx.tx.Commit()
	if err != nil {
		return nil, err
	}
	tx.closed = true
	if len(rows) != len(tx.ops) {
		return nil, fmt.Errorf("activerecord: commit returned %d rows for %d ops", len(rows), len(tx.ops))
	}
	out := tx.recBuf[:0]
	for i, op := range tx.ops {
		if op.journal {
			continue
		}
		var rec *model.Record // a deleted object's slot
		if op.hook == model.AfterDestroy {
			err = tx.m.RunCallbacks(op.hook, tx.idOnly(op.modelName, rows[i].ID))
		} else {
			rec = orm.Adopt(op.modelName, rows[i])
			err = tx.m.RunCallbacks(op.hook, rec)
		}
		if err != nil {
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
