package reldb

import (
	"fmt"

	"synapse/internal/storage"
)

// Transactions buffer writes and apply them atomically through a
// two-phase commit: Prepare acquires row locks (in sorted order, so
// concurrent transactions cannot deadlock) and validates the staged
// writes; Commit applies them and returns the written rows; Abort
// releases everything untouched. Synapse's publisher hijacks this commit
// point to interleave version-store increments and broker publication
// between Prepare and Commit (§4.2).

type txState int

const (
	txActive txState = iota
	txPrepared
	txDone
)

type opKind int

const (
	opInsert opKind = iota
	opUpdate
	opDelete
)

type txOp struct {
	kind  opKind
	table string
	id    string
	row   storage.Row    // insert; the transaction's own copy
	cols  map[string]any // update; borrowed from the caller until Commit
	bare  bool           // Commit reports only the id (InsertPrepared)
}

// Tx is a buffered transaction over a DB, used by one goroutine and
// once. What it collects lives in the transaction itself: the usual
// publish — one data write and its journal row — fits in the inline
// arrays, so a transaction is one allocation, and the rows Commit
// returns are a view of its own storage.
type Tx struct {
	db    *DB
	state txState
	ops   []txOp
	held  []storage.LockKey // row locks held between Prepare and Commit/Abort

	opBuf   [txInline]txOp
	heldBuf [txInline]storage.LockKey
	rowBuf  [txInline]storage.Row // what Commit returns
}

const txInline = 2

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	tx := new(Tx)
	db.BeginIn(tx)
	return tx
}

// BeginIn starts a transaction in storage the caller provides (an
// adapter's transaction embeds its engine's), so that beginning one
// allocates nothing of its own.
func (db *DB) BeginIn(tx *Tx) {
	*tx = Tx{db: db}
	tx.ops, tx.held = tx.opBuf[:0], tx.heldBuf[:0]
}

// Insert stages an insert of a copy of the row.
func (tx *Tx) Insert(table string, row storage.Row) error {
	return tx.stage(txOp{kind: opInsert, table: table, id: row.ID, row: row.Clone()})
}

// Update stages a column merge into an existing row. The transaction
// borrows cols until it ends: Commit copies the values into the stored
// row — the one copy the row-ownership rule makes — so the caller must
// not change them before Commit or Abort returns.
func (tx *Tx) Update(table, id string, cols map[string]any) error {
	return tx.stage(txOp{kind: opUpdate, table: table, id: id, cols: cols})
}

// Delete stages a row deletion.
func (tx *Tx) Delete(table, id string) error {
	return tx.stage(txOp{kind: opDelete, table: table, id: id})
}

func (tx *Tx) stage(op txOp) error {
	if tx.state != txActive {
		return storage.ErrTxClosed
	}
	tx.ops = append(tx.ops, op)
	return nil
}

// Prepare acquires row locks for every staged write and validates the
// operations against current state. After a successful Prepare the
// transaction is guaranteed to commit.
func (tx *Tx) Prepare() error {
	if tx.state != txActive {
		return storage.ErrTxClosed
	}
	for _, op := range tx.ops {
		tx.held = append(tx.held, storage.LockKey{Table: op.table, ID: op.id})
	}
	tx.held = tx.db.rowLocks.AcquireAll(tx.held, storage.LockKey.Compare)

	if err := tx.validateLocked(); err != nil {
		tx.db.rowLocks.ReleaseAll(tx.held)
		tx.held = tx.held[:0]
		return err
	}
	tx.state = txPrepared
	return nil
}

// validateLocked checks inserts/updates/deletes against committed state,
// accounting for earlier staged ops in the same transaction.
func (tx *Tx) validateLocked() error {
	for i, op := range tx.ops {
		e, err := tx.existsBefore(i)
		if err != nil {
			return err
		}
		switch {
		case op.kind == opInsert && e:
			return fmt.Errorf("%w: %s/%s", storage.ErrExists, op.table, op.id)
		case op.kind == opUpdate && !e:
			return fmt.Errorf("reldb: update missing row %s/%s: %w", op.table, op.id, storage.ErrNotFound)
		case op.kind == opDelete && !e:
			return fmt.Errorf("reldb: delete missing row %s/%s: %w", op.table, op.id, storage.ErrNotFound)
		}
	}
	return nil
}

// existsBefore reports whether ops[i]'s row exists as the staged ops
// before it leave it: the last earlier insert or delete of the row
// decides, and without one the committed state does.
func (tx *Tx) existsBefore(i int) (bool, error) {
	op := tx.ops[i]
	for j := i - 1; j >= 0; j-- {
		if p := &tx.ops[j]; p.kind != opUpdate && p.table == op.table && p.id == op.id {
			return p.kind == opInsert, nil
		}
	}
	return tx.db.Exists(op.table, op.id)
}

// InsertPrepared stages one additional insert into an already-prepared
// transaction. Synapse uses it to append a publish-journal row so the
// journal entry commits atomically with the data writes it describes —
// the journal payload (dependency versions) only exists after Prepare,
// when the version-store counters have been bumped. To preserve the
// after-Prepare guarantee that Commit cannot fail, the row is validated
// here: its lock is acquired and the insert is rejected if the row
// already exists. Like Insert, it stages a copy of the row, so the caller
// keeps its own; Commit reports only the id: the caller built the row and
// needs no copy of it back.
func (tx *Tx) InsertPrepared(table string, row storage.Row) error {
	if tx.state != txPrepared {
		return storage.ErrTxClosed
	}
	key := storage.LockKey{Table: table, ID: row.ID}
	tx.db.rowLocks.Acquire(key)
	found, err := tx.db.Exists(table, row.ID)
	if err == nil && found {
		err = fmt.Errorf("%w: %s/%s", storage.ErrExists, table, row.ID)
	}
	if err != nil {
		tx.db.rowLocks.Release(key)
		return err
	}
	tx.held = append(tx.held, key)
	tx.ops = append(tx.ops, txOp{kind: opInsert, table: table, id: row.ID, row: row.Clone(), bare: true})
	return nil
}

// Commit applies the staged operations and releases locks, returning the
// written rows in operation order (deletes yield a row with only the ID
// set). Commit without a successful Prepare performs Prepare first.
func (tx *Tx) Commit() ([]storage.Row, error) {
	if tx.state == txActive {
		if err := tx.Prepare(); err != nil {
			return nil, err
		}
	}
	if tx.state != txPrepared {
		return nil, storage.ErrTxClosed
	}

	written := tx.rowBuf[:0]
	var applyErr error
	tx.db.gate.Write(func() {
		tx.db.mu.Lock()
		defer tx.db.mu.Unlock()
		for _, op := range tx.ops {
			switch op.kind {
			case opInsert:
				// op.row is the transaction's own copy: the engine adopts
				// it, and the copy out is the only one made here.
				if err := tx.db.insertLocked(op.table, op.row); err != nil {
					applyErr = err
					return
				}
				if op.bare {
					written = append(written, storage.Row{ID: op.id})
				} else {
					written = append(written, op.row.Clone())
				}
			case opUpdate:
				stored, err := tx.db.updateLocked(op.table, op.id, op.cols)
				if err != nil {
					applyErr = err
					return
				}
				written = append(written, stored.Clone())
			case opDelete:
				gone, err := tx.db.deleteLocked(op.table, op.id)
				if err != nil {
					applyErr = err
					return
				}
				gone.Recycle() // Commit reports only the id
				written = append(written, storage.Row{ID: op.id})
			}
		}
	})

	tx.db.rowLocks.ReleaseAll(tx.held)
	tx.held = tx.held[:0]
	tx.state = txDone
	if applyErr != nil {
		// Validation at Prepare makes this unreachable absent engine
		// corruption, but surface it rather than mask it.
		return nil, fmt.Errorf("reldb: commit failed after prepare: %w", applyErr)
	}
	return written, nil
}

// Abort discards the transaction, releasing any locks held by Prepare.
func (tx *Tx) Abort() {
	if tx.state == txPrepared {
		tx.db.rowLocks.ReleaseAll(tx.held)
		tx.held = tx.held[:0]
	}
	tx.state = txDone
}
