package reldb

import (
	"fmt"
	"sync"

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
	row   storage.Row    // insert; owned by the transaction
	cols  map[string]any // update; owned by the transaction
	bare  bool           // Commit reports only the id (InsertPrepared)
}

// Tx is a buffered transaction over a DB.
type Tx struct {
	db    *DB
	mu    sync.Mutex
	state txState
	ops   []txOp
	held  []string // row-lock keys held between Prepare and Commit/Abort
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx { return &Tx{db: db} }

func lockKey(table, id string) string { return table + "\x00" + id }

// Insert stages an insert.
func (tx *Tx) Insert(table string, row storage.Row) error {
	return tx.stage(txOp{kind: opInsert, table: table, id: row.ID, row: row.Clone()})
}

// Update stages a column merge into an existing row.
func (tx *Tx) Update(table, id string, cols map[string]any) error {
	return tx.stage(txOp{kind: opUpdate, table: table, id: id, cols: storage.Row{Cols: cols}.Clone().Cols})
}

// Delete stages a row deletion.
func (tx *Tx) Delete(table, id string) error {
	return tx.stage(txOp{kind: opDelete, table: table, id: id})
}

func (tx *Tx) stage(op txOp) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state != txActive {
		return storage.ErrTxClosed
	}
	tx.ops = append(tx.ops, op)
	return nil
}

// Get reads a row as the transaction would see it: committed state with
// the transaction's buffered operations overlaid.
func (tx *Tx) Get(table, id string) (storage.Row, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state == txDone {
		return storage.Row{}, storage.ErrTxClosed
	}
	row, err := tx.db.Get(table, id)
	found := err == nil
	for _, op := range tx.ops {
		if op.table != table || op.id != id {
			continue
		}
		switch op.kind {
		case opInsert:
			row = op.row.Clone()
			found = true
		case opUpdate:
			if found {
				for k, v := range op.cols {
					row.Cols[k] = storage.CloneValue(v)
				}
			}
		case opDelete:
			found = false
		}
	}
	if !found {
		return storage.Row{}, storage.ErrNotFound
	}
	return row, nil
}

// Ops reports the number of staged operations.
func (tx *Tx) Ops() int {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return len(tx.ops)
}

// Prepare acquires row locks for every staged write and validates the
// operations against current state. After a successful Prepare the
// transaction is guaranteed to commit.
func (tx *Tx) Prepare() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state != txActive {
		return storage.ErrTxClosed
	}
	keys := make([]string, 0, len(tx.ops))
	for _, op := range tx.ops {
		keys = append(keys, lockKey(op.table, op.id))
	}
	tx.held = tx.db.rowLocks.AcquireAll(keys)

	if err := tx.validateLocked(); err != nil {
		tx.db.rowLocks.ReleaseAll(tx.held)
		tx.held = nil
		return err
	}
	tx.state = txPrepared
	return nil
}

// validateLocked checks inserts/updates/deletes against committed state,
// accounting for earlier staged ops in the same transaction.
func (tx *Tx) validateLocked() error {
	// exists tracks the effective existence of each (table,id) as the
	// staged ops would leave it.
	exists := make(map[string]bool)
	effective := func(table, id string) (bool, error) {
		key := lockKey(table, id)
		if e, ok := exists[key]; ok {
			return e, nil
		}
		return tx.db.Exists(table, id)
	}
	for _, op := range tx.ops {
		key := lockKey(op.table, op.id)
		e, err := effective(op.table, op.id)
		if err != nil {
			return err
		}
		switch op.kind {
		case opInsert:
			if e {
				return fmt.Errorf("%w: %s/%s", storage.ErrExists, op.table, op.id)
			}
			exists[key] = true
		case opUpdate:
			if !e {
				return fmt.Errorf("reldb: update missing row %s/%s: %w", op.table, op.id, storage.ErrNotFound)
			}
		case opDelete:
			if !e {
				return fmt.Errorf("reldb: delete missing row %s/%s: %w", op.table, op.id, storage.ErrNotFound)
			}
			exists[key] = false
		}
	}
	return nil
}

// InsertPrepared stages one additional insert into an already-prepared
// transaction. Synapse uses it to append a publish-journal row so the
// journal entry commits atomically with the data writes it describes —
// the journal payload (dependency versions) only exists after Prepare,
// when the version-store counters have been bumped. To preserve the
// after-Prepare guarantee that Commit cannot fail, the row is validated
// here: its lock is acquired and the insert is rejected if the row
// already exists. The row is CONSUMED — the transaction stores it as is,
// so the caller must not touch it afterwards — and Commit reports only
// its id: the caller built the row and needs no copy of it back.
func (tx *Tx) InsertPrepared(table string, row storage.Row) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state != txPrepared {
		return storage.ErrTxClosed
	}
	key := lockKey(table, row.ID)
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
	tx.ops = append(tx.ops, txOp{kind: opInsert, table: table, id: row.ID, row: row, bare: true})
	return nil
}

// Commit applies the staged operations and releases locks, returning the
// written rows in operation order (deletes yield a row with only the ID
// set). Commit without a successful Prepare performs Prepare first.
func (tx *Tx) Commit() ([]storage.Row, error) {
	tx.mu.Lock()
	if tx.state == txActive {
		tx.mu.Unlock()
		if err := tx.Prepare(); err != nil {
			return nil, err
		}
		tx.mu.Lock()
	}
	defer tx.mu.Unlock()
	if tx.state != txPrepared {
		return nil, storage.ErrTxClosed
	}

	written := make([]storage.Row, 0, len(tx.ops))
	var applyErr error
	tx.db.gate.Write(func() {
		tx.db.mu.Lock()
		defer tx.db.mu.Unlock()
		for _, op := range tx.ops {
			switch op.kind {
			case opInsert:
				// op.row is the transaction's own copy (or a consumed
				// row): the engine adopts it, and the copy out is the
				// only one made here.
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
				if err := tx.db.deleteLocked(op.table, op.id); err != nil {
					applyErr = err
					return
				}
				written = append(written, storage.Row{ID: op.id})
			}
		}
	})

	tx.db.rowLocks.ReleaseAll(tx.held)
	tx.held = nil
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
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state == txDone {
		return
	}
	if tx.state == txPrepared {
		tx.db.rowLocks.ReleaseAll(tx.held)
		tx.held = nil
	}
	tx.state = txDone
}
