// Package reldb implements the relational storage engine: typed tables
// with a primary key, ordered row storage, secondary indexes, predicate
// scans, and two-phase-commit transactions.
//
// It stands in for PostgreSQL, MySQL, and Oracle in the paper. The
// flavour distinction the paper cares about — whether a write query can
// return the written rows ("RETURNING *", supported by PostgreSQL and
// Oracle but not MySQL) — is modelled by the Flavor's Returning
// capability; the ORM adapter takes the extra-read code path when it is
// absent, exactly as Synapse does (§4.1).
package reldb

import (
	"fmt"
	"sort"
	"sync"

	"synapse/internal/storage"
	"synapse/internal/storage/btree"
)

// Flavor selects a SQL vendor personality.
type Flavor struct {
	Name      string
	Returning bool // supports INSERT/UPDATE/DELETE ... RETURNING *
}

// Vendor personalities from Table 1.
var (
	Postgres = Flavor{Name: "postgresql", Returning: true}
	MySQL    = Flavor{Name: "mysql", Returning: false}
	Oracle   = Flavor{Name: "oracle", Returning: true}
)

// Column declares one typed column of a table schema.
type Column struct {
	Name    string
	Indexed bool
}

// table holds rows ordered by primary key plus secondary indexes.
type table struct {
	name    string
	columns map[string]Column
	rows    *btree.Tree[storage.Row]
	// indexes: column -> encoded value -> set of row ids
	indexes map[string]map[string]map[string]struct{}
}

func newTable(name string, cols []Column) *table {
	t := &table{
		name:    name,
		columns: make(map[string]Column, len(cols)),
		rows:    btree.New[storage.Row](),
		indexes: make(map[string]map[string]map[string]struct{}),
	}
	for _, c := range cols {
		t.columns[c.Name] = c
		if c.Indexed {
			t.indexes[c.Name] = make(map[string]map[string]struct{})
		}
	}
	return t
}

func encodeIndexKey(v any) string { return fmt.Sprintf("%v", v) }

func (t *table) indexAdd(row storage.Row) {
	for col, idx := range t.indexes {
		v, ok := row.Cols[col]
		if !ok {
			continue
		}
		key := encodeIndexKey(v)
		set := idx[key]
		if set == nil {
			set = make(map[string]struct{})
			idx[key] = set
		}
		set[row.ID] = struct{}{}
	}
}

func (t *table) indexRemove(row storage.Row) {
	for col, idx := range t.indexes {
		v, ok := row.Cols[col]
		if !ok {
			continue
		}
		key := encodeIndexKey(v)
		if set := idx[key]; set != nil {
			delete(set, row.ID)
			if len(set) == 0 {
				delete(idx, key)
			}
		}
	}
}

// DB is one relational database instance.
type DB struct {
	flavor   Flavor
	gate     *storage.Gate
	rowLocks *storage.LockTable[storage.LockKey] // held by prepared transactions

	mu     sync.RWMutex
	tables map[string]*table
	closed bool
}

// New creates a database with the given flavor and an unconstrained
// performance profile.
func New(f Flavor) *DB { return NewWithProfile(f, storage.Profile{}) }

// NewWithProfile creates a database with an explicit performance profile.
func NewWithProfile(f Flavor, p storage.Profile) *DB {
	return &DB{
		flavor:   f,
		gate:     storage.NewGate(p),
		rowLocks: storage.NewLockTable[storage.LockKey](),
		tables:   make(map[string]*table),
	}
}

// Flavor returns the vendor personality.
func (db *DB) Flavor() Flavor { return db.flavor }

// CreateTable declares a table. Creating an existing table is an error.
func (db *DB) CreateTable(name string, cols ...Column) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return storage.ErrClosed
	}
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("%w: table %s", storage.ErrExists, name)
	}
	db.tables[name] = newTable(name, cols)
	return nil
}

func (db *DB) table(name string) (*table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", storage.ErrNoTable, name)
	}
	return t, nil
}

func (t *table) checkColumns(row storage.Row) error {
	for col := range row.Cols {
		if _, ok := t.columns[col]; !ok {
			return fmt.Errorf("reldb: table %s has no column %q", t.name, col)
		}
	}
	return nil
}

// Get returns the row with the given primary key.
func (db *DB) Get(tableName, id string) (storage.Row, error) {
	var row storage.Row
	var err error
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		var t *table
		t, err = db.table(tableName)
		if err != nil {
			return
		}
		v, ok := t.rows.Get(id)
		if !ok {
			err = storage.ErrNotFound
			return
		}
		row = v.Clone()
	})
	return row, err
}

// Exists reports whether the row is present, without copying it out.
func (db *DB) Exists(tableName, id string) (bool, error) {
	var found bool
	var err error
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		var t *table
		if t, err = db.table(tableName); err == nil {
			_, found = t.rows.Get(id)
		}
	})
	return found, err
}

// Insert adds a new row. Duplicate primary keys are rejected. With
// returning, when the flavor supports RETURNING, the written row is
// returned; otherwise the returned row is zero, and a caller that reads
// it issues a separate Get (the adapters do this, reproducing the
// paper's MySQL intercept protocol).
func (db *DB) Insert(tableName string, row storage.Row, returning bool) (storage.Row, error) {
	var out storage.Row
	var err error
	key := storage.LockKey{Table: tableName, ID: row.ID}
	db.rowLocks.Acquire(key)
	defer db.rowLocks.Release(key)
	stored := row.Clone()
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if err = db.insertLocked(tableName, stored); err == nil && returning && db.flavor.Returning {
			out = stored.Clone()
		}
	})
	return out, err
}

// insertLocked stores row itself: the engine owns it from here on, so a
// caller holding someone else's row clones it first.
func (db *DB) insertLocked(tableName string, row storage.Row) error {
	if db.closed {
		return storage.ErrClosed
	}
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	if err := t.checkColumns(row); err != nil {
		return err
	}
	if _, ok := t.rows.Get(row.ID); ok {
		return fmt.Errorf("%w: %s/%s", storage.ErrExists, tableName, row.ID)
	}
	t.rows.Set(row.ID, row)
	t.indexAdd(row)
	return nil
}

// Update merges the given columns into an existing row. With returning,
// it returns the full written row when the flavor supports RETURNING.
func (db *DB) Update(tableName, id string, cols map[string]any, returning bool) (storage.Row, error) {
	var out storage.Row
	var err error
	key := storage.LockKey{Table: tableName, ID: id}
	db.rowLocks.Acquire(key)
	defer db.rowLocks.Release(key)
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		var stored storage.Row
		if stored, err = db.updateLocked(tableName, id, cols); err == nil && returning && db.flavor.Returning {
			out = stored.Clone()
		}
	})
	return out, err
}

// updateLocked merges deep copies of cols into the stored row in place
// (every reader copies out under the read lock, so nothing outside the
// engine holds the stored map) and returns the STORED row: a caller
// handing it on clones it.
func (db *DB) updateLocked(tableName, id string, cols map[string]any) (storage.Row, error) {
	if db.closed {
		return storage.Row{}, storage.ErrClosed
	}
	t, err := db.table(tableName)
	if err != nil {
		return storage.Row{}, err
	}
	row, ok := t.rows.Get(id)
	if !ok {
		return storage.Row{}, storage.ErrNotFound
	}
	if err := t.checkColumns(storage.Row{ID: id, Cols: cols}); err != nil {
		return storage.Row{}, err
	}
	t.indexRemove(row)
	for k, val := range cols {
		row.Cols[k] = storage.CloneValue(val)
	}
	t.indexAdd(row)
	return row, nil
}

// Delete removes the row with the given primary key. Deleting a missing
// row returns ErrNotFound. When the flavor supports RETURNING, it returns
// the removed row (DELETE ... RETURNING *): the engine no longer holds
// it, so it is handed over, not copied. Otherwise the row is zero.
func (db *DB) Delete(tableName, id string) (storage.Row, error) {
	var out storage.Row
	var err error
	key := storage.LockKey{Table: tableName, ID: id}
	db.rowLocks.Acquire(key)
	defer db.rowLocks.Release(key)
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		var gone storage.Row
		if gone, err = db.deleteLocked(tableName, id); err == nil && db.flavor.Returning {
			out = gone
		}
	})
	return out, err
}

// deleteLocked unlinks the row and returns it: nothing in the engine
// refers to it any more.
func (db *DB) deleteLocked(tableName, id string) (storage.Row, error) {
	if db.closed {
		return storage.Row{}, storage.ErrClosed
	}
	t, err := db.table(tableName)
	if err != nil {
		return storage.Row{}, err
	}
	row, ok := t.rows.Delete(id)
	if !ok {
		return storage.Row{}, storage.ErrNotFound
	}
	t.indexRemove(row)
	return row, nil
}

// DeleteRange removes every row with from <= id < to in one statement
// (DELETE ... WHERE id >= from AND id < to) and reports how many went.
// It hands no row over, so each one's map goes back for reuse.
// It does not wait for row locks: a prepared transaction that updates or
// deletes a row in the range would fail at Commit, so callers range over
// rows no open transaction names (Synapse: confirmed journal entries).
func (db *DB) DeleteRange(tableName, from, to string) (int, error) {
	var n int
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		var t *table
		if t, err = db.table(tableName); err != nil {
			return
		}
		// The tree cannot be changed under its own iteration.
		var doomed []storage.Row
		t.rows.AscendFrom(from, func(id string, row storage.Row) bool {
			if id >= to {
				return false
			}
			doomed = append(doomed, row)
			return true
		})
		for _, row := range doomed {
			t.rows.Delete(row.ID)
			t.indexRemove(row)
			row.Recycle()
		}
		n = len(doomed)
	})
	return n, err
}

// Select returns rows matching all predicates, in primary-key order. It
// uses a secondary index when the first predicate is an equality on an
// indexed column.
func (db *DB) Select(tableName string, preds ...storage.Predicate) ([]storage.Row, error) {
	var out []storage.Row
	var err error
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		var t *table
		t, err = db.table(tableName)
		if err != nil {
			return
		}
		if len(preds) > 0 && preds[0].Op == storage.Eq {
			if idx, ok := t.indexes[preds[0].Field]; ok {
				ids := make([]string, 0)
				for id := range idx[encodeIndexKey(preds[0].Value)] {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, id := range ids {
					row, _ := t.rows.Get(id)
					if storage.MatchAll(row, preds[1:]) {
						out = append(out, row.Clone())
					}
				}
				return
			}
		}
		t.rows.Ascend(func(_ string, row storage.Row) bool {
			if storage.MatchAll(row, preds) {
				out = append(out, row.Clone())
			}
			return true
		})
	})
	return out, err
}

// ScanFrom streams rows with id >= start in primary-key order until fn
// returns false. Bootstrap uses it to snapshot tables in chunks.
func (db *DB) ScanFrom(tableName, start string, fn func(storage.Row) bool) error {
	var err error
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		var t *table
		t, err = db.table(tableName)
		if err != nil {
			return
		}
		t.rows.AscendFrom(start, func(_ string, row storage.Row) bool {
			return fn(row.Clone())
		})
	})
	return err
}

// Len reports the number of rows in a table.
func (db *DB) Len(tableName string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return t.rows.Len(), nil
}

// Close marks the database closed; subsequent writes fail.
func (db *DB) Close() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
}
