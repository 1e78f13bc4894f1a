// Package coldb implements the column-family storage engine, the
// Cassandra stand-in: rows live in partitions keyed by primary key, each
// cell carries a write timestamp, writes land in a memtable, and every
// flush merges the memtable into the one base table. Reads look at those
// two maps. Logged batches apply a group of mutations atomically — the
// strongest isolation Cassandra offers and the one the paper says
// subscribers use for transactional messages (§4.2).
//
// Like real Cassandra, the engine cannot return the rows written by a
// mutation, so the publisher adapter performs an additional read query —
// the more expensive intercept protocol described in §4.1.
package coldb

import (
	"maps"
	"slices"
	"sync"

	"synapse/internal/storage"
)

// cell is one column value with its write timestamp.
type cell struct {
	value any
	ts    uint64
}

// partition is all cells for one row key within the memtable or the base.
type partition map[string]cell // column -> cell

// rowKey addresses one partition.
type rowKey struct{ family, id string }

// DB is one column-family database instance.
//
// The base holds only live rows, each with only its newest cell per
// column: no tombstones, nothing shadowed. Every memtable cell is newer
// than every base cell, since a flush empties the memtable into the base.
// So a read takes a memtable cell over the base's, and a memtable row
// tombstone shadows the whole base row.
type DB struct {
	gate *storage.Gate

	mu        sync.RWMutex
	clock     uint64
	memtable  map[rowKey]partition
	memSize   int
	flushSize int
	base      map[rowKey]partition
	// spare holds partitions a flush emptied, for the next memtable: at
	// most flushSize, what a memtable of single-row writes can hold, so
	// the engine keeps only live data and one memtable's worth.
	spare  []partition
	closed bool
}

// DefaultFlushSize is the number of cells after which the memtable is
// merged into the base: it bounds the merge's pause.
const DefaultFlushSize = 4096

// New creates a database with an unconstrained performance profile.
func New() *DB { return NewWithProfile(storage.Profile{}) }

// NewWithProfile creates a database with an explicit performance profile.
func NewWithProfile(p storage.Profile) *DB {
	return &DB{
		gate:      storage.NewGate(p),
		memtable:  make(map[rowKey]partition),
		flushSize: DefaultFlushSize,
		base:      make(map[rowKey]partition),
	}
}

// Mutation is one cell write or deletion within a batch.
type Mutation struct {
	Family string
	ID     string
	Cols   map[string]any // nil Cols with Delete=true tombstones the row
	Delete bool
}

// Apply writes one mutation (a single-row write).
func (db *DB) Apply(m Mutation) error {
	return db.write(func(ts uint64) { db.applyLocked(ts, m) })
}

// ApplyBatch applies all mutations atomically under a single timestamp
// (a Cassandra logged batch).
func (db *DB) ApplyBatch(ms []Mutation) error {
	return db.write(func(ts uint64) {
		for _, m := range ms {
			db.applyLocked(ts, m)
		}
	})
}

// write runs fn, which applies one batch at the timestamp it is given,
// and only then flushes a full memtable: no batch straddles a flush.
func (db *DB) write(fn func(ts uint64)) error {
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		db.clock++
		fn(db.clock)
		if db.memSize >= db.flushSize {
			db.flushLocked()
		}
	})
	return err
}

// applyLocked writes one mutation into the memtable at timestamp ts.
func (db *DB) applyLocked(ts uint64, m Mutation) {
	k := rowKey{m.Family, m.ID}
	p := db.memtable[k]
	if p == nil {
		p = db.newPartition()
		db.memtable[k] = p
	}
	if m.Delete {
		// Row tombstone: shadows every cell with an older timestamp at
		// read time. Only ever advances, so a re-insert in the same
		// memtable cannot erase it.
		if prev, ok := p[tombCol]; !ok || ts > prev.ts {
			p[tombCol] = cell{ts: ts}
			db.memSize++
		}
		return
	}
	p[presenceCol] = cell{value: true, ts: ts}
	db.memSize++
	for col, v := range m.Cols {
		p[col] = cell{value: storage.CloneValue(v), ts: ts}
		db.memSize++
	}
}

// DeleteRange tombstones every live row of the family with
// from <= id < to as one logged batch (one timestamp) and reports how
// many went.
func (db *DB) DeleteRange(family, from, to string) (int, error) {
	var n int
	err := db.write(func(ts uint64) {
		ids := db.rowIDs(family, from, to)
		for _, id := range ids {
			db.applyLocked(ts, Mutation{Family: family, ID: id, Delete: true})
		}
		n = len(ids)
	})
	return n, err
}

// presenceCol marks row existence so that reads can distinguish "row
// deleted" from "row never written"; tombCol records the latest row
// tombstone timestamp and is never overwritten by inserts. Only the
// memtable holds a tombCol cell.
const (
	presenceCol = "\x00present"
	tombCol     = "\x00tomb"
)

// flushLocked merges the memtable into the base in place. Its cost is
// the memtable's size, whatever the base's.
func (db *DB) flushLocked() {
	for k, p := range db.memtable {
		if t, ok := p[tombCol]; ok {
			// The tombstone shadows the whole base row and this
			// partition's older cells, and then has nothing older left to
			// shadow: what outlives it is a re-insert, or nothing.
			for col, c := range p {
				if c.ts <= t.ts {
					delete(p, col)
				}
			}
			db.free(db.base[k])
			if _, live := p[presenceCol]; !live {
				delete(db.base, k)
				db.free(p)
				continue
			}
		} else if b := db.base[k]; b != nil {
			maps.Copy(b, p)
			db.free(p)
			continue
		}
		db.base[k] = p
	}
	clear(db.memtable)
	db.memSize = 0
}

// newPartition takes a partition a flush emptied, or makes one.
func (db *DB) newPartition() partition {
	if n := len(db.spare) - 1; n >= 0 {
		p := db.spare[n]
		db.spare = slices.Delete(db.spare, n, n+1) // and drops its reference
		return p
	}
	return make(partition)
}

// free empties p, which neither table holds any longer, and keeps it for
// newPartition unless flushSize are kept already.
func (db *DB) free(p partition) {
	if p != nil && len(db.spare) < db.flushSize {
		clear(p)
		db.spare = append(db.spare, p)
	}
}

// Flush forces the memtable into the base (test/benchmark control).
func (db *DB) Flush() {
	db.mu.Lock()
	db.flushLocked()
	db.mu.Unlock()
}

// liveLocked reports whether the row exists: its newest presence cell is
// newer than its newest row tombstone (a missing cell reads as
// timestamp 0).
func (db *DB) liveLocked(k rowKey) bool {
	m := db.memtable[k]
	return max(db.base[k][presenceCol].ts, m[presenceCol].ts) > m[tombCol].ts
}

// rowLocked is the copy out of a live row: its newest cells above the
// row tombstone, cloned once.
func (db *DB) rowLocked(k rowKey) storage.Row {
	b, m := db.base[k], db.memtable[k]
	tomb := m[tombCol].ts
	row := storage.Row{ID: k.id, Cols: make(map[string]any, max(len(b), len(m)))}
	for _, p := range [2]partition{b, m} { // the memtable's cells win
		for col, c := range p {
			if c.ts > tomb && col != presenceCol && col != tombCol {
				row.Cols[col] = storage.CloneValue(c.value)
			}
		}
	}
	return row
}

// Get returns the row with the given id in the family.
func (db *DB) Get(family, id string) (storage.Row, error) {
	var row storage.Row
	err := storage.ErrNotFound
	db.gate.Read(func() {
		if r, ok := db.copyOut(rowKey{family, id}); ok {
			row, err = r, nil
		}
	})
	return row, err
}

// copyOut is rowLocked under the read lock, for a live row.
func (db *DB) copyOut(k rowKey) (storage.Row, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.liveLocked(k) {
		return storage.Row{}, false
	}
	return db.rowLocked(k), true
}

// Exists reports whether the row is live, without building it.
func (db *DB) Exists(family, id string) bool {
	var live bool
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		live = db.liveLocked(rowKey{family, id})
	})
	return live
}

// rowIDs returns the live row ids of the family with from <= id < to,
// sorted; an empty to leaves the range open above. Sized to the keys the
// walk visits, they take one allocation however many there are.
func (db *DB) rowIDs(family, from, to string) []string {
	ids := make([]string, 0, len(db.base)+len(db.memtable))
	for _, t := range [2]map[rowKey]partition{db.base, db.memtable} {
		for k := range t {
			if k.family == family && k.id >= from && (to == "" || k.id < to) && db.liveLocked(k) {
				ids = append(ids, k.id)
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids) // a row in both maps
}

// ScanFrom streams rows with id >= start in id order until fn returns
// false. A row is copied out as fn gets it, and fn runs outside the
// lock: one deleted in the meantime is skipped.
func (db *DB) ScanFrom(family, start string, fn func(storage.Row) bool) error {
	var ids []string
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		ids = db.rowIDs(family, start, "")
	})
	for _, id := range ids {
		if row, ok := db.copyOut(rowKey{family, id}); ok && !fn(row) {
			break
		}
	}
	return nil
}

// Len reports the number of live rows in the family.
func (db *DB) Len(family string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.rowIDs(family, "", ""))
}

// Close marks the database closed; subsequent writes fail.
func (db *DB) Close() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
}
