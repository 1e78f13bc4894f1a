// Package coldb implements the column-family storage engine, the
// Cassandra stand-in: rows live in partitions keyed by primary key, each
// cell carries a write timestamp, writes land in a memtable that is
// flushed to immutable sstables, and reads merge memtable and sstables
// by latest timestamp. Logged batches apply a group of mutations
// atomically — the strongest isolation Cassandra offers and the one the
// paper says subscribers use for transactional messages (§4.2).
//
// Like real Cassandra, the engine cannot return the rows written by a
// mutation, so the publisher adapter performs an additional read query —
// the more expensive intercept protocol described in §4.1.
package coldb

import (
	"sort"
	"sync"

	"synapse/internal/storage"
)

// cell is one column value with its write timestamp.
type cell struct {
	value any
	ts    uint64
	dead  bool // tombstone
}

// partition is all cells for one row key within one memtable or sstable.
type partition map[string]cell // column -> cell

// sstable is an immutable flushed memtable.
type sstable struct {
	data map[string]partition // family\x00id -> partition
}

// DB is one column-family database instance.
type DB struct {
	gate *storage.Gate

	mu        sync.RWMutex
	clock     uint64
	memtable  map[string]partition
	memSize   int
	flushSize int
	sstables  []*sstable // oldest first
	closed    bool
}

// DefaultFlushSize is the number of cells after which the memtable is
// flushed to a new sstable.
const DefaultFlushSize = 4096

// New creates a database with an unconstrained performance profile.
func New() *DB { return NewWithProfile(storage.Profile{}) }

// NewWithProfile creates a database with an explicit performance profile.
func NewWithProfile(p storage.Profile) *DB {
	return &DB{
		gate:      storage.NewGate(p),
		memtable:  make(map[string]partition),
		flushSize: DefaultFlushSize,
	}
}

func key(family, id string) string { return family + "\x00" + id }

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
// and only then flushes a full memtable: no batch straddles two sstables.
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
	k := key(m.Family, m.ID)
	p := db.memtable[k]
	if p == nil {
		p = make(partition)
		db.memtable[k] = p
	}
	if m.Delete {
		// Row tombstone: shadows every cell with an older timestamp at
		// read time. Only ever advances, so a re-insert in the same
		// memtable cannot erase it.
		if prev, ok := p[tombCol]; !ok || ts > prev.ts {
			p[tombCol] = cell{ts: ts, dead: true}
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
// tombstone timestamp and is never overwritten by inserts.
const (
	presenceCol = "\x00present"
	tombCol     = "\x00tomb"
)

func (db *DB) flushLocked() {
	if len(db.memtable) == 0 {
		return
	}
	ss := &sstable{data: db.memtable}
	db.sstables = append(db.sstables, ss)
	db.memtable = make(map[string]partition)
	db.memSize = 0
}

// Flush forces the memtable into a new sstable (test/benchmark control).
func (db *DB) Flush() {
	db.mu.Lock()
	db.flushLocked()
	db.mu.Unlock()
}

// Compact merges all sstables into one, dropping shadowed cells and
// fully-tombstoned rows.
func (db *DB) Compact() {
	db.mu.Lock()
	defer db.mu.Unlock()
	merged := make(map[string]partition)
	for _, ss := range db.sstables {
		for k, p := range ss.data {
			mp := merged[k]
			if mp == nil {
				mp = make(partition)
				merged[k] = mp
			}
			for col, c := range p {
				if prev, ok := mp[col]; !ok || c.ts > prev.ts {
					mp[col] = c
				}
			}
		}
	}
	for k, p := range merged {
		// Drop everything the newest row tombstone shadows; a newer
		// re-insert (live presence with a later timestamp) survives with
		// only its post-tombstone cells.
		var tombTs uint64
		if c, ok := p[tombCol]; ok {
			tombTs = c.ts
		}
		delete(p, tombCol)
		for col, c := range p {
			if c.ts <= tombTs || c.dead {
				delete(p, col)
			}
		}
		if pc, ok := p[presenceCol]; !ok || pc.dead {
			delete(merged, k)
		}
	}
	if len(merged) == 0 {
		db.sstables = nil
		return
	}
	db.sstables = []*sstable{{data: merged}}
}

// SSTables reports the current number of sstables (test helper).
func (db *DB) SSTables() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.sstables)
}

// readPartition merges the row's cells across memtable and sstables by
// latest timestamp, honouring row tombstones: a dead presence cell
// shadows every cell written at or before its timestamp, so deleting and
// re-inserting a row cannot resurrect stale sstable cells. Returns nil
// when the row does not exist.
func (db *DB) readPartition(family, id string) partition {
	k := key(family, id)
	merged := make(partition)
	var tombTs uint64
	scan := func(p partition) {
		for col, c := range p {
			if col == tombCol {
				if c.ts > tombTs {
					tombTs = c.ts
				}
				continue
			}
			if prev, ok := merged[col]; !ok || c.ts > prev.ts {
				merged[col] = c
			}
		}
	}
	for _, ss := range db.sstables {
		scan(ss.data[k])
	}
	scan(db.memtable[k])
	for col, c := range merged {
		if c.ts <= tombTs {
			delete(merged, col)
		}
	}
	pc, ok := merged[presenceCol]
	if !ok || pc.dead {
		return nil
	}
	return merged
}

// Get returns the row with the given id in the family.
func (db *DB) Get(family, id string) (storage.Row, error) {
	var row storage.Row
	err := storage.ErrNotFound
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		p := db.readPartition(family, id)
		if p == nil {
			return
		}
		row = partitionToRow(id, p)
		err = nil
	})
	return row, err
}

// Exists reports whether the row is live, without building it: the
// newest presence cell against the newest row tombstone.
func (db *DB) Exists(family, id string) bool {
	var live bool
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		k := key(family, id)
		var present, tomb uint64
		look := func(p partition) { // a missing cell reads as timestamp 0
			present, tomb = max(present, p[presenceCol].ts), max(tomb, p[tombCol].ts)
		}
		for _, ss := range db.sstables {
			look(ss.data[k])
		}
		look(db.memtable[k])
		live = present > tomb
	})
	return live
}

// partitionToRow is the copy out: the merged cells, cloned once.
func partitionToRow(id string, p partition) storage.Row {
	row := storage.Row{ID: id, Cols: make(map[string]any, len(p))}
	for col, c := range p {
		if col == presenceCol || c.dead {
			continue
		}
		row.Cols[col] = storage.CloneValue(c.value)
	}
	return row
}

// rowIDs returns the live row ids of the family with from <= id < to,
// sorted; an empty to leaves the range open above.
func (db *DB) rowIDs(family, from, to string) []string {
	seen := make(map[string]struct{})
	collect := func(data map[string]partition) {
		for k := range data {
			if len(k) > len(family) && k[:len(family)] == family && k[len(family)] == 0 {
				if id := k[len(family)+1:]; id >= from && (to == "" || id < to) {
					seen[id] = struct{}{}
				}
			}
		}
	}
	for _, ss := range db.sstables {
		collect(ss.data)
	}
	collect(db.memtable)
	ids := make([]string, 0, len(seen))
	for id := range seen {
		if db.readPartition(family, id) != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Scan returns all live rows in the family matching the predicates, in
// id order. Column stores have no secondary indexes here; scans are
// full-partition walks (matching how the paper's workloads use
// Cassandra: write-heavy, key-addressed).
func (db *DB) Scan(family string, preds ...storage.Predicate) ([]storage.Row, error) {
	var out []storage.Row
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		for _, id := range db.rowIDs(family, "", "") {
			row := partitionToRow(id, db.readPartition(family, id))
			if storage.MatchAll(row, preds) {
				out = append(out, row)
			}
		}
	})
	return out, nil
}

// ScanFrom streams rows with id >= start in id order until fn returns
// false.
func (db *DB) ScanFrom(family, start string, fn func(storage.Row) bool) error {
	var rows []storage.Row
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		for _, id := range db.rowIDs(family, start, "") {
			rows = append(rows, partitionToRow(id, db.readPartition(family, id)))
		}
	})
	for _, row := range rows {
		if !fn(row) {
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
