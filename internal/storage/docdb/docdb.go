// Package docdb implements the document storage engine: schemaless
// collections of nested documents with query-by-example matching,
// including array attributes (the MongoDB feature Example 3 / Fig 7 of
// the paper builds on).
//
// It stands in for MongoDB, TokuMX, and RethinkDB. The flavour only
// carries a name: all three real engines report the written document
// from a write query, which is why the paper lists zero DB-specific
// lines for them in Table 3.
package docdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"synapse/internal/storage"
)

// Flavor selects a document-store personality.
type Flavor struct{ Name string }

// Vendor personalities from Table 1.
var (
	MongoDB   = Flavor{Name: "mongodb"}
	TokuMX    = Flavor{Name: "tokumx"}
	RethinkDB = Flavor{Name: "rethinkdb"}
)

// DB is one document database instance holding named collections.
type DB struct {
	flavor Flavor
	gate   *storage.Gate

	mu          sync.RWMutex
	collections map[string]map[string]storage.Row
	closed      bool
}

// New creates a database with an unconstrained performance profile.
func New(f Flavor) *DB { return NewWithProfile(f, storage.Profile{}) }

// NewWithProfile creates a database with an explicit performance profile.
func NewWithProfile(f Flavor, p storage.Profile) *DB {
	return &DB{
		flavor:      f,
		gate:        storage.NewGate(p),
		collections: make(map[string]map[string]storage.Row),
	}
}

// Flavor returns the vendor personality.
func (db *DB) Flavor() Flavor { return db.flavor }

func (db *DB) collection(name string) map[string]storage.Row {
	c, ok := db.collections[name]
	if !ok {
		c = make(map[string]storage.Row)
		db.collections[name] = c
	}
	return c
}

// Get returns the document with the given id.
func (db *DB) Get(collection, id string) (storage.Row, error) {
	var row storage.Row
	err := storage.ErrNotFound
	db.gate.Read(func() {
		if doc, ok := db.copyOut(collection, id); ok {
			row, err = doc, nil
		}
	})
	return row, err
}

// copyOut is one document's copy out, under the read lock.
func (db *DB) copyOut(collection, id string) (storage.Row, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	doc, ok := db.collections[collection][id]
	if ok {
		doc = doc.Clone()
	}
	return doc, ok
}

// Exists reports whether the document is present, copying nothing out.
func (db *DB) Exists(collection, id string) bool {
	var found bool
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		_, found = db.collections[collection][id]
	})
	return found
}

// Insert adds a document; duplicate ids are rejected. With returning,
// the written document is returned (document stores report written
// rows, Table 3); without, nothing is copied out.
func (db *DB) Insert(collection string, doc storage.Row, returning bool) (storage.Row, error) {
	var out storage.Row
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		c := db.collection(collection)
		if _, ok := c[doc.ID]; ok {
			err = fmt.Errorf("%w: %s/%s", storage.ErrExists, collection, doc.ID)
			return
		}
		stored := doc.Clone()
		c[doc.ID] = stored
		if returning {
			out = stored.Clone()
		}
	})
	return out, err
}

// Update merges fields into an existing document, in place, and with
// returning returns the result.
func (db *DB) Update(collection, id string, fields map[string]any, returning bool) (storage.Row, error) {
	var out storage.Row
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		c := db.collection(collection)
		doc, ok := c[id]
		if !ok {
			err = storage.ErrNotFound
			return
		}
		for k, v := range fields {
			doc.Cols[k] = storage.CloneValue(v)
		}
		if returning {
			out = doc.Clone()
		}
	})
	return out, err
}

// Delete removes a document and returns it (findOneAndDelete): the
// engine no longer holds it, so it is handed over, not copied.
func (db *DB) Delete(collection, id string) (storage.Row, error) {
	var doc storage.Row
	err := storage.ErrNotFound
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		c := db.collection(collection)
		var ok bool
		if doc, ok = c[id]; ok {
			delete(c, id)
			err = nil
		}
	})
	return doc, err
}

// DeleteRange removes every document with from <= id < to in one
// statement (deleteMany on an _id range) and reports how many went. It
// hands no document over, so each one's map goes back for reuse.
func (db *DB) DeleteRange(collection, from, to string) (int, error) {
	var n int
	var err error
	db.gate.Write(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			err = storage.ErrClosed
			return
		}
		c := db.collections[collection]
		for id, doc := range c {
			if id >= from && id < to {
				delete(c, id)
				doc.Recycle()
				n++
			}
		}
	})
	return n, err
}

// Find returns documents matching the example, in id order. The example
// matches nested fields with dotted paths ("profile.city") and treats a
// scalar example value against an array field as membership (the
// MongoDB array-query semantic).
func (db *DB) Find(collection string, example map[string]any) ([]storage.Row, error) {
	var out []storage.Row
	db.gate.Read(func() {
		db.mu.RLock()
		defer db.mu.RUnlock()
		c := db.collections[collection]
		ids := make([]string, 0, len(c))
		for id := range c {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			doc := c[id]
			if matchExample(doc.Cols, example) {
				out = append(out, doc.Clone())
			}
		}
	})
	return out, nil
}

// ScanFrom streams documents with id >= start in id order until fn
// returns false. A document is copied out as fn gets it, and fn runs
// outside the lock: one deleted in the meantime is skipped.
func (db *DB) ScanFrom(collection, start string, fn func(storage.Row) bool) error {
	db.gate.Read(func() {
		db.mu.RLock()
		c := db.collections[collection]
		ids := make([]string, 0, len(c))
		for id := range c {
			if id >= start {
				ids = append(ids, id)
			}
		}
		db.mu.RUnlock()
		sort.Strings(ids)
		for _, id := range ids {
			if doc, ok := db.copyOut(collection, id); ok && !fn(doc) {
				return
			}
		}
	})
	return nil
}

// Len reports the number of documents in a collection.
func (db *DB) Len(collection string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.collections[collection])
}

// Close marks the database closed; subsequent writes fail.
func (db *DB) Close() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
}

func matchExample(doc map[string]any, example map[string]any) bool {
	for path, want := range example {
		got, ok := lookupPath(doc, path)
		if !ok {
			return false
		}
		if !valueMatches(got, want) {
			return false
		}
	}
	return true
}

func lookupPath(doc map[string]any, path string) (any, bool) {
	parts := strings.Split(path, ".")
	var cur any = doc
	for _, p := range parts {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[p]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

func valueMatches(got, want any) bool {
	if arr, ok := got.([]any); ok {
		if _, wantArr := want.([]any); !wantArr {
			// Scalar example vs array field: membership.
			for _, e := range arr {
				if storage.DeepEqual(e, want) {
					return true
				}
			}
			return false
		}
	}
	return storage.DeepEqual(got, want)
}
