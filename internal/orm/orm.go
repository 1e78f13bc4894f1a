// Package orm defines the Object/Relational-Mapper abstraction Synapse
// replicates through. The paper's key observation (§2) is that although
// different ORMs expose different APIs, at a minimum they all provide a
// way to create, update, and delete objects — and that this common
// surface suffices as a cross-database translation layer. Mapper is that
// common surface.
//
// Mapper is implemented once, by Registry (mapper.go), over a Binding:
// the handful of row-level calls an engine offers. Each adapter
// subpackage is one Binding plus whatever its engine alone can do:
//
//	activerecord — reldb (PostgreSQL / MySQL / Oracle), transactions
//	documentorm  — docdb (MongoDB / TokuMX / RethinkDB)
//	columnorm    — coldb (Cassandra)
//	searchorm    — searchdb (Elasticsearch, subscriber-only), search
//	graphorm     — graphdb (Neo4j, subscriber-only), relationships
//
// The skeleton invokes the model's active-model callbacks around
// persistence operations, as Ruby ORMs do; Synapse re-purposes those
// callbacks for subscriber-side update notification (§3.1).
package orm

import (
	"errors"
	"sync/atomic"

	"synapse/internal/model"
)

// ErrReadOnly is returned by subscriber-only adapters (Elasticsearch,
// Neo4j in Table 3) for publisher-side operations they do not support.
var ErrReadOnly = errors.New("orm: adapter does not support publisher operations")

// ErrUnknownModel is returned for operations on unregistered models.
var ErrUnknownModel = errors.New("orm: unknown model")

// Host supplies the runtime context adapters pass into active-model
// callbacks. The Synapse app implements it; a nil Host behaves as a
// non-bootstrapping app with no environment.
type Host interface {
	// Bootstrapping reports whether the app is still catching up after a
	// (re)subscription — the Bootstrap? predicate of Table 2.
	Bootstrapping() bool
	// Env is shared state threaded into callbacks (e.g. an outbox).
	Env() map[string]any
}

// Mapper is the common high-level object API of §2: create, read,
// update, delete — plus the snapshot iteration bootstrap requires.
type Mapper interface {
	// Name identifies the ORM (e.g. "activerecord").
	Name() string
	// Engine identifies the backing database vendor (e.g. "postgresql").
	Engine() string
	// Register binds a model descriptor to native storage, creating the
	// table/collection/index as needed.
	Register(d *model.Descriptor) error
	// Descriptor returns the registered descriptor for a model.
	Descriptor(modelName string) (*model.Descriptor, bool)
	// SetHost installs the callback host (the Synapse app) providing the
	// Bootstrap? predicate and environment to active-model callbacks.
	SetHost(h Host)

	// Find loads one object by primary key.
	Find(modelName, id string) (*model.Record, error)
	// Create persists a new object, running create callbacks, and
	// returns the object as written (the read-back used for publishing —
	// via RETURNING where the engine supports it, or an extra read query
	// where it does not, §4.1).
	Create(rec *model.Record) (*model.Record, error)
	// Update merges the record's attributes into the stored object,
	// running update callbacks, and returns the full object as written.
	Update(rec *model.Record) (*model.Record, error)
	// Delete removes an object, running destroy callbacks.
	Delete(modelName, id string) error
	// DeleteRange removes every object of the model with
	// from <= id < to and reports how many went — ActiveRecord's
	// where(...).delete_all: one engine statement, no object is loaded
	// and no callback runs. It is maintenance, not a per-object query,
	// and stays out of Stats, so the query counters do not depend on
	// when a caller chooses to batch.
	DeleteRange(modelName, from, to string) (int, error)
	// Save upserts an object (the subscriber persistence path:
	// find-or-instantiate, assign, save). It runs create or update
	// callbacks depending on prior existence.
	Save(rec *model.Record) error

	// Each streams objects with id >= from in id order until fn returns
	// false (bootstrap snapshots).
	Each(modelName, from string, fn func(*model.Record) bool) error
	// Len reports the number of stored objects for the model.
	Len(modelName string) int

	// Stats exposes the adapter's query counters.
	Stats() *Stats
}

// Transactional is implemented by mappers over engines with multi-object
// transactions. Synapse hijacks the commit into a 2PC so that the local
// commit, the version increments, and the broker publish happen
// atomically (§4.2).
type Transactional interface {
	Begin() MapperTx
}

// MapperTx is a buffered multi-object transaction. Create copies the
// record's attributes when it stages them; Update borrows them until
// Commit or Abort returns — Commit copies them into the stored object,
// the one copy the row-ownership rule makes — so the caller leaves them
// alone until then.
type MapperTx interface {
	Create(rec *model.Record) error
	Update(rec *model.Record) error
	Delete(modelName, id string) error
	// Prepare locks and validates; after success Commit cannot fail.
	Prepare() error
	// Commit applies the staged writes and returns the written objects
	// in operation order. A deleted object's slot is nil: the object is
	// gone, and a caller that needs its final state reads it while the
	// row lock Prepare took still holds.
	Commit() ([]*model.Record, error)
	Abort()
}

// TxJournaler is implemented by MapperTx's whose engine can stage one
// more insert after Prepare. Synapse stages its publish-journal record
// through it, making the journal entry atomic with the data commit: the
// journal payload embeds the version-store dependency versions, which
// exist only after Prepare (the §4.2 2PC interleaves the version bump
// between Prepare and Commit). Mappers without it get the journal entry
// as a separate write immediately after the commit.
type TxJournaler interface {
	// StageJournal adds the journal record to the prepared transaction.
	// The record's model must already be registered. After a nil return,
	// Commit persists the journal row atomically with the data writes.
	// The transaction stages a copy, so the record stays the caller's;
	// Commit neither returns it nor runs callbacks for it.
	StageJournal(rec *model.Record) error
}

// Stats counts engine queries issued by an adapter. ExtraReads counts
// the additional read queries needed on engines that cannot return
// written rows — the cost difference §4.1 describes between PostgreSQL
// (RETURNING *) and MySQL/Cassandra.
type Stats struct {
	Reads      atomic.Int64
	Writes     atomic.Int64
	ExtraReads atomic.Int64
}

// Snapshot returns a plain copy of the counters.
func (s *Stats) Snapshot() (reads, writes, extraReads int64) {
	return s.Reads.Load(), s.Writes.Load(), s.ExtraReads.Load()
}
