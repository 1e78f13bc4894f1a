package orm

import (
	"cmp"
	"fmt"
	"sync"

	"synapse/internal/model"
	"synapse/internal/storage"
)

// Binding is what an engine offers the skeleton: its row-level calls, in
// storage.Row terms, the adapter's native format (mutations, node ids,
// analyzed fields) behind them. Rows cross it under package storage's
// row-ownership rule: the engine copies what it is given, hands out
// copies only to a caller that reads them and hands over the row a delete
// removes, so neither side of a Binding ever clones.
type Binding interface {
	// Get returns a copy of the row, or storage.ErrNotFound.
	Get(table, id string) (storage.Row, error)
	// Exists is Get's query without the row: nothing is copied out.
	Exists(table, id string) (bool, error)
	// Insert stores a new row and Update merges the row's columns into
	// the stored one, keeping those it does not name. With returning,
	// where Traits.Written is WrittenRow, they return the row as written;
	// otherwise they return a zero row and copy nothing out.
	Insert(table string, row storage.Row, returning bool) (storage.Row, error)
	Update(table string, row storage.Row, returning bool) (storage.Row, error)
	// Delete removes the row, or reports storage.ErrNotFound — except
	// where Traits.Written is WrittenNothing, which cannot tell. Where
	// Traits.Written is WrittenRow it returns the row it removed (DELETE
	// ... RETURNING *, findOneAndDelete), handed over rather than copied:
	// the engine no longer holds it. Otherwise it returns a zero row.
	Delete(table, id string) (storage.Row, error)
	// DeleteRange removes the rows with from <= id < to in one
	// statement and reports how many went.
	DeleteRange(table, from, to string) (int, error)
	// ScanFrom streams copies of the rows with id >= from, in id order,
	// until fn returns false.
	ScanFrom(table, from string, fn func(storage.Row) bool) error
	Len(table string) int
}

// Written says what a write query reports back about the row it wrote —
// with Traits.Publisher, the only way one engine is seen to differ from
// the next behind its Binding (§4.1).
type Written int

const (
	// WrittenRow: the row as written (RETURNING *: PostgreSQL, Oracle,
	// the document stores).
	WrittenRow Written = iota
	// WrittenStatus: success or a constraint violation, no row (MySQL).
	// Create and Update read the row back, counted in Stats.ExtraReads.
	WrittenStatus
	// WrittenNothing: the query is an upsert, or a tombstone, and cannot
	// tell a stored row from a missing one (Cassandra). Create, Update
	// and Delete find that out with a read first, as Cequel does, and
	// Create and Update read the row back.
	WrittenNothing
)

// Traits is what an adapter tells the skeleton about itself.
type Traits struct {
	ORM, Vendor string // Mapper.Name, Mapper.Engine
	// Publisher is false for the subscriber-only engines of Table 3
	// (Elasticsearch, Neo4j): Create and Update return ErrReadOnly.
	Publisher bool
	Written   Written
}

// table is one registered model, resolved once, at Register.
type table struct {
	desc *model.Descriptor
	name string
}

// Registry is the ORM skeleton every adapter embeds. It implements Mapper
// once — model lookup, validation, query counters, callbacks, Save's
// create-or-update, RETURNING-or-read-back — over the adapter's Binding.
type Registry struct {
	traits Traits
	b      Binding
	stats  Stats

	mu     sync.RWMutex
	models map[string]table
	host   Host
}

// Bind installs the adapter's traits and binding, at construction.
func (r *Registry) Bind(t Traits, b Binding) { r.traits, r.b = t, b }

// Name identifies the ORM.
func (r *Registry) Name() string { return r.traits.ORM }

// Engine identifies the backing vendor.
func (r *Registry) Engine() string { return r.traits.Vendor }

// Register binds a model descriptor to the table Tableize names. An
// adapter whose engine needs schema set-up or names differently wraps it.
func (r *Registry) Register(d *model.Descriptor) error {
	r.RegisterAs(d, Tableize(d.Name))
	return nil
}

// RegisterAs binds a model descriptor to the named table.
func (r *Registry) RegisterAs(d *model.Descriptor, tableName string) {
	r.mu.Lock()
	if r.models == nil {
		r.models = make(map[string]table)
	}
	r.models[d.Name] = table{desc: d, name: tableName}
	r.mu.Unlock()
}

// Descriptor returns the registered descriptor for a model.
func (r *Registry) Descriptor(name string) (*model.Descriptor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.models[name]
	return t.desc, ok
}

// SetHost installs the callback host: the Synapse app adopting the mapper.
func (r *Registry) SetHost(h Host) {
	r.mu.Lock()
	r.host = h
	r.mu.Unlock()
}

// Stats exposes the adapter's query counters.
func (r *Registry) Stats() *Stats { return &r.stats }

// op is one mapper operation: its table, and the scratch its callbacks
// run in, taken from scratchPool when a hook first has a callback to run
// and given back by done — a CallbackCtx, and a record the operation
// made for its callbacks, are valid for the duration of the callback.
type op struct {
	table
	host Host
	sc   *callbackScratch
}

// callbackScratch is what an operation's callbacks need and nothing
// keeps: their context, and the record a destroy shows them.
type callbackScratch struct {
	ctx model.CallbackCtx
	rec model.Record
}

var scratchPool = sync.Pool{New: func() any { return new(callbackScratch) }}

// done ends the operation.
func (o *op) done() {
	if o.sc != nil {
		*o.sc = callbackScratch{}
		scratchPool.Put(o.sc)
	}
}

// scratch is the operation's callback scratch, taken on first use.
func (o *op) scratch() *callbackScratch {
	if o.sc == nil {
		o.sc = scratchPool.Get().(*callbackScratch)
		if o.host != nil {
			o.sc.ctx.Bootstrapping = o.host.Bootstrapping()
			o.sc.ctx.Env = o.host.Env()
		}
	}
	return o.sc
}

// record is the operation's scratch record of a row it owns: one the
// engine copied out or handed over.
func (o *op) record(id string, cols map[string]any) *model.Record {
	rec := &o.scratch().rec
	*rec = model.Record{Model: o.desc.Name, ID: id, Attrs: cols}
	return rec
}

func (r *Registry) op(modelName string) (op, error) {
	r.mu.RLock()
	t, ok := r.models[modelName]
	o := op{table: t, host: r.host}
	r.mu.RUnlock()
	if !ok {
		return o, fmt.Errorf("%w: %s", ErrUnknownModel, modelName)
	}
	return o, nil
}

// begin opens a write: the record's table, and the record validated.
func (r *Registry) begin(rec *model.Record) (op, error) {
	o, err := r.op(rec.Model)
	if err == nil {
		err = o.desc.Validate(rec)
	}
	return o, err
}

// run dispatches an active-model hook for the record.
func (o *op) run(h model.Hook, rec *model.Record) error {
	if o.desc.Callbacks.Count(h) == 0 {
		return nil
	}
	sc := o.scratch()
	sc.ctx.Record = rec
	return o.desc.Callbacks.Run(h, &sc.ctx)
}

// RunCallbacks dispatches a hook for the record in the host's context.
func (r *Registry) RunCallbacks(h model.Hook, rec *model.Record) error {
	o, err := r.op(rec.Model)
	if err != nil {
		return err
	}
	defer o.done()
	return o.run(h, rec)
}

// Stage is the half of a write that comes before the engine — validate,
// before-hook, count — for an adapter that buffers writes in a
// transaction: it names the table to write to, and the adapter owes the
// after-hook (RunCallbacks) once the write is applied.
func (r *Registry) Stage(before model.Hook, rec *model.Record) (string, error) {
	o, err := r.begin(rec)
	if err != nil {
		return "", err
	}
	defer o.done()
	if err := o.run(before, rec); err != nil {
		return "", err
	}
	r.stats.Writes.Add(1)
	return o.name, nil
}

// Adopt makes a record of a row the engine copied out: no second copy.
func Adopt(modelName string, row storage.Row) *model.Record {
	if row.Cols == nil {
		return model.NewRecord(modelName, row.ID)
	}
	return &model.Record{Model: modelName, ID: row.ID, Attrs: row.Cols}
}

// Find loads one object by primary key.
func (r *Registry) Find(modelName, id string) (*model.Record, error) {
	o, err := r.op(modelName)
	if err != nil {
		return nil, err
	}
	r.stats.Reads.Add(1)
	row, err := r.b.Get(o.name, id)
	if err != nil {
		return nil, err
	}
	return Adopt(modelName, row), nil
}

// write runs the before-hook, counts the query and lends the record's
// attributes to the engine; returning asks for the row as written.
func (r *Registry) write(o *op, rec *model.Record, update, returning bool) (storage.Row, error) {
	before := model.BeforeCreate
	if update {
		before = model.BeforeUpdate
	}
	if err := o.run(before, rec); err != nil {
		return storage.Row{}, err
	}
	r.stats.Writes.Add(1)
	row := storage.Row{ID: rec.ID, Cols: rec.Attrs}
	if update {
		return r.b.Update(o.name, row, returning)
	}
	return r.b.Insert(o.name, row, returning)
}

// Create persists a new object and returns it as written.
func (r *Registry) Create(rec *model.Record) (*model.Record, error) { return r.publish(rec, false) }

// Update merges the record into the stored object and returns all of it.
func (r *Registry) Update(rec *model.Record) (*model.Record, error) { return r.publish(rec, true) }

// publish is Create and Update: a write that must find the object
// missing (stored, for an update) and whose result the caller reads.
func (r *Registry) publish(rec *model.Record, update bool) (*model.Record, error) {
	if !r.traits.Publisher {
		return nil, ErrReadOnly
	}
	o, err := r.begin(rec)
	if err != nil {
		return nil, err
	}
	defer o.done()
	if r.traits.Written == WrittenNothing {
		r.stats.Reads.Add(1)
		exists, err := r.b.Exists(o.name, rec.ID)
		switch {
		case err != nil:
			return nil, err
		case exists && !update:
			return nil, fmt.Errorf("%w: %s/%s", storage.ErrExists, o.name, rec.ID)
		case update && !exists:
			return nil, storage.ErrNotFound
		}
	}
	row, err := r.write(&o, rec, update, true)
	if err != nil {
		return nil, err
	}
	if r.traits.Written != WrittenRow {
		// No written row came back: the additional read query of §4.1.
		r.stats.ExtraReads.Add(1)
		if row, err = r.b.Get(o.name, rec.ID); err != nil {
			return nil, err
		}
	}
	written, after := Adopt(rec.Model, row), model.AfterCreate
	if update {
		after = model.AfterUpdate
	}
	if err := o.run(after, written); err != nil {
		return nil, err
	}
	return written, nil
}

// Save upserts: update callbacks and an attribute merge when the object
// exists, create callbacks and an insert otherwise. Merging (rather than
// replacing) preserves decoration attributes owned by other publishers.
// Nothing reads the row as written: the callbacks get rec.
func (r *Registry) Save(rec *model.Record) error {
	o, err := r.begin(rec)
	if err != nil {
		return err
	}
	defer o.done()
	r.stats.Reads.Add(1)
	exists, err := r.b.Exists(o.name, rec.ID)
	if err != nil {
		return err
	}
	if _, err := r.write(&o, rec, exists, false); err != nil {
		return err
	}
	if exists {
		return o.run(model.AfterUpdate, rec)
	}
	return o.run(model.AfterCreate, rec)
}

// Delete removes an object. Only a destroy callback reads the object.
// A before-destroy callback, or an after-destroy one over an engine whose
// delete does not return the row, has it loaded first, and a failed load
// ends the delete with no callback run. An after-destroy callback alone
// gets the row the delete hands over. Without a callback, an engine whose
// delete cannot tell a missing row probes for it, and the others just
// delete. The record a callback gets is the operation's scratch.
func (r *Registry) Delete(modelName, id string) error {
	o, err := r.op(modelName)
	if err != nil {
		return err
	}
	defer o.done()
	before := o.desc.Callbacks.Count(model.BeforeDestroy) > 0
	after := o.desc.Callbacks.Count(model.AfterDestroy) > 0
	var rec *model.Record
	switch {
	case before || after && r.traits.Written != WrittenRow:
		r.stats.Reads.Add(1)
		row, err := r.b.Get(o.name, id)
		if err != nil {
			return err
		}
		rec = o.record(id, row.Cols)
	case r.traits.Written == WrittenNothing:
		r.stats.Reads.Add(1)
		if exists, err := r.b.Exists(o.name, id); err != nil || !exists {
			return cmp.Or(err, storage.ErrNotFound)
		}
	}
	if err := o.run(model.BeforeDestroy, rec); err != nil {
		return err
	}
	r.stats.Writes.Add(1)
	row, err := r.b.Delete(o.name, id)
	if err != nil {
		return err
	}
	if rec == nil && after {
		rec = o.record(id, row.Cols)
	}
	return o.run(model.AfterDestroy, rec)
}

// DeleteRange removes the objects with from <= id < to in one statement.
func (r *Registry) DeleteRange(modelName, from, to string) (int, error) {
	o, err := r.op(modelName)
	if err != nil {
		return 0, err
	}
	return r.b.DeleteRange(o.name, from, to)
}

// Each streams objects with id >= from in id order.
func (r *Registry) Each(modelName, from string, fn func(*model.Record) bool) error {
	o, err := r.op(modelName)
	if err != nil {
		return err
	}
	r.stats.Reads.Add(1)
	return r.b.ScanFrom(o.name, from, func(row storage.Row) bool {
		return fn(Adopt(modelName, row))
	})
}

// Len reports the number of stored objects for the model.
func (r *Registry) Len(modelName string) int {
	o, err := r.op(modelName)
	if err != nil {
		return 0
	}
	return r.b.Len(o.name)
}
