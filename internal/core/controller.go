package core

import (
	"errors"
	"fmt"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// Session is one user session. In causal mode, all writes performed in a
// session's controllers carry the session's user object as a write
// dependency, serializing them to match user expectations of Web
// applications (§3.2). A nil session (background job without a user)
// skips that dependency, like a Sidekiq job scope.
type Session struct {
	app     *App
	userDep vstore.Key
}

// NewSession opens a session bound to a user object (typically the
// authenticated User). The user model does not need to exist yet.
func (a *App) NewSession(userModel, userID string) *Session {
	return &Session{app: a, userDep: a.depKey(userModel, userID)}
}

// Controller is one unit of work (an HTTP request handler or background
// job, §2). Synapse transparently records the objects it reads and
// writes; each write operation is published with the dependencies the
// delivery mode requires (§4.2 "Tracking Dependencies").
type Controller struct {
	app     *App
	session *Session

	// readDeps are the keys of the objects read since the last write,
	// and of that write's first write dependency: consecutive writes
	// within the controller chain (§4.2).
	readDeps []vstore.Key
	readBuf  [2]vstore.Key // readDeps' room: a write's one read and the chain
	// external are reads of another app's objects (decorator flow): the
	// token in the ORIGIN app's tracker form (its hashed key space or its
	// exact name), so it lands on the counters the origin's other
	// subscribers actually maintain, and the subscriber-side ops value at
	// read time.
	external []wire.Dep
	// pendingWriteDeps are explicit write dependencies staged by
	// AddWriteDeps, consumed by the next write operation.
	pendingWriteDeps []vstore.Key
	closed           bool
}

// NewController opens a controller scope within a session. A nil
// session models a background job.
func (a *App) NewController(s *Session) *Controller {
	c := &Controller{app: a, session: s}
	c.readDeps = c.readBuf[:0]
	return c
}

// Find loads an object through the ORM and transparently registers the
// read dependency: on an owned model, a read dependency; on a
// subscribed model, an external (cross-app) dependency attributed to
// the origin's key with this app's current ops counter (§4.2).
func (c *Controller) Find(modelName, id string) (*model.Record, error) {
	if c.app.mapper == nil {
		return nil, fmt.Errorf("synapse: app %s has no database", c.app.name)
	}
	rec, err := c.app.mapper.Find(modelName, id)
	if err != nil {
		return nil, err
	}
	c.registerRead(modelName, id)
	return rec, nil
}

// registerRead records the dependency for an object that was read.
func (c *Controller) registerRead(modelName, id string) {
	if c.app.owned(modelName) || c.app.isEphemeral(modelName) {
		c.readDeps = append(c.readDeps, c.app.depKey(modelName, id))
		return
	}
	// Subscribed (possibly decorated) model: the dependency belongs to
	// the origin app's key space, so it must be tokenized with the
	// ORIGIN's tracker (its policy and cardinality may differ from
	// ours). External deps carry this subscriber's current ops value for
	// the key — the amount of the origin's history seen at read time.
	origin := c.originFor(modelName)
	if origin == "" {
		// Neither owned nor subscribed: a purely local model; track as a
		// local read dep.
		c.readDeps = append(c.readDeps, c.app.depKey(modelName, id))
		return
	}
	tr := c.app.tracker
	if originApp, ok := c.app.fabric.App(origin); ok {
		tr = originApp.tracker
	}
	token := tr.TokenOf(tr.ObjectKey(origin, orm.Tableize(modelName), id))
	// The local ops counter for the token lives under OUR resolution of
	// it (this app's hashed fold or intern of the origin's token).
	ops := c.app.store.Ops(c.app.tracker.Resolve(token))
	c.external = append(c.external, wire.Dep{Token: token, Version: ops})
}

// originFor picks the origin app for a subscribed model (the owner is
// the origin that is not a decorator chain hop; with several origins the
// lexicographically first is used — dependency naming only needs to be
// consistent).
func (c *Controller) originFor(modelName string) string {
	c.app.mu.RLock()
	defer c.app.mu.RUnlock()
	origins := c.app.subs[modelName]
	best := ""
	for origin := range origins {
		if best == "" || origin < best {
			best = origin
		}
	}
	return best
}

// AddReadDeps registers explicit read dependencies for queries Synapse
// cannot see through (aggregations), per Table 2.
func (c *Controller) AddReadDeps(modelName string, ids ...string) {
	for _, id := range ids {
		c.registerRead(modelName, id)
	}
}

// AddWriteDeps registers explicit write dependencies applied to the
// next write operation (Table 2).
func (c *Controller) AddWriteDeps(modelName string, ids ...string) {
	for _, id := range ids {
		c.pendingWriteDeps = append(c.pendingWriteDeps, c.app.depKey(modelName, id))
	}
}

// Create persists and publishes a new object. Only the model's owner
// may create instances (§3.1); ephemerals are published without
// persistence.
func (c *Controller) Create(rec *model.Record) (*model.Record, error) {
	return c.write(wire.OpCreate, rec)
}

// Update persists and publishes changed attributes of an existing
// object. Decorators may update only their decoration attributes.
func (c *Controller) Update(rec *model.Record) (*model.Record, error) {
	return c.write(wire.OpUpdate, rec)
}

// Destroy deletes and publishes the deletion of an object. Only the
// owner may destroy instances. It stages the model and id alone: the
// publish loads the final state under its locks (see bumpDeps).
func (c *Controller) Destroy(modelName, id string) error {
	_, err := c.write(wire.OpDestroy, &model.Record{Model: modelName, ID: id})
	return err
}

func (c *Controller) checkWriteAllowed(verb wire.OpKind, rec *model.Record) error {
	app := c.app
	if app.publication(rec.Model) == nil {
		return fmt.Errorf("synapse: app %s does not publish model %s", app.name, rec.Model)
	}
	isOwner := app.owned(rec.Model)
	switch verb {
	case wire.OpCreate, wire.OpDestroy:
		if !isOwner && !app.isEphemeral(rec.Model) {
			return fmt.Errorf("%w: %s/%s", ErrNotOwner, app.name, rec.Model)
		}
	case wire.OpUpdate:
		// No service may update attributes it imports from another
		// service (§3.1) — not decorators, and not even the owner when
		// it subscribes back to decorations of its own model. The
		// compiled subscriptions answer without a lock.
		for _, o := range *app.compiled.Load() {
			if p := o.models[rec.Model]; p != nil {
				for attr := range rec.Attrs {
					if p.Has(attr) {
						return fmt.Errorf("%w: %s.%s", ErrDecoratorAttr, rec.Model, attr)
					}
				}
			}
		}
	}
	return nil
}

// write runs the §4.2 publisher algorithm for a single operation.
func (c *Controller) write(verb wire.OpKind, rec *model.Record) (*model.Record, error) {
	if c.closed {
		return nil, errors.New("synapse: controller closed")
	}
	if err := c.checkWriteAllowed(verb, rec); err != nil {
		return nil, err
	}
	return c.app.performWrites(c, []stagedWrite{{verb: verb, rec: rec}})
}

// Txn stages multiple writes that commit atomically and are delivered
// to subscribers in a single message (§4.2 "Transactions").
type Txn struct {
	ctl    *Controller
	staged []stagedWrite
}

type stagedWrite struct {
	verb wire.OpKind
	rec  *model.Record
}

// stage adds a write the controller may make.
func (t *Txn) stage(verb wire.OpKind, rec *model.Record) error {
	if err := t.ctl.checkWriteAllowed(verb, rec); err != nil {
		return err
	}
	t.staged = append(t.staged, stagedWrite{verb: verb, rec: rec})
	return nil
}

// Create stages an insert.
func (t *Txn) Create(rec *model.Record) error { return t.stage(wire.OpCreate, rec) }

// Update stages an attribute merge.
func (t *Txn) Update(rec *model.Record) error { return t.stage(wire.OpUpdate, rec) }

// Destroy stages a deletion, of the model and id alone.
func (t *Txn) Destroy(modelName, id string) error {
	return t.stage(wire.OpDestroy, &model.Record{Model: modelName, ID: id})
}

// Transaction runs fn over a staged transaction; on success all staged
// writes commit atomically (two-phase commit on transactional engines)
// and ship in one message.
func (c *Controller) Transaction(fn func(*Txn) error) error {
	txn := &Txn{ctl: c}
	if err := fn(txn); err != nil {
		return err
	}
	if len(txn.staged) == 0 {
		return nil
	}
	_, err := c.app.performWrites(c, txn.staged)
	return err
}

// Close ends the controller scope.
func (c *Controller) Close() { c.closed = true }
