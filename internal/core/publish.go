package core

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"synapse/internal/deptrack"
	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/wire"
)

// A publication is one message on its way out of the publisher: §4.2's
// publisher algorithm for a group of staged writes (one operation, or a
// transaction's worth), or the replay of a journal entry, which enters at
// committed (see replay). Its state is a row of DESIGN §2c's outbox
// table, and each state but the ends has one step that moves it on.
// Locks are released after the send, without waiting for the unlock
// round trip: a publish waits for ONE version-store window.
type pubState uint32

const (
	pubStaged     pubState = iota // the write group; next, stageWrites
	pubPrepared                   // dependency names known, the 2PC prepared; next, bumpDeps
	pubRegistered                 // counters bumped under the locks, seq drawn, message built; next, commitWrites
	pubWritten                    // the data written, the entry (if it keeps one) not yet; next, journalDirect
	pubCommitted                  // the data written, the entry durable: a crash leaves it to replay; next, dispatch
	pubSent                       // the broker took the message; next, confirm
	pubConfirmed                  // over: sent, or an unreplayable entry dropped; the entry confirmed
	pubDeferred                   // over: committed, not sent; the journal drain owns it
	pubWithdrawn                  // over: nothing committed or sent; the plan's bump undone
	pubFailed                     // over: committed with no entry, and the send failed
	numPubStates
)

var pubStateNames = [numPubStates]string{"staged", "prepared", "registered", "written", "committed", "sent", "confirmed", "deferred", "withdrawn", "failed"}

func (s pubState) String() string { return pubStateNames[s] }

func (s pubState) over() bool { return s >= pubConfirmed }

// pubEdges is DESIGN §2c's edge table: bit t of pubEdges[s] allows s -> t.
var pubEdges = [numPubStates]uint16{
	pubStaged:     edges(pubPrepared, pubWithdrawn),
	pubPrepared:   edges(pubRegistered, pubWithdrawn),
	pubRegistered: edges(pubWritten, pubCommitted, pubWithdrawn),
	pubWritten:    edges(pubCommitted, pubWithdrawn),
	pubCommitted:  edges(pubSent, pubConfirmed, pubDeferred, pubFailed),
	pubSent:       edges(pubConfirmed, pubDeferred),
	pubDeferred:   edges(pubCommitted),
}

// publication is pooled: nothing in it outlives its publish, and release
// clears it, keeping its buffers and the journal record's map, and hands
// back a transaction that can be (see releaser).
type publication struct {
	state pubState    // moved only by App.advance
	pace  func() bool // a drain's pacing gate; nil for a live publish or an unpaced drain
	// journaling: it keeps a journal entry — a live publish with database
	// work on an app with a database, and every replay. The outbox indexes
	// the entry by seq, unless seq is 0: a predecessor's row.
	journaling bool
	seq        uint64
	start      time.Time
	db         time.Duration // spent in the engine: not Synapse time

	staged                []stagedWrite
	writeNames, readNames []string
	external              []wire.Dep
	tx                    orm.MapperTx
	plan                  deptrack.Plan
	deps                  []wire.Dep
	msg                   wire.Message
	op                    [1]wire.Operation
	written               []*model.Record
	journal               model.Record
	payload               []byte
}

var pubPool = sync.Pool{New: func() any { return new(publication) }}

// releaser is a pooled transaction (activerecord's): the publication is
// its one user, so it hands it back once it is over. It is not part of
// orm.MapperTx, so a wrapped transaction is simply not reused.
type releaser interface{ Release() }

func (p *publication) release() {
	if r, ok := p.tx.(releaser); ok {
		r.Release()
	}
	clear(p.staged)
	clear(p.writeNames)
	clear(p.readNames)
	clear(p.external)
	clear(p.deps)
	clear(p.written)
	clear(p.journal.Attrs)
	*p = publication{staged: p.staged[:0], writeNames: p.writeNames[:0], readNames: p.readNames[:0],
		external: p.external[:0], deps: p.deps[:0], written: p.written[:0], journal: model.Record{Attrs: p.journal.Attrs}}
	pubPool.Put(p)
}

// performWrites publishes a group of staged writes for a controller. The
// Synapse-specific time (everything but the engine's) adds up in
// Stats.PublishTime — the "Synapse time" column of Fig 12(a).
func (a *App) performWrites(c *Controller, staged []stagedWrite) (*model.Record, error) {
	if a.draining.Load() {
		return nil, ErrDraining
	}
	p := pubPool.Get().(*publication)
	defer p.release()
	p.staged, p.start = append(p.staged, staged...), time.Now()
	if err := a.drivePublication(p, c); err != nil {
		return nil, err
	}
	// Controller scope bookkeeping for causal chaining.
	if a.cfg.Mode >= Causal {
		c.prevWriteDep = p.writeNames[0]
		c.readDeps = c.readDeps[:0]
		c.pendingWriteDeps = c.pendingWriteDeps[:0]
	}
	a.tel.publishTime.Add(int64(time.Since(p.start) - p.db))
	return p.written[0], nil
}

// drivePublication runs a publication from where it stands to an end,
// one step per state; c is the controller a live publish writes for, nil
// for a replay. A step that fails — or a crash fault's panic — leaves it
// where the failure found it, and the deferred exit takes it to the end
// that state implies: before committed nothing durable exists and nothing
// was sent, so withdrawn; after, its entry is the journal drain's — or,
// with none, the publish failed.
func (a *App) drivePublication(p *publication, c *Controller) error {
	defer func() {
		switch {
		case p.state.over():
		case p.state < pubCommitted:
			a.advance(p, pubWithdrawn)
		case p.journaling:
			a.advance(p, pubDeferred)
		default:
			a.advance(p, pubFailed)
		}
	}()
	for !p.state.over() {
		var err error
		switch p.state {
		case pubStaged:
			err = a.stageWrites(p, c)
		case pubPrepared:
			err = a.bumpDeps(p)
		case pubRegistered:
			err = a.commitWrites(p)
		case pubWritten:
			err = a.journalDirect(p)
		case pubCommitted:
			err = a.dispatch(p, c)
		case pubSent:
			err = a.confirm(p, c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// advance moves p to next: the one place a publication changes state. A
// move outside pubEdges panics. An end settles what p holds, in order:
// withdrawn aborts an uncommitted transaction and undoes the plan's bump
// while the locks are held — nothing was sent, so no message carries
// those versions, and the gap would wedge causal subscribers; every end
// releases the locks; then the outbox learns the end, so a cut is never
// made under the locks.
func (a *App) advance(p *publication, next pubState) {
	from := p.state
	if pubEdges[from]&(1<<next) == 0 {
		panic(fmt.Sprintf("synapse: publication moved %v -> %v", from, next))
	}
	p.state = next
	if next.over() {
		if next == pubWithdrawn {
			if from < pubWritten && p.tx != nil {
				p.tx.Abort()
			}
			_ = p.plan.Undo() // a dead store's counters go with its generation
		}
		p.plan.Release()
		switch {
		case !p.journaling || p.seq == 0:
		case next == pubConfirmed:
			a.journalAck(p.seq)
		default:
			a.outbox.abandon(p.seq, next == pubDeferred)
		}
	}
	a.moved(nil, p, uint32(from), uint32(next))
}

// stageWrites is staged's step: the dependency names — the staged
// objects' first, in operation order, then what the delivery mode adds —
// and, on a transactional engine, the writes staged and prepared (2PC):
// the engine's row locks validate the write set (§4.2's optimization).
func (a *App) stageWrites(p *publication, c *Controller) error {
	for _, op := range p.staged {
		p.writeNames = append(p.writeNames, depName(a.name, op.rec.Model, op.rec.ID))
		if !a.isEphemeral(op.rec.Model) && a.mapper != nil {
			p.journaling = true
		}
	}
	if a.cfg.Mode >= Causal {
		if c.session != nil && c.session.userDep != "" {
			p.writeNames = append(p.writeNames, c.session.userDep)
		}
		p.writeNames = append(p.writeNames, c.pendingWriteDeps...)
		for _, rd := range c.readDeps {
			if rd.external {
				p.external = append(p.external, rd.ext)
			} else {
				p.readNames = append(p.readNames, rd.name)
			}
		}
		if c.prevWriteDep != "" {
			p.readNames = append(p.readNames, c.prevWriteDep)
		}
	}
	if a.cfg.Mode == Global {
		p.writeNames = append(p.writeNames, globalDepName(a.name))
	}
	if txm, ok := a.mapper.(orm.Transactional); ok && p.journaling {
		start := time.Now()
		p.tx = txm.Begin()
		for _, op := range p.staged {
			var err error
			switch {
			case a.isEphemeral(op.rec.Model):
			case op.verb == wire.OpCreate:
				err = p.tx.Create(op.rec)
			case op.verb == wire.OpUpdate:
				err = p.tx.Update(op.rec)
			default:
				err = p.tx.Delete(op.rec.Model, op.rec.ID)
			}
			if err != nil {
				return err
			}
		}
		if err := p.tx.Prepare(); err != nil {
			return err
		}
		p.db += time.Since(start)
	}
	a.advance(p, pubPrepared)
	return nil
}

// bumpDeps is prepared's step, through the app's dependency tracker
// (hash or DVV): lock the union of the dependency names and bump their
// counters, one batched round trip per shard. The locks cover reads and
// writes and are held through the broker send — stronger than the paper,
// which locks writes only and releases before sending, leaving a window
// where a message is enqueued ahead of the one carrying its dependency.
// Held, queue order is dependency order, and even a single-worker causal
// subscriber never deadlocks. Under them a destroy loads the object's
// final state, its staged record from then on, so its attributes ride
// along: the paper ships only deleted IDs (§4), relying on the
// subscriber's local copy, and DB-less observers have none. The object's
// lock, and on the 2PC path the row lock Prepare took, keep an update
// from committing between the load and the delete: one that committed
// before is published first, and the destroy carries its attributes.
// Then the seq is drawn (registered before the entry can commit) and the
// message built with the plan's versions.
func (a *App) bumpDeps(p *publication) (err error) {
	if p.plan, err = a.tracker.Plan(p.readNames, p.writeNames); err != nil {
		return err
	}
	for i, op := range p.staged {
		if op.verb == wire.OpDestroy && a.mapper != nil && !a.isEphemeral(op.rec.Model) {
			if last, err := a.mapper.Find(op.rec.Model, op.rec.ID); err == nil {
				p.staged[i].rec = last // a missing object's delete fails
			}
		}
	}
	if p.journaling {
		p.seq = a.outbox.register()
	} else {
		p.seq = a.seq.Add(1)
	}
	a.advance(p, pubRegistered)
	return a.buildMessage(p)
}

// commitWrites is registered's step. The 2PC path stages the journal
// entry — the skeleton, encoded through a pooled buffer — into the
// prepared transaction (the transactional outbox; see journal.go), so
// the commit makes data and entry durable at once; other engines apply
// the writes one by one. Either way the written objects' attributes then
// replace the staged ones in the final payload.
func (a *App) commitWrites(p *publication) error {
	start := time.Now()
	if p.tx == nil {
		for _, op := range p.staged {
			w, err := a.applyOne(op)
			if err != nil {
				return err
			}
			p.written = append(p.written, w)
		}
		a.advance(p, pubWritten)
	} else {
		next := pubWritten // unless the entry rides in the transaction
		if jtx, ok := p.tx.(orm.TxJournaler); ok {
			if err := wire.WithEncoded(&p.msg, func(skeleton []byte) error {
				return jtx.StageJournal(a.journalRecord(&p.journal, skeleton, p.seq))
			}); err != nil {
				return err
			}
			next = pubCommitted
		}
		committed, err := p.tx.Commit()
		// After a successful prepare only an after-callback fails a commit,
		// and the engine has committed by then: the move stands, the error
		// is the caller's.
		a.advance(p, next)
		if err != nil {
			return fmt.Errorf("synapse: commit after prepare failed: %w", err)
		}
		// Ephemerals are the staged records, and so is a destroy's final
		// state: its slot is nil.
		for _, op := range p.staged {
			w := op.rec
			if !a.isEphemeral(op.rec.Model) && len(committed) > 0 {
				w, committed = cmp.Or(committed[0], w), committed[1:]
			}
			p.written = append(p.written, w)
		}
	}
	p.db += time.Since(start)
	for i, op := range p.staged {
		if op.verb != wire.OpDestroy { // a destroy keeps its final attributes
			p.msg.Operations[i].Project(a.publication(op.rec.Model).lens, p.written[i])
		}
	}
	p.msg.PublishedAt = time.Now().UTC()
	var err error
	p.payload, err = wire.Marshal(&p.msg)
	return err
}

// journalDirect is written's step: the entry, final payload this time, as
// a plain insert — non-transactional engines, and transactions that
// cannot stage it. A publish that keeps no entry has nothing to persist.
func (a *App) journalDirect(p *publication) error {
	if p.journaling {
		if _, err := a.mapper.Create(a.journalRecord(&p.journal, p.payload, p.seq)); err != nil {
			return err
		}
	}
	a.advance(p, pubCommitted)
	return nil
}

// dispatch is committed's step, the one send for live publishes and
// replays alike: admission decides whether the message goes now (see
// admit; a replay is rebuilt from its row only once admitted). A send
// that fails defers a live publish's durable entry — the write is
// committed, so the publish succeeds and the drain republishes once the
// broker endpoint heals; any other failed send is the caller's error.
func (a *App) dispatch(p *publication, c *Controller) error {
	next, err := a.admit(p, c)
	if err == nil && next == pubSent && c == nil {
		next, err = a.rebuild(p)
	}
	if err != nil {
		return err
	}
	if next == pubSent {
		if err := a.sendMessage(p.payload); err != nil {
			if c == nil || !p.journaling {
				return err
			}
			a.tel.deferred.Add(1)
			next = pubDeferred
		} else if c == nil {
			a.tel.republished.Add(1)
		}
	}
	a.advance(p, next)
	return nil
}

// confirm is sent's step. A crash fault between the send and the
// confirmation leaves the entry to replay as a duplicate, which the
// subscriber's version guard absorbs.
func (a *App) confirm(p *publication, c *Controller) error {
	if p.journaling {
		site := FaultBeforeJournalAck
		if c == nil {
			site = FaultJournalDrain
		}
		if err := a.faults.Fire(site); err != nil {
			return err
		}
	}
	a.advance(p, pubConfirmed)
	return nil
}

// buildMessage assembles the wire message for the write group, each
// operation's attributes read from its staged record: the journal
// skeleton, whose attributes a replay refreshes from the database (see
// refreshJournalAttrs), and what commitWrites turns into the final
// message. The dependencies travel as the plan's numbers; the encoder
// renders them.
func (a *App) buildMessage(p *publication) error {
	msg := &p.msg
	*msg = wire.Message{
		App:         a.name,
		Operations:  p.op[:],
		PublishedAt: time.Now().UTC(),
		Generation:  a.generation.Load(),
		Seq:         p.seq,
	}
	if len(p.staged) > len(p.op) {
		msg.Operations = make([]wire.Operation, len(p.staged))
	}
	p.deps = p.plan.AppendDeps(p.deps[:0])
	msg.SetDeps(p.deps)
	msg.SetExternal(p.external)
	if a.cfg.Mode == Global {
		global := a.tracker.Token(globalDepName(a.name))
		msg.GlobalDep = &global
	}
	for i, op := range p.staged {
		ps := a.publication(op.rec.Model)
		wireOp := &msg.Operations[i]
		*wireOp = wire.Operation{
			Operation: op.verb,
			Types:     ps.chain, // shared by every message of the model: read-only
			ID:        op.rec.ID,
			Object:    a.tracker.Token(p.writeNames[i]),
		}
		if op.verb != wire.OpDestroy || len(op.rec.Attrs) > 0 {
			wireOp.Project(ps.lens, op.rec)
		}
	}
	return wire.Validate(msg)
}

// applyOne performs a single non-transactional operation through the
// ORM, returning the written object (read back).
func (a *App) applyOne(op stagedWrite) (*model.Record, error) {
	switch {
	case a.isEphemeral(op.rec.Model):
		return op.rec, nil
	case op.verb == wire.OpCreate:
		return a.mapper.Create(op.rec)
	case op.verb == wire.OpUpdate:
		return a.mapper.Update(op.rec)
	}
	return op.rec, a.mapper.Delete(op.rec.Model, op.rec.ID)
}

// projectPublished extracts the app's published attributes from the
// written record, computing virtual attribute getters (§3.1); nil when
// the app publishes nothing of the model.
func (a *App) projectPublished(modelName string, rec *model.Record) map[string]any {
	ps := a.publication(modelName)
	if ps == nil {
		return nil
	}
	return ps.lens.Read(rec)
}
