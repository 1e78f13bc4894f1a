package core

import (
	"fmt"
	"sync"
	"time"

	"synapse/internal/deptrack"
	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/wire"
)

// performWrites runs the publisher algorithm of §4.2 for a group of
// staged writes (one operation, or a transaction's worth):
//
//  1. derive read and write dependencies from the controller scope and
//     the app's delivery mode;
//  2. acquire locks on the write dependencies (version-store locks on
//     non-transactional engines; the engine's own prepared row locks on
//     transactional ones, per the §4.2 optimization);
//  3. atomically increment ops, set version for write deps, and collect
//     the versions to embed in the message (version for reads,
//     version−1 for writes);
//  4. perform the operations and read back the written objects;
//  5. marshal the published attributes and send one message;
//  6. release locks — after the send, and without waiting for the unlock
//     round trip: a publish waits for ONE version-store window (step
//     2+3).
//
// The Synapse-specific time (everything except step 4) adds up in
// Stats.PublishTime — the "Synapse time" column of Fig 12(a).
func (a *App) performWrites(c *Controller, staged []stagedWrite) (*model.Record, error) {
	if a.draining.Load() {
		return nil, ErrDraining
	}
	start := time.Now()
	var dbTime time.Duration
	s := scratchPool.Get().(*publishScratch)
	defer s.release()

	mode := a.cfg.Mode

	// Load the final state of objects being destroyed so their published
	// attributes can ride along in the message. The paper only ships
	// deleted object IDs (§4), relying on the subscriber's local copy;
	// DB-less observers have no local copy, so we extend the format to
	// keep the Fig 5 edge-removal pattern working for them.
	for _, op := range staged {
		if op.verb != wire.OpDestroy || a.isEphemeral(op.rec.Model) || a.mapper == nil {
			continue
		}
		if last, err := a.mapper.Find(op.rec.Model, op.rec.ID); err == nil {
			op.rec.Merge(last.Attrs)
		}
	}

	// --- Step 1: dependencies. The first write dependencies are the
	// staged objects', in operation order.
	for _, op := range staged {
		s.writeNames = append(s.writeNames, depName(a.name, op.rec.Model, op.rec.ID))
	}
	var external []depRef
	if mode >= Causal {
		if c.session != nil && c.session.userDep != "" {
			s.writeNames = append(s.writeNames, c.session.userDep)
		}
		s.writeNames = append(s.writeNames, c.pendingWriteDeps...)
		for _, rd := range c.readDeps {
			if rd.external {
				external = append(external, rd)
			} else {
				s.readNames = append(s.readNames, rd.name)
			}
		}
		if c.prevWriteDep != "" {
			s.readNames = append(s.readNames, c.prevWriteDep)
		}
	}
	if mode == Global {
		s.writeNames = append(s.writeNames, globalDepName(a.name))
	}

	// Decide the apply strategy: a transactional engine takes the 2PC
	// path (the engine's prepared row locks validate the write set);
	// everything else applies operations one by one. Ephemeral-only
	// groups have no DB work at all.
	allEphemeral := true
	for _, op := range staged {
		if !a.isEphemeral(op.rec.Model) {
			allEphemeral = false
			break
		}
	}
	txm, transactional := a.mapper.(orm.Transactional)
	useTx := !allEphemeral && transactional

	var written []*model.Record
	var tx orm.MapperTx
	if useTx {
		// --- 2PC path: stage + Prepare (engine row locks) first. The
		// deferred abort is disarmed by setting tx to nil after commit.
		tx = txm.Begin()
		defer func() {
			if tx != nil {
				tx.Abort()
			}
		}()
		dbStart := time.Now()
		for _, op := range staged {
			if a.isEphemeral(op.rec.Model) {
				continue
			}
			var err error
			switch op.verb {
			case wire.OpCreate:
				err = tx.Create(op.rec)
			case wire.OpUpdate:
				err = tx.Update(op.rec)
			case wire.OpDestroy:
				err = tx.Delete(op.rec.Model, op.rec.ID)
			}
			if err != nil {
				return nil, err
			}
		}
		if err := tx.Prepare(); err != nil {
			return nil, err
		}
		dbTime += time.Since(dbStart)
	}

	// Steps 2+3 run through the app's dependency tracker (hash or DVV;
	// see deptrack): lock the union of the dependency names and bump
	// their counters in one batched round trip per shard, collecting the
	// versions to embed keyed by wire token. The locks are held over ALL
	// dependency keys (reads and writes) from the counter bump through
	// the broker publish. This is stronger than the paper, which locks
	// only write dependencies and releases before sending: that leaves a
	// window where a message can be enqueued ahead of the message
	// carrying its dependency, which a subscriber can only escape with
	// spare workers or timeouts. Holding the locks across the publish
	// makes queue order consistent with dependency order, so even a
	// single-worker causal subscriber never deadlocks. Release drops the
	// locks where it is called and hands the unlock window to the store's
	// release flusher: the controller does not sleep for its reply.
	plan, err := a.tracker.Plan(s.readNames, s.writeNames)
	if err != nil {
		return nil, err
	}
	defer plan.Release()

	journaling := !allEphemeral && a.journaling()
	var seq uint64
	// journaled: the entry is durable. acked: its message needs no
	// replay (sent, or shed). Whatever way this function is left —
	// return, error, or a crash fault's panic — the deferred call settles
	// the entry in the outbox: confirmed, deferred to the journal drain,
	// or withdrawn because nothing committed. On the way out it runs
	// after the explicit plan.Release below: a cut is never made under
	// the dependency locks.
	journaled, acked := false, false
	if journaling {
		seq = a.outbox.register()
		defer func() {
			if acked {
				a.journalAck(seq)
			} else {
				a.outbox.abandon(seq, journaled)
			}
		}()
	} else {
		seq = a.seq.Add(1)
	}

	dbStart := time.Now()
	var msg *wire.Message
	if useTx {
		inTx := false // the entry rides in the transaction
		if journaling {
			// Stage the journal entry into the prepared transaction (the
			// transactional outbox; see journal.go). The message is built
			// ONCE here — it carries the REAL dependency versions, which a
			// replay cannot reconstruct, plus the staged attributes — and
			// after the commit only the attributes and timestamp are
			// patched for the final payload. The journal copy is encoded
			// through a pooled scratch buffer (journalRecord copies it to
			// a string).
			msg, err = a.buildMessage(s, staged, &plan, external, mode, seq)
			if err != nil {
				return nil, err
			}
			if err := wire.WithEncoded(msg, func(skelPayload []byte) error {
				var jerr error
				inTx, jerr = a.stageJournalTx(tx, a.journalRecord(&s.journal, skelPayload, seq))
				return jerr
			}); err != nil {
				return nil, err
			}
		}
		committed, err := tx.Commit()
		if err != nil {
			// The version store advanced but the commit failed after a
			// successful prepare — engine corruption; surface loudly.
			tx = nil
			return nil, fmt.Errorf("synapse: commit after prepare failed: %w", err)
		}
		tx = nil
		journaled = inTx
		written = a.mergeWritten(s, staged, committed)
	} else {
		for _, op := range staged {
			w, err := a.applyOne(op)
			if err != nil {
				return nil, err
			}
			s.written = append(s.written, w)
		}
		written = s.written
	}
	dbTime += time.Since(dbStart)

	// --- Step 6: build the message (unless the journal's skeleton is
	// it), give it the written objects' attributes and send it.
	if msg == nil {
		if msg, err = a.buildMessage(s, staged, &plan, external, mode, seq); err != nil {
			return nil, err
		}
	}
	a.patchCommitted(msg, staged, written)
	payload, err := wire.Marshal(msg)
	if err != nil {
		return nil, err
	}
	if journaling && !journaled {
		// Non-transactional engine (or a tx that cannot journal): write
		// the entry — final payload this time — right after the apply.
		if err := a.journalDirect(a.journalRecord(&s.journal, payload, seq)); err != nil {
			return nil, err
		}
		journaled = true
	}
	if err := a.faults.Fire(FaultBeforePublish); err != nil {
		// The write is committed (and journaled); only the send failed.
		// RecoverJournal replays it.
		return nil, err
	}
	send := true
	switch a.admitPublish(c, journaled) {
	case admitShed:
		// Load shed: the local write stands; the message is dropped and
		// its journal entry (if any) acked, so the periodic drain cannot
		// resurrect a message the publisher chose to drop.
		send = false
		a.tel.shed.Add(1)
		acked = journaled
	case admitDefer:
		// Journal-and-defer without touching the broker: the pressured
		// queue must not grow, and the entry is already durable — the
		// journal drain republishes it after pressure clears (with a
		// jittered resume; see the ticker in StartWorkers).
		send = false
		a.tel.deferred.Add(1)
	}
	if !send {
		// Degraded: nothing sent now.
	} else if serr := a.sendMessage(payload); serr != nil {
		if !journaled {
			// No durable copy exists: surface the send failure.
			return nil, serr
		}
		// Journal-and-defer: the write is committed and the entry is
		// durable, so the publish succeeds now and the periodic journal
		// drain republishes once the broker endpoint heals.
		a.tel.deferred.Add(1)
	} else if journaled {
		if err := a.faults.Fire(FaultBeforeJournalAck); err != nil {
			// Sent but not acked: the entry survives and replays as a
			// duplicate, which the subscriber version guard absorbs.
			return nil, err
		}
		acked = true
	}
	plan.Release()

	// --- Controller scope bookkeeping for causal chaining.
	if mode >= Causal {
		c.prevWriteDep = s.writeNames[0]
		c.readDeps = c.readDeps[:0]
		c.pendingWriteDeps = c.pendingWriteDeps[:0]
	}

	a.tel.publishTime.Add(int64(time.Since(start) - dbTime))
	return written[0], nil
}

// publishScratch is one publish's working set, pooled: the write group's
// dependency names, its written records, the plan's dependencies, and
// the message with its operation for a one-operation write. Nothing in it
// outlives the publish: release clears it.
type publishScratch struct {
	writeNames, readNames []string
	written               []*model.Record
	deps                  []wire.Dep
	msg                   wire.Message
	op                    [1]wire.Operation
	journal               model.Record
}

var scratchPool = sync.Pool{New: func() any { return new(publishScratch) }}

func (s *publishScratch) release() {
	clear(s.writeNames)
	clear(s.readNames)
	clear(s.written)
	clear(s.deps)
	s.writeNames, s.readNames, s.written, s.deps = s.writeNames[:0], s.readNames[:0], s.written[:0], s.deps[:0]
	s.msg, s.op, s.journal = wire.Message{}, [1]wire.Operation{}, model.Record{}
	scratchPool.Put(s)
}

// buildMessage assembles the wire message for one write group (§4.2
// step 6) in the scratch, each operation's attributes read from its
// staged record: the journal skeleton, whose attributes the replay
// refreshes from the database (see refreshJournalAttrs), and what
// patchCommitted turns into the final message. The dependencies travel
// as the plan's numbers; the encoder renders them.
func (a *App) buildMessage(s *publishScratch, staged []stagedWrite, plan *deptrack.Plan, external []depRef, mode DeliveryMode, seq uint64) (*wire.Message, error) {
	msg := &s.msg
	*msg = wire.Message{
		App:         a.name,
		Operations:  s.op[:],
		PublishedAt: time.Now().UTC(),
		Generation:  a.generation.Load(),
		Seq:         seq,
	}
	if len(staged) > len(s.op) {
		msg.Operations = make([]wire.Operation, len(staged))
	}
	s.deps = plan.AppendDeps(s.deps[:0])
	msg.SetDeps(s.deps)
	if len(external) > 0 {
		msg.External = make(map[string]uint64, len(external))
		for _, e := range external {
			msg.External[e.extToken] = e.extOps
		}
	}
	if mode == Global {
		msg.GlobalDep = a.tracker.Token(globalDepName(a.name))
	}
	for i, op := range staged {
		ps := a.publication(op.rec.Model)
		wireOp := &msg.Operations[i]
		*wireOp = wire.Operation{
			Operation: op.verb,
			Types:     ps.chain, // shared by every message of the model: read-only
			ID:        op.rec.ID,
		}
		wireOp.SetObjectDep(a.tracker.Dep(s.writeNames[i]))
		if op.verb != wire.OpDestroy || len(op.rec.Attrs) > 0 {
			// A destroy's are its final attributes, for DB-less observers
			// (see performWrites).
			wireOp.Project(ps.lens, op.rec)
		}
	}
	if err := wire.Validate(msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// patchCommitted turns a message built from the staged records into the
// final payload in place: the written objects' attributes replace the
// staged ones and the publish timestamp is refreshed. Dependencies,
// versions, seq, and generation are identical by construction, and a
// destroy keeps the attributes it was built with.
func (a *App) patchCommitted(msg *wire.Message, staged []stagedWrite, written []*model.Record) {
	for i, op := range staged {
		if op.verb != wire.OpDestroy {
			msg.Operations[i].Project(a.publication(op.rec.Model).lens, written[i])
		}
	}
	msg.PublishedAt = time.Now().UTC()
}

// applyOne performs a single non-transactional operation through the
// ORM, returning the written object (read back).
func (a *App) applyOne(op stagedWrite) (*model.Record, error) {
	if a.isEphemeral(op.rec.Model) {
		return op.rec, nil
	}
	switch op.verb {
	case wire.OpCreate:
		return a.mapper.Create(op.rec)
	case wire.OpUpdate:
		return a.mapper.Update(op.rec)
	case wire.OpDestroy:
		if err := a.mapper.Delete(op.rec.Model, op.rec.ID); err != nil {
			return nil, err
		}
		return op.rec, nil
	}
	return nil, fmt.Errorf("synapse: unknown verb %q", op.verb)
}

// mergeWritten lines up the transaction's committed records with the
// staged operations, substituting staged records for ephemerals; with
// none among them the committed records are that already.
func (a *App) mergeWritten(s *publishScratch, staged []stagedWrite, committed []*model.Record) []*model.Record {
	if len(committed) == len(staged) {
		return committed
	}
	ci := 0
	for _, op := range staged {
		w := op.rec
		if !a.isEphemeral(op.rec.Model) && ci < len(committed) {
			w = committed[ci]
			ci++
		}
		s.written = append(s.written, w)
	}
	return s.written
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
