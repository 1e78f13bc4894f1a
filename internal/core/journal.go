package core

import (
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// The durable publish journal closes the paper's crash window between
// the publisher's local commit and the broker send (§4.2 discusses the
// 2PC; the original system heals the window with a subscriber
// bootstrap). Every message is appended to a log in the publisher's OWN
// storage engine before the broker send:
//
//   - On transactional engines the journal row rides in the same engine
//     transaction as the data writes (the transactional-outbox pattern),
//     staged after Prepare via orm.TxJournaler because its payload — the
//     bumped dependency versions — only exists then. Commit therefore
//     persists data and journal atomically: there is no state in which
//     the data committed but no record of the unsent message survives.
//   - On non-transactional engines the journal entry is written between
//     the data apply and the broker send. A crash between the two leaves
//     the paper's original (now much smaller) window; a crash after
//     leaves an entry to replay.
//
// The log is append-only with a high-water acknowledgement (the shape
// DBLog assumes of a source): an entry is registered in the in-memory
// outbox before it can commit, confirmed there once its message was sent
// (or shed) — a mutex and a counter, no engine call — and its row leaves
// the engine later, by truncation: one range delete below the lowest
// unconfirmed entry per outboxCutEvery confirmations, and at every
// drain and graceful stop. What a crash can replay is therefore the
// entries in flight plus up to outboxCutEvery confirmed ones (and a
// shed entry may resurface); both are duplicates or late messages the
// subscriber-side guard below makes harmless.
//
// RecoverJournal republishes entries VERBATIM with respect to
// dependency versions: the crashed publish already bumped the
// version-store counters, and a message carrying those exact versions is
// the only thing that can fill the resulting gap in subscriber ops
// counters — re-running the publisher algorithm would burn fresh
// versions and wedge strict-causal subscribers forever. Replays may
// duplicate a send that did reach the broker; the subscriber side is
// idempotent for liveness — the per-object version guard discards the
// duplicate apply, and the duplicate ops increments only run subscriber
// counters ahead, which weakens ordering for already-delivered messages
// but never blocks.

// journalModel is the reserved model backing the publish journal, one
// instance ("synapse_journals" row/document) per entry not yet
// truncated.
const journalModel = "SynapseJournal"

// Named fault sites on the publish/recovery path (see faultinject).
const (
	// FaultBeforePublish fires after the local commit (and journal
	// write) but before the broker send — the classic crash window.
	FaultBeforePublish = "publish/before-send"
	// FaultBeforeJournalAck fires between the broker send and the
	// journal-entry confirmation; a crash here leaves a duplicate replay.
	FaultBeforeJournalAck = "publish/before-journal-ack"
	// FaultJournalDrain fires after each recovery republish, before the
	// entry is confirmed; a crash here tests re-entrant drains.
	FaultJournalDrain = "journal/drain"
	// FaultApply fires at the top of every subscriber-side operation
	// apply, driving the retry/dead-letter path.
	FaultApply = "subscribe/apply"
)

// outboxCutEvery is how many confirmations accumulate before the
// confirming goroutine truncates the confirmed prefix of the log. It
// bounds both the rows a healthy publisher keeps and the duplicates a
// crash can replay; one range delete per 256 messages is already below
// 1 % of a publish, so nothing is gained by tuning it.
const outboxCutEvery = 256

// outbox is the in-memory index of this instance's journal entries.
// The engine holds the payloads; the outbox knows which of them still
// matter. An entry is
//
//	registered — its seq is drawn and recorded before the entry can
//	             commit, so no committed row is ever unknown here;
//	deferred   — committed, and the publish gave the send up (broker
//	             unreachable, backpressure, a crash fault): the drain
//	             owns it now;
//	confirmed  — sent or shed: forgotten here, its row awaits the cut;
//	withdrawn  — its transaction aborted: forgotten, there is no row.
//
// Invariant (what makes the lagging cut safe): every committed row of
// this epoch whose seq is below the watermark is confirmed.
type outbox struct {
	seq *atomic.Uint64 // the app's message counter; register draws from it under mu

	mu        sync.Mutex
	open      map[uint64]bool // registered, not confirmed; true = deferred
	cut       uint64          // rows of this epoch below it are gone
	sinceCut  int             // confirmations since the watermark was last taken
	inherited int             // rows predecessor instances left, still to replay
	truncated int64           // rows removed by range deletes
}

func newOutbox(seq *atomic.Uint64) *outbox {
	return &outbox{seq: seq, open: make(map[uint64]bool)}
}

// register draws the next message seq and records it as in flight.
// Drawing under the mutex makes seqs register in increasing order, so a
// watermark taken when nothing is open (seq+1) is below every entry
// that registers later.
func (o *outbox) register() uint64 {
	o.mu.Lock()
	seq := o.seq.Add(1)
	o.open[seq] = false
	o.mu.Unlock()
	return seq
}

// confirm forgets a sent (or shed) entry and reports whether a cut is
// due.
func (o *outbox) confirm(seq uint64) bool {
	o.mu.Lock()
	delete(o.open, seq)
	o.sinceCut++
	due := o.sinceCut >= outboxCutEvery
	o.mu.Unlock()
	return due
}

// abandon ends a publish that did not confirm its entry: a committed
// entry becomes deferred, one whose transaction aborted is withdrawn.
func (o *outbox) abandon(seq uint64, committed bool) {
	o.mu.Lock()
	if committed {
		o.open[seq] = true
	} else {
		delete(o.open, seq)
	}
	o.mu.Unlock()
}

// deferred lists the entries the drain owns, in seq order.
func (o *outbox) deferred() []uint64 {
	o.mu.Lock()
	var seqs []uint64
	for seq, deferred := range o.open {
		if deferred {
			seqs = append(seqs, seq)
		}
	}
	o.mu.Unlock()
	slices.Sort(seqs)
	return seqs
}

// watermark returns the range of this epoch's seqs a cut may delete —
// from the last cut up to the lowest unconfirmed entry, or past the
// newest entry when none is open — and restarts the confirmation count.
// ok is false when the range is empty.
func (o *outbox) watermark() (from, to uint64, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sinceCut = 0
	to = o.seq.Load() + 1
	for seq := range o.open {
		if seq < to {
			to = seq
		}
	}
	return o.cut, to, to > o.cut
}

// truncatedTo records a successful cut.
func (o *outbox) truncatedTo(to uint64, rows int) {
	o.mu.Lock()
	o.cut = to
	o.truncated += int64(rows)
	o.mu.Unlock()
}

// replayedInherited records predecessor rows replayed and removed; all
// marks the scan as having reached this instance's own epoch.
func (o *outbox) replayedInherited(rows int, all bool) {
	o.mu.Lock()
	o.inherited -= rows
	if all || o.inherited < 0 {
		o.inherited = 0
	}
	o.truncated += int64(rows)
	o.mu.Unlock()
}

// counts reports the entries still awaiting a broker send — this
// instance's and the inherited ones — and the rows truncated so far.
func (o *outbox) counts() (unconfirmed, inherited int, truncated int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.open), o.inherited, o.truncated
}

func journalDescriptor() *model.Descriptor {
	return model.NewDescriptor(journalModel,
		model.Field{Name: "payload", Type: model.String},
	)
}

// registerJournal binds the journal model to the app's own storage
// engine (NewApp, when the app has a database and journaling is on) and
// counts the rows predecessor instances left in it: at this point every
// row is someone else's.
func (a *App) registerJournal() error {
	if _, ok := a.mapper.Descriptor(journalModel); !ok {
		if err := a.mapper.Register(journalDescriptor()); err != nil {
			return err
		}
	}
	a.outbox.inherited = a.mapper.Len(journalModel)
	return nil
}

// journaling reports whether publishes go through the durable journal.
func (a *App) journaling() bool {
	return a.mapper != nil
}

// journalID builds the entry's primary key: instance epoch then message
// seq, both fixed-width so lexicographic id order (what Mapper.Each and
// DeleteRange go by) is publish order, and entries left by a crashed
// predecessor instance sort — and therefore replay — before new ones.
func journalID(epoch int64, seq uint64) string {
	var arr [40]byte
	b := appendPadded(arr[:0], uint64(epoch), 20)
	b = append(b, '-')
	b = appendPadded(b, seq, 16)
	return string(b)
}

// appendPadded appends v in decimal, zero-padded to width.
func appendPadded(b []byte, v uint64, width int) []byte {
	var arr [20]byte
	digits := strconv.AppendUint(arr[:0], v, 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// journalRecord makes rec, a publish's scratch record, the journal entry
// of a marshalled message: the id and the payload copy are the entry's
// own, the record itself is not kept by the mapper.
func (a *App) journalRecord(rec *model.Record, payload []byte, seq uint64) *model.Record {
	*rec = model.Record{
		Model: journalModel,
		ID:    journalID(a.journalEpoch, seq),
		Attrs: map[string]any{"payload": string(payload)},
	}
	return rec
}

// journalAck confirms an entry whose message was sent (or shed) — the
// one acknowledgement path. The confirmation that brings the count to
// outboxCutEvery also truncates, unless a drain holds journalMu: the
// drain cuts when it ends.
func (a *App) journalAck(seq uint64) {
	if a.outbox.confirm(seq) && a.journalMu.TryLock() {
		a.truncateJournal()
		a.journalMu.Unlock()
	}
}

// truncateJournal removes the confirmed prefix of this instance's log
// in one range delete. The caller holds journalMu. A failed delete is
// deliberately swallowed: the rows stay for the next cut (the bound is
// only advanced on success), and at worst replay after a crash as
// duplicates — failing a publish or a drain here would report an error
// for work that fully succeeded.
func (a *App) truncateJournal() {
	from, to, ok := a.outbox.watermark()
	if !ok {
		return
	}
	rows, err := a.mapper.DeleteRange(journalModel, journalID(a.journalEpoch, from), journalID(a.journalEpoch, to))
	if err == nil {
		a.outbox.truncatedTo(to, rows)
	}
}

// cutJournal truncates outside a drain: the graceful stops call it so
// that they leave no rows behind.
func (a *App) cutJournal() {
	if !a.journaling() {
		return
	}
	a.journalMu.Lock()
	defer a.journalMu.Unlock()
	a.truncateJournal()
}

// JournalDepth reports the journal entries currently awaiting a broker
// send: this instance's unconfirmed entries (in flight or deferred)
// plus the rows a crashed predecessor left that have not been replayed.
// Confirmed rows waiting for the next cut do not count.
func (a *App) JournalDepth() int {
	if !a.journaling() {
		return 0
	}
	unconfirmed, inherited, _ := a.outbox.counts()
	return unconfirmed + inherited
}

// RecoverJournal republishes the journal entries that still owe a send
// and reports how many it drained: rows inherited from a predecessor
// instance, then this instance's deferred entries, in (epoch, seq)
// order. A restarted publisher calls it before serving traffic
// (StartWorkers also kicks it for apps that consume). It is safe at any
// time, next to live publishes too: an entry whose publish is still in
// flight is not deferred and is left alone. Drains are serialized
// against each other, and each ends by truncating the confirmed rows.
func (a *App) RecoverJournal() (int, error) {
	return a.recoverJournal(nil)
}

// recoverJournal is RecoverJournal with an optional pacing gate: when
// admit is non-nil it is consulted before every republish, and a false
// return stops the drain early, leaving the remaining entries for the
// next pass. The periodic drain (StartWorkers) paces against the
// backpressure signal this way so a cleared low watermark is answered
// entry by entry, not with the whole deferred backlog in one burst that
// would punch straight past the high watermark again. App.Drain and
// explicit RecoverJournal calls pass nil: they flush unconditionally.
func (a *App) recoverJournal(admit func() bool) (int, error) {
	if !a.journaling() {
		return 0, nil
	}
	a.journalMu.Lock()
	defer a.journalMu.Unlock()
	drained, more, err := a.replayInherited(admit)
	if more && err == nil {
		var n int
		n, err = a.replayDeferred(admit)
		drained += n
	}
	a.truncateJournal()
	return drained, err
}

// replayInherited republishes the rows predecessor instances left, in
// id order, and removes the replayed prefix in one range delete. more
// reports that none is left and the drain may go on to this instance's
// own entries.
func (a *App) replayInherited(admit func() bool) (drained int, more bool, err error) {
	if _, inherited, _ := a.outbox.counts(); inherited == 0 {
		return 0, true, nil
	}
	own := journalID(a.journalEpoch, 0)
	var rows []*model.Record
	if err := a.mapper.Each(journalModel, "", func(r *model.Record) bool {
		if r.ID >= own {
			return false
		}
		rows = append(rows, r)
		return true
	}); err != nil {
		return 0, false, err
	}
	done := 0 // rows[:done] need no further replay
	for _, e := range rows {
		if admit != nil && !admit() {
			break
		}
		var sent bool
		sent, err = a.replay(e.String("payload"))
		if sent {
			drained++
		}
		if err != nil {
			break
		}
		done++
	}
	removed, all := 0, done == len(rows)
	if done > 0 {
		// "\x00" makes the half-open bound include the last replayed id.
		var derr error
		if removed, derr = a.mapper.DeleteRange(journalModel, "", rows[done-1].ID+"\x00"); derr != nil {
			all = false // the rows are still there: they replay again
		}
	}
	a.outbox.replayedInherited(removed, all)
	return drained, done == len(rows), err
}

// replayDeferred republishes this instance's deferred entries in seq
// order, confirming each as it goes.
func (a *App) replayDeferred(admit func() bool) (drained int, err error) {
	for _, seq := range a.outbox.deferred() {
		if admit != nil && !admit() {
			return drained, nil
		}
		e, err := a.mapper.Find(journalModel, journalID(a.journalEpoch, seq))
		if err != nil && !errors.Is(err, storage.ErrNotFound) {
			return drained, err
		}
		if err == nil {
			sent, err := a.replay(e.String("payload"))
			if sent {
				drained++
			}
			if err != nil {
				return drained, err
			}
		}
		// Sent, or unreplayable (corrupt, or its row is gone): either way
		// it must not wedge every future drain.
		a.journalAck(seq)
	}
	return drained, nil
}

// replay republishes one journal payload. sent is false (and err nil)
// for a corrupt entry, which can never replay and is dropped rather
// than wedge every future recovery. An error means the entry stays for
// the next drain: the store or the broker endpoint is still
// unreachable, or — with sent true — the journal/drain fault fired
// between the republish and the caller's confirmation.
func (a *App) replay(stored string) (sent bool, err error) {
	msg, err := wire.Unmarshal([]byte(stored))
	if err != nil {
		return false, nil
	}
	a.refreshJournalAttrs(msg, false)
	msg.Recovered = true
	if err := a.regenerateStaleEntry(msg); err != nil {
		return false, err
	}
	payload, err := wire.Marshal(msg)
	if err != nil {
		return false, err
	}
	if err := a.sendMessage(payload); err != nil {
		return false, err
	}
	a.tel.republished.Add(1)
	return true, a.faults.Fire(FaultJournalDrain)
}

// refreshJournalAttrs fills each operation's published attributes from
// the current database state. Transactional journal entries carry the
// attributes as staged pre-commit (the read-back — defaults,
// engine-computed columns — only exists after Commit, too late to ride
// in the transaction), so the replay fills in what the staged record
// lacks from the committed row. Attributes the write itself carried are
// NEVER overwritten (overwrite=false): a live journal drain races later
// in-flight messages of the same generation, and shipping the current
// value under the entry's original version would let the later-version
// original regress it on subscribers. The overwrite=true mode is for
// regenerated stale-generation entries only (regenerateStaleEntry),
// which claim a fresh version and must carry the state as of that
// claim. An object missing or unprojectable keeps its journaled
// attributes: it was deleted after the crashed publish, and the
// delete's own message supersedes this one under the version guard.
func (a *App) refreshJournalAttrs(msg *wire.Message, overwrite bool) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		if op.Operation == wire.OpDestroy {
			continue
		}
		if a.isEphemeral(op.Model()) {
			continue
		}
		rec, err := a.mapper.Find(op.Model(), op.ID)
		if err != nil {
			continue
		}
		attrs := a.projectPublished(op.Model(), rec)
		if attrs == nil {
			continue
		}
		if overwrite || op.Attributes == nil {
			op.Attributes = attrs
			continue
		}
		for k, v := range attrs {
			if _, ok := op.Attributes[k]; !ok {
				op.Attributes[k] = v
			}
		}
	}
}

// regenerateStaleEntry rebuilds a journal entry that predates the
// current generation. Its version-store context died with the old
// generation: replayed verbatim it would be dropped as stale by
// subscribers past the barrier, losing the update. Instead the replay
// becomes a fresh current-generation write of the objects' CURRENT
// state: new versions are claimed from the revived store, the dead
// cross-object dependencies are stripped (their counters no longer
// exist on either side; per-object ordering is all the new generation
// can promise about the old one, exactly the §4.4 bootstrap-free
// contract), and — inside the write locks, after the claim, so no
// concurrent publish can commit newer state under a lower version —
// the attributes are re-projected from the committed rows. A no-op for
// entries already in the current generation.
func (a *App) regenerateStaleEntry(msg *wire.Message) error {
	gen := a.generation.Load()
	if msg.Generation >= gen {
		return nil
	}
	keys := make([]vstore.Key, 0, len(msg.Operations))
	for i := range msg.Operations {
		keys = append(keys, a.tracker.Resolve(msg.Operations[i].ObjectDep))
	}
	// One window, like a live publish; a write dependency's version comes
	// back as version−1 — the wire encoding.
	bumped, err := a.store.BumpBatch(nil, keys)
	if err != nil {
		return err
	}
	defer bumped.Release()
	// Rebuild the dependency maps in the tokens' own forms: exact names
	// (DVV dots) back into Dots, decimal hashed keys into Dependencies.
	deps := make(map[string]uint64, len(msg.Operations))
	var dots map[string]uint64
	for i := range msg.Operations {
		tok := msg.Operations[i].ObjectDep
		v := bumped.Version(a.tracker.Resolve(tok))
		if wire.IsNameToken(tok) {
			if dots == nil {
				dots = make(map[string]uint64, len(msg.Operations))
			}
			dots[tok] = v
		} else {
			deps[tok] = v
		}
	}
	msg.Dependencies = deps
	msg.Dots = dots
	msg.External = nil
	msg.GlobalDep = ""
	msg.Generation = gen
	a.refreshJournalAttrs(msg, true)
	return nil
}

// stageJournalTx stages the entry into the prepared data transaction
// (transactional-outbox). Reports false when the engine cannot, in
// which case the caller journals post-commit like the non-tx path.
func (a *App) stageJournalTx(tx orm.MapperTx, entry *model.Record) (bool, error) {
	jtx, ok := tx.(orm.TxJournaler)
	if !ok {
		return false, nil
	}
	if err := jtx.StageJournal(entry); err != nil {
		return false, err
	}
	return true, nil
}

// journalDirect writes the entry as a plain insert (non-transactional
// engines, post-apply; transactional engines whose tx cannot journal).
func (a *App) journalDirect(entry *model.Record) error {
	_, err := a.mapper.Create(entry)
	return err
}

// ---------------------------------------------------------------------
// Bootstrap cursor journal: one reserved row per (origin, model) records
// the id of the last chunk fully applied by the chunked live bootstrap,
// so a subscriber crash, broker bounce, or partition mid-bootstrap
// resumes from the next chunk instead of restarting the scan. done=1
// marks a model fully walked (distinct from "not started", since the
// empty cursor is also the scan start). Rows are deleted when the whole
// origin bootstrap completes; a surviving row therefore always means an
// interrupted bootstrap.
// ---------------------------------------------------------------------

// cursorModel is the reserved model backing the bootstrap chunk cursor.
const cursorModel = "SynapseBootstrapCursor"

// FaultBootstrapCursor fires before the cursor-journal write that seals
// a completed chunk (see faultinject); a crash here replays the chunk,
// which the per-object version guard makes idempotent.
const FaultBootstrapCursor = "bootstrap/cursor-journal"

func cursorDescriptor() *model.Descriptor {
	return model.NewDescriptor(cursorModel,
		model.Field{Name: "model", Type: model.String},
		model.Field{Name: "cursor", Type: model.String},
		model.Field{Name: "done", Type: model.Int},
	)
}

// registerCursorJournal binds the cursor model to the app's own storage
// engine (NewApp, for every app with a database — the cursor journal is
// useful even when the publish journal is disabled).
func (a *App) registerCursorJournal() error {
	if _, ok := a.mapper.Descriptor(cursorModel); ok {
		return nil
	}
	return a.mapper.Register(cursorDescriptor())
}

// cursorJournaling reports whether bootstrap progress is durable. Apps
// without a database (pure publishers of ephemerals) cannot resume.
func (a *App) cursorJournaling() bool {
	if a.mapper == nil {
		return false
	}
	_, ok := a.mapper.Descriptor(cursorModel)
	return ok
}

// cursorID keys the row: origin then model, both verbatim (origins and
// model names never contain '|').
func cursorID(origin, modelName string) string {
	return origin + "|" + modelName
}

// readCursor returns the journaled cursor for (origin, model): the last
// chunk-final id applied, and whether the model's scan already finished.
// ok reports whether any row exists (an interrupted bootstrap).
func (a *App) readCursor(origin, modelName string) (cursor string, done, ok bool) {
	if !a.cursorJournaling() {
		return "", false, false
	}
	rec, err := a.mapper.Find(cursorModel, cursorID(origin, modelName))
	if err != nil || rec == nil {
		return "", false, false
	}
	return rec.String("cursor"), rec.Int("done") != 0, true
}

// writeCursor seals a completed chunk (or, with done, a completed model
// scan) into the cursor journal.
func (a *App) writeCursor(origin, modelName, cursor string, done bool) error {
	if !a.cursorJournaling() {
		return nil
	}
	if err := a.faults.Fire(FaultBootstrapCursor); err != nil {
		return err
	}
	rec := model.NewRecord(cursorModel, cursorID(origin, modelName))
	rec.Set("model", modelName)
	rec.Set("cursor", cursor)
	if done {
		rec.Set("done", int64(1))
	} else {
		rec.Set("done", int64(0))
	}
	return a.mapper.Save(rec)
}

// clearCursor removes the cursor row for (origin, model) once the
// origin's bootstrap has fully converged.
func (a *App) clearCursor(origin, modelName string) {
	if !a.cursorJournaling() {
		return
	}
	_ = a.mapper.Delete(cursorModel, cursorID(origin, modelName))
}
