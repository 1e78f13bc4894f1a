package core

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"synapse/internal/model"
	"synapse/internal/storage"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// The durable publish journal closes the paper's crash window between
// the publisher's local commit and the broker send (§4.2; the original
// system heals it with a subscriber bootstrap): every message is
// appended to a log in the publisher's OWN storage engine before the
// send — inside the 2PC transaction where the engine can stage it after
// Prepare (the transactional outbox, orm.TxJournaler: data and entry
// commit atomically), right after the apply elsewhere. The log has a
// high-water acknowledgement (the shape DBLog assumes of a source): the
// outbox indexes the entries, a confirmation is a mutex and a counter,
// and rows leave the engine by truncation — one range delete per
// outboxCutEvery confirmations, and at every drain and graceful stop.
//
// RecoverJournal republishes entries VERBATIM with respect to dependency
// versions: the crashed publish already bumped the counters, and only a
// message carrying those exact versions fills the gap in subscriber ops
// counters — fresh versions would wedge strict-causal subscribers. A
// replay may duplicate a send that reached the broker: the per-object
// version guard discards the apply, and the duplicate increments only
// run subscriber counters ahead.

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
// matter. An entry is open from pubRegistered — its seq drawn and
// recorded before the entry can commit, so no committed row is ever
// unknown here — until its publication's end (App.advance): pubDeferred
// leaves it to the drain, pubConfirmed and pubWithdrawn forget it.
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

// confirm forgets a sent (or dropped) entry and reports whether a cut
// is due.
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

// registerJournal binds the journal model to the app's own storage
// engine (NewApp, when the app has a database and journaling is on) and
// counts the rows predecessor instances left in it: at this point every
// row is someone else's.
func (a *App) registerJournal() error {
	if _, ok := a.mapper.Descriptor(journalModel); !ok {
		d := model.NewDescriptor(journalModel, model.Field{Name: "payload", Type: model.String})
		if err := a.mapper.Register(d); err != nil {
			return err
		}
	}
	a.outbox.inherited = a.mapper.Len(journalModel)
	return nil
}

// journalID is an entry's primary key: instance epoch then message seq,
// both fixed-width so lexicographic id order (what Mapper.Each and
// DeleteRange go by) is publish order, and entries left by a crashed
// predecessor instance sort — and therefore replay — before new ones.
// A publish writes its entry's id with the payload (journalRecord); this
// string form is for DeleteRange's bounds and replay's Find.
func journalID(epoch int64, seq uint64) string {
	var arr [40]byte
	return string(appendJournalID(arr[:0], epoch, seq))
}

func appendJournalID(b []byte, epoch int64, seq uint64) []byte {
	b = appendPadded(b, uint64(epoch), 20)
	b = append(b, '-')
	return appendPadded(b, seq, 16)
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

// journalRecord makes rec, a publication's scratch record, the journal
// entry of a marshalled message: the id and the payload are one string,
// one allocation (the payload's box is the other), the row's ID its
// prefix. Nothing keeps an id past its row, so no id pins a payload. The
// engine copies what it is written, so rec and its one-entry attribute
// map stay the publication's, refilled by every use.
func (a *App) journalRecord(rec *model.Record, payload []byte, seq uint64) *model.Record {
	if rec.Attrs == nil {
		rec.Attrs = make(map[string]any, 1)
	}
	var arr [40]byte
	id := appendJournalID(arr[:0], a.journalEpoch, seq)
	var b strings.Builder
	b.Grow(len(id) + len(payload))
	b.Write(id)
	b.Write(payload)
	entry := b.String()
	rec.Model, rec.ID, rec.Attrs["payload"] = journalModel, entry[:len(id)], entry[len(id):]
	return rec
}

// journalAck confirms an entry whose message was sent (or dropped) — the
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
	if a.mapper == nil {
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
	if a.mapper == nil {
		return 0
	}
	unconfirmed, inherited, _ := a.outbox.counts()
	return unconfirmed + inherited
}

// RecoverJournal republishes the journal entries that still owe a send
// and reports how many it drained (republished, or dropped as
// unreplayable): rows inherited from a predecessor instance, then this
// instance's deferred entries, in (epoch, seq) order. A restarted
// publisher calls it before serving traffic (StartWorkers also starts
// the journal drain, which replays them first). It is safe next to live
// publishes too: an entry whose publish is still in flight is not
// deferred and is left alone. Drains are serialized, and each ends by
// truncating.
func (a *App) RecoverJournal() (int, error) {
	return a.recoverJournal(false)
}

// recoverJournal is RecoverJournal, paced or not. A paced replay is
// admitted only while its subscribers signal no backpressure (admit), and
// the first refusal stops the drain, leaving the remaining entries for
// the next pass: a cleared low watermark is answered entry by entry, not
// with the whole deferred backlog in one burst that would punch straight
// past the high watermark again. The journal drain (retryJournal) paces;
// App.Drain and explicit RecoverJournal calls flush unconditionally.
func (a *App) recoverJournal(paced bool) (int, error) {
	if a.mapper == nil {
		return 0, nil
	}
	a.journalMu.Lock()
	defer a.journalMu.Unlock()
	drained, more, err := a.replayInherited(paced)
	if more && err == nil {
		var n int
		n, err = a.replayDeferred(paced)
		drained += n
	}
	a.truncateJournal()
	return drained, err
}

// wakeDrain tells the journal drain it has work: an entry deferred, or
// an acknowledgement parked. One token is enough.
func (a *App) wakeDrain() {
	select {
	case a.drainWork <- struct{}{}:
	default:
	}
}

// retryJournal is the journal drain a started app runs beside its
// workers until stop closes. It replays what a crashed predecessor left
// first, then sleeps until there is work (wakeDrain): a send deferred on
// a broker outage or under backpressure (see publish.go), or an
// acknowledgement parked on a transport failure. While work remains it
// retries once per broker breaker cooldown — an open breaker admits its
// probe one cooldown after it opened — and a wake never shortens that
// wait, so an ack that keeps re-parking cannot make the loop spin. The
// replay is paced and never touches an entry whose publish is still in
// flight. The drain owns parked acks because a worker whose queue went
// idle blocks in its fetch and never iterates again.
func (a *App) retryJournal(stop <-chan struct{}) {
	_, _ = a.recoverJournal(true)
	period := a.brokerCall.Cooldown()
	for {
		// Its work is not JournalDepth, which counts live publishes too.
		_, inherited, _ := a.outbox.counts()
		if inherited == 0 && len(a.outbox.deferred()) == 0 && a.PendingAcks() == 0 {
			select {
			case <-stop:
				return
			case <-a.drainWork:
			}
		}
		if !a.pause(stop, period) {
			return
		}
		_, _ = a.recoverJournal(true)
		a.flushPendingAcks()
	}
}

// replayInherited republishes the rows predecessor instances left, in
// id order, and removes the replayed prefix in one range delete. more
// reports that none is left and the drain may go on to this instance's
// own entries.
func (a *App) replayInherited(paced bool) (drained int, more bool, err error) {
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
	for _, e := range rows {
		var ok bool
		if ok, err = a.replay(0, e.String("payload"), paced); !ok {
			break
		}
		drained++ // rows[:drained] need no further replay
	}
	removed, all := 0, drained == len(rows)
	if drained > 0 {
		// "\x00" makes the half-open bound include the last replayed id.
		var derr error
		if removed, derr = a.mapper.DeleteRange(journalModel, "", rows[drained-1].ID+"\x00"); derr != nil {
			all = false // the rows are still there: they replay again
		}
	}
	a.outbox.replayedInherited(removed, all)
	return drained, drained == len(rows), err
}

// replayDeferred republishes this instance's deferred entries in seq
// order, each confirmed as it goes.
func (a *App) replayDeferred(paced bool) (drained int, err error) {
	for _, seq := range a.outbox.deferred() {
		e, err := a.mapper.Find(journalModel, journalID(a.journalEpoch, seq))
		if err != nil && !errors.Is(err, storage.ErrNotFound) {
			return drained, err
		}
		var stored string // a row that is gone cannot replay
		if err == nil {
			stored = e.String("payload")
		}
		if ok, err := a.replay(seq, stored, paced); !ok {
			return drained, err
		}
		drained++
	}
	return drained, nil
}

// replay runs one stored entry through the publication driver: the drain
// takes it back (deferred → committed), and dispatch and confirm do the
// rest — pacing, the rebuild, the send, the confirmation. ok reports that
// it needs no further replay; otherwise it is deferred again, and err
// says why unless pacing held it.
func (a *App) replay(seq uint64, stored string, paced bool) (ok bool, err error) {
	p := pubPool.Get().(*publication)
	defer p.release()
	p.state, p.seq, p.paced, p.journaling, p.payload = pubDeferred, seq, paced, true, []byte(stored)
	a.advance(p, pubCommitted)
	err = a.drivePublication(p, nil)
	return p.state == pubConfirmed, err
}

// rebuild is an admitted replay's message: the stored one with its
// attributes refreshed and flagged Recovered, or — stale generation —
// regenerated, which claims fresh versions and so must wait for
// admission. An entry that cannot replay (corrupt, or its row is gone) is
// dropped, confirmed without a send: it must not wedge every future drain.
func (a *App) rebuild(p *publication) (pubState, error) {
	msg, err := wire.Unmarshal(p.payload)
	if err != nil {
		return pubConfirmed, nil
	}
	a.refreshJournalAttrs(msg, false)
	msg.Recovered = true
	if err := a.regenerateStaleEntry(msg); err != nil {
		return 0, err
	}
	p.payload, err = wire.Marshal(msg)
	return pubSent, err
}

// refreshJournalAttrs fills each operation's published attributes from
// the current database state. A transactional entry carries them as
// staged (the read-back — defaults, engine-computed columns — exists
// only after Commit), so the replay fills in what the staged record
// lacks. Attributes the write carried are NEVER overwritten: a live
// drain races later messages of the same generation, and the current
// value under the entry's older version would let the later original
// regress it on subscribers. overwrite is for regenerated entries only
// (regenerateStaleEntry), which claim a fresh version. A missing object
// keeps its journaled attributes: its delete's message supersedes this.
func (a *App) refreshJournalAttrs(msg *wire.Message, overwrite bool) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		if op.Operation == wire.OpDestroy || a.isEphemeral(op.Model()) {
			continue
		}
		rec, err := a.mapper.Find(op.Model(), op.ID)
		if err != nil {
			continue
		}
		switch attrs := a.projectPublished(op.Model(), rec); {
		case attrs == nil:
		case overwrite || op.Attributes == nil:
			op.Attributes = attrs
		default:
			for k, v := range attrs {
				if _, ok := op.Attributes[k]; !ok {
					op.Attributes[k] = v
				}
			}
		}
	}
}

// regenerateStaleEntry rebuilds an entry that predates the current
// generation: its version-store context died with the old one, and
// subscribers past the barrier would drop it as stale. It becomes a fresh
// write of the objects' CURRENT state: new versions from the revived
// store, the dead cross-object dependencies stripped (per-object order is
// all a new generation can promise about the old, the §4.4
// bootstrap-free contract), and — inside the write locks, after the
// claim, so no publish commits newer state under a lower version — the
// attributes re-projected from the committed rows.
func (a *App) regenerateStaleEntry(msg *wire.Message) error {
	gen := a.generation.Load()
	if msg.Generation >= gen {
		return nil
	}
	keys := make([]vstore.Key, 0, len(msg.Operations))
	for i := range msg.Operations {
		keys = append(keys, a.tracker.Resolve(msg.Operations[i].Object))
	}
	// One window, like a live publish; a write dependency's version comes
	// back as version−1 — the wire encoding.
	bumped, err := a.store.BumpBatch(nil, keys)
	if err != nil {
		return err
	}
	defer bumped.Release()
	// Each object's own token, at its new version.
	deps := make([]wire.Dep, len(keys))
	for i, k := range keys {
		deps[i] = wire.Dep{Token: msg.Operations[i].Object, Version: bumped.Version(k)}
	}
	msg.SetDeps(deps)
	msg.External, msg.GlobalDep, msg.Generation = nil, nil, gen
	a.refreshJournalAttrs(msg, true)
	return nil
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

// registerCursorJournal binds the cursor model to the app's own storage
// engine (NewApp, for every app with a database — the cursor journal is
// useful even when the publish journal is disabled).
func (a *App) registerCursorJournal() error {
	if _, ok := a.mapper.Descriptor(cursorModel); ok {
		return nil
	}
	return a.mapper.Register(model.NewDescriptor(cursorModel,
		model.Field{Name: "model", Type: model.String},
		model.Field{Name: "cursor", Type: model.String},
		model.Field{Name: "done", Type: model.Int},
	))
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
	rec.Set("done", int64(0))
	if done {
		rec.Set("done", int64(1))
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
