package core

import (
	"errors"
	"fmt"
	"time"

	"synapse/internal/broker"
	"synapse/internal/model"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

type vKey = vstore.Key

// Named fault sites on the chunked-bootstrap path (see faultinject;
// FaultBootstrapCursor lives in journal.go next to the cursor model).
const (
	// FaultBootstrapChunkLow fires before a chunk's read — a crash here
	// loses nothing, the chunk never started.
	FaultBootstrapChunkLow = "bootstrap/chunk-low"
	// FaultBootstrapChunkHigh fires after the chunk read, before its
	// apply — a crash here replays the chunk from the cursor.
	FaultBootstrapChunkHigh = "bootstrap/chunk-high"
)

// Bootstrap synchronizes this app with a publisher in the three-step
// process of §4.4, with the object snapshot taken in chunks:
//
//  1. all current publisher versions are sent in bulk and saved in the
//     subscriber's version store;
//  2. the subscribed models are walked in small keyed chunks, each read
//     under a bounded publisher lock hold and applied under the
//     per-object version guard, after which the deliveries ready at that
//     moment are drained — the publisher is never paused for longer than
//     one chunk read, and the live stream is consumed chunk by chunk
//     instead of accumulating in the queue;
//  3. the remaining backlog is drained (with weak semantics, guarded so
//     that messages already reflected in the version snapshot are not
//     double-counted).
//
// Each completed chunk journals its cursor through the app's own
// storage engine (see journal.go), so a crash, broker bounce, or
// partition mid-bootstrap resumes from the last completed chunk rather
// than restarting the scan; step 1 re-runs on resume (the SetOps
// max-merge against absolute publisher counters is idempotent) so the
// counter boundary stays exact.
//
// Passing model names restricts the object snapshot to those models (a
// partial bootstrap, used after live schema migrations when new data is
// subscribed, §4.3). With none given, every subscribed model from the
// origin is synced.
//
// During bootstrap the Bootstrap? predicate reports true and delivery
// degrades to weak semantics, as the paper specifies.
func (a *App) Bootstrap(from string, models ...string) error {
	pub, ok := a.fabric.App(from)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownApp, from)
	}
	if len(models) == 0 {
		models = a.modelsFrom(from)
	}
	if len(models) == 0 {
		return fmt.Errorf("%w: %s from %s", ErrNotSubscribed, a.name, from)
	}
	a.ensureQueue()
	if err := a.fabric.bus().Bind(a.queueName(), from); err != nil {
		return err
	}

	a.bootDepth.Add(1)
	defer a.bootDepth.Add(-1)
	drain := a.newWorker(1)
	defer drain.close()

	// A surviving cursor row means an earlier bootstrap of this origin
	// was interrupted: this run resumes from the journaled chunks.
	for _, m := range models {
		if _, _, found := a.readCursor(from, m); found {
			a.tel.bootstrapResumes.Add(1)
			break
		}
	}

	// Snapshot boundary: messages with Seq <= s0 are already reflected
	// in the version snapshot below and must not re-increment counters.
	s0 := pub.seq.Load()
	a.setBootSeq(from, s0)

	// Adopt the publisher's current generation: everything older is
	// superseded by this snapshot.
	gs := a.genStateFor(from)
	gs.mu.Lock()
	if g := pub.generation.Load(); g > gs.cur {
		gs.cur = g
		a.releaseWaiting(gs)
	}
	gs.mu.Unlock()

	// Step 1: bulk version load (max-merge; concurrent processing can
	// only have moved counters forward). The export is keyed by the
	// publisher's wire tokens, not raw store keys: under the DVV tracker
	// each store interns names into its own key space, so raw keys are
	// meaningless across stores — tokens resolve correctly through OUR
	// tracker regardless of which policies the two sides run.
	export, err := pub.tracker.ExportVersions()
	if err != nil {
		return fmt.Errorf("synapse: bootstrap version snapshot: %w", err)
	}
	bulk := make(map[vKey]uint64, len(export))
	for token, c := range export {
		k := a.tracker.Resolve(token)
		if c.Ops > bulk[k] {
			bulk[k] = c.Ops // hash trackers may fold tokens onto one key
		}
	}
	if err := a.store.SetOpsMulti(bulk); err != nil {
		return err
	}

	// Step 2: chunked object snapshot, applied with weak semantics so
	// replays and races with live messages resolve to the newest version.
	for _, modelName := range models {
		if err := a.bootstrapModel(drain, pub, modelName); err != nil {
			return err
		}
	}

	// Step 3: drain the backlog accumulated during steps 1-2 (most of it
	// was already consumed after each chunk), until the queue is empty.
	if err := a.drainQueue(drain, func(empty bool) bool { return empty }); err != nil {
		if errors.Is(err, broker.ErrDecommissioned) {
			return err
		}
		return nil // queue closed
	}
	// Converged: the resume cursors have served their purpose.
	for _, m := range models {
		a.clearCursor(from, m)
	}
	return nil
}

// chunkRow is one object read under a chunk's bounded lock hold: the
// (version, attributes) pair is atomic with respect to in-flight
// publishes because both sides were read inside the publisher's write
// locks for the chunk's keys.
type chunkRow struct {
	id      string
	token   wire.Token
	subKey  vKey
	version uint64
	attrs   map[string]any
}

// bootstrapModel walks one model's objects in keyed chunks, resuming
// from the journaled cursor when an earlier bootstrap was interrupted.
func (a *App) bootstrapModel(drain *worker, pub *App, modelName string) error {
	if _, ok := a.subscription(modelName, pub.name); !ok {
		return fmt.Errorf("%w: %s/%s from %s", ErrNotSubscribed, a.name, modelName, pub.name)
	}
	if pub.isEphemeral(modelName) || pub.mapper == nil {
		return nil // nothing persisted to snapshot
	}
	if pub.publication(modelName) == nil {
		return fmt.Errorf("%w: %s/%s", ErrUnpublished, pub.name, modelName)
	}

	cursor, done, _ := a.readCursor(pub.name, modelName)
	if done {
		return nil // an interrupted bootstrap already finished this model
	}
	// One streaming id scan from the cursor; chunks are sliced out of
	// this id snapshot rather than re-paginating the store per chunk
	// (Each scans id >= from, so each per-chunk call would re-walk the
	// whole remaining suffix — quadratic on large models). Objects
	// created after the scan reach the subscriber through their own live
	// messages; deleted ones are dropped by the per-chunk locked Find.
	// Ids are collected outside any lock — the authoritative
	// (version, attrs) read happens under the bounded lock hold in
	// bootstrapChunk.
	ids := make([]string, 0, a.cfg.BootstrapChunkSize)
	err := pub.mapper.Each(modelName, cursor, func(rec *model.Record) bool {
		if rec.ID == cursor {
			return true
		}
		ids = append(ids, rec.ID)
		return true
	})
	if err != nil {
		return err
	}
	for start := 0; start < len(ids); start += a.cfg.BootstrapChunkSize {
		end := start + a.cfg.BootstrapChunkSize
		if end > len(ids) {
			end = len(ids)
		}
		if err := a.bootstrapChunk(drain, pub, modelName, ids[start:end]); err != nil {
			return err
		}
		cursor = ids[end-1]
		if err := a.writeCursor(pub.name, modelName, cursor, false); err != nil {
			return err
		}
		a.tel.bootstrapChunks.Add(1)
	}
	return a.writeCursor(pub.name, modelName, cursor, true)
}

// bootstrapChunk syncs one chunk: a bounded locked read of the chunk's
// (version, record) pairs, their batched apply, then a drain of the
// deliveries ready at that moment.
func (a *App) bootstrapChunk(drain *worker, pub *App, modelName string, ids []string) error {
	if err := a.faults.Fire(FaultBootstrapChunkLow); err != nil {
		return err
	}

	// Read the (version, record) pairs under the publisher's write locks
	// for just this chunk's keys. A publish in flight holds its key's
	// lock from the version claim through the DB commit to the broker
	// send, so an unlocked read here could pair the CLAIMED version with
	// the not-yet-committed OLD attributes — and the claimed version in
	// the subscriber's guard then makes it skip the live message carrying
	// the real data: permanent divergence. Locked, the pair is atomic,
	// and the hold is bounded by the chunk size instead of the old
	// per-record lock over a full scan.
	names := make([]string, len(ids))
	pubKeys := make([]vKey, len(ids))
	tokens := make([]wire.Token, len(ids))
	for i, id := range ids {
		names[i] = depName(pub.name, modelName, id)
		pubKeys[i] = pub.tracker.KeyFor(names[i])
		tokens[i] = pub.tracker.Token(names[i])
	}
	start := time.Now()
	held, err := pub.store.LockWrites(dedupKeys(pubKeys))
	if err != nil {
		return err
	}
	rows := make([]chunkRow, 0, len(ids))
	for i, id := range ids {
		version := pub.store.Counters(pubKeys[i]).Version
		rec, ferr := pub.mapper.Find(modelName, id)
		if ferr != nil || rec == nil {
			// Deleted between the scan and the lock; the delete's own
			// message supersedes the stale scan record, so the row is
			// skipped rather than resurrected.
			continue
		}
		attrs := pub.projectPublished(modelName, rec)
		rows = append(rows, chunkRow{
			id:      id,
			token:   tokens[i],
			subKey:  a.tracker.Resolve(tokens[i]),
			version: version,
			attrs:   attrs,
		})
	}
	pub.store.UnlockWrites(held)
	pub.tel.bootstrapStall.Record(int64(time.Since(start)))

	if err := a.faults.Fire(FaultBootstrapChunkHigh); err != nil {
		return err
	}
	if err := a.applyChunk(pub, modelName, rows); err != nil {
		return err
	}
	// Only what was ready now: a steady writer cannot hold the walk open.
	// Any broker error but decommission leaves the rest to step 3.
	ready := 0
	if q := a.Queue(); q != nil {
		ready = q.Len()
	}
	err = a.drainQueue(drain, func(empty bool) bool { ready--; return empty || ready < 0 })
	if errors.Is(err, broker.ErrDecommissioned) {
		return err
	}
	return nil
}

// drainQueue is bootstrap's drain loop: it takes deliveries off the
// app's queue one TryGet at a time and runs each through the drain
// worker until done reports true — asked before every TryGet, and told
// whether the last one found the queue empty. An empty queue is polled
// after a pause: workers may be running concurrently (decommission
// recovery), and TryGet interleaves safely with them. It returns the
// error that ended TryGet (nil with no queue).
func (a *App) drainQueue(drain *worker, done func(empty bool) bool) error {
	q := a.Queue()
	if q == nil {
		return nil
	}
	for empty := false; !done(empty); {
		if empty {
			a.pause(nil, time.Millisecond)
		}
		d, got, err := q.TryGet()
		if err != nil {
			return err
		}
		if empty = !got; got {
			drain.runFetched(q, d)
		}
	}
	return nil
}

// runFetched runs one delivery the drain fetched itself, after what the
// ready list holds, through the drain's window, which does not refill. A
// job that is not ready parks: a later runFetched, or a worker, resumes it.
func (w *worker) runFetched(q *broker.Queue, d broker.Delivery) {
	a := w.app
	w.batch = a.takeReady(w.batch[:0], a.cfg.PipelineDepth)
	w.batch = append(w.batch, a.fetched(q, d))
	w.run(nil, w.batch)
	clear(w.batch)
}

// applyChunk applies one chunk's rows as a message that waits for
// nothing: the rows claim their versions and apply through
// claimAndApply like a live message, so a row that live traffic already
// superseded loses its claim there, and a failed row rolls back the
// claims from it onward. A row also applies at the version already
// stored, so a resumed chunk writes the rows it applied before once
// more, with the same state.
func (a *App) applyChunk(pub *App, modelName string, rows []chunkRow) error {
	types := pub.publication(modelName).chain
	ops := make([]wire.Operation, 0, len(rows))
	var (
		claims  []vstore.Claim
		claimOp []int
	)
	for _, r := range rows {
		if r.version > 0 { // a row never published has no guard counter
			claims = append(claims, vstore.Claim{Key: r.subKey, Version: r.version})
			claimOp = append(claimOp, len(ops))
		}
		ops = append(ops, wire.Operation{Operation: wire.OpUpdate, Types: types, ID: r.id, Attributes: r.attrs, Object: r.token})
	}
	if len(ops) == 0 {
		return nil
	}
	_, err := a.claimAndApply(&wire.Message{App: pub.name, Operations: ops}, claims, claimOp, nil, nil, nil)
	return err
}

func (a *App) setBootSeq(origin string, seq uint64) {
	a.mu.Lock()
	if a.bootSeqs == nil {
		a.bootSeqs = make(map[string]uint64)
	}
	a.bootSeqs[origin] = seq
	a.mu.Unlock()
}

func (a *App) bootSeqFor(origin string) uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.bootSeqs[origin]
}

// RecoverQueue rebuilds a decommissioned queue and partial-bootstraps
// from every subscribed origin (§4.4: "If the subscriber comes back,
// Synapse initiates a partial bootstrap to get the application back in
// sync"). Safe to call from multiple workers; only one recovery runs.
// A recovery that fails partway with its queue intact resumes from the
// failed origin on the next call — origins that already converged are
// not re-bootstrapped, and within the failed origin the cursor journal
// resumes the scan from the last completed chunk.
func (a *App) RecoverQueue() error {
	a.recoverMu.Lock()
	defer a.recoverMu.Unlock()
	q := a.Queue()
	if q != nil && !q.Dead() && len(a.recoverPending) == 0 {
		return nil // another worker already recovered
	}
	if q == nil || q.Dead() {
		a.fabric.bus().DeleteQueue(a.queueName())
		nq, err := a.fabric.bus().DeclareQueue(a.queueName(), a.cfg.QueueMaxLen)
		if err != nil {
			// Broker crashed mid-recovery; the worker loop reattaches
			// after the restart and retries.
			return err
		}
		a.tuneQueue(nq)
		a.mu.Lock()
		a.queue = nq
		a.mu.Unlock()
		// A rebuilt queue owes every origin a partial bootstrap (Bootstrap
		// itself re-binds each origin's exchange as it runs) — from the
		// start: chunks an interrupted one had journaled were kept current
		// by live messages that died with the old queue.
		a.recoverPending = a.subscribedOrigins()
		for _, origin := range a.recoverPending {
			for _, m := range a.modelsFrom(origin) {
				a.clearCursor(origin, m)
			}
		}
	}
	for len(a.recoverPending) > 0 {
		if err := a.Bootstrap(a.recoverPending[0]); err != nil {
			return err
		}
		a.recoverPending = a.recoverPending[1:]
	}
	return nil
}

// RecoverVersionStore is the publisher-side recovery of §4.4: when the
// version store dies, the generation number (reliably stored in the
// coordinator) is incremented, the store is revived empty, and
// publishing resumes. Subscribers observing the new generation flush
// and resynchronize.
func (a *App) RecoverVersionStore() uint64 {
	gen := a.coordIncrement(genCounterName(a.name))
	a.store.Revive()
	a.generation.Store(gen)
	return gen
}
