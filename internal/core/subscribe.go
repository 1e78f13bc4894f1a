package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"synapse/internal/broker"
	"synapse/internal/model"
	"synapse/internal/storage"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// genState tracks the generation barrier for one origin (§4.4): when a
// publisher's version store dies, it bumps its generation; subscribers
// finish all previous-generation messages, flush their version store,
// and only then process the new generation.
type genState struct {
	mu       sync.Mutex
	cur      uint64
	inflight map[uint64]int
	waiting  []*job // parked on the barrier: ahead of cur while older ones are in flight
}

func (a *App) genStateFor(origin string) *genState {
	a.mu.Lock()
	defer a.mu.Unlock()
	gs := a.gens[origin]
	if gs == nil {
		gs = &genState{inflight: make(map[uint64]int)}
		a.gens[origin] = gs
	}
	return gs
}

// errStaleGeneration marks messages from before a generation flush;
// they are acked and dropped (their state was resynced by bootstrap).
var errStaleGeneration = errors.New("synapse: stale generation message")

// enterGeneration counts j's message into its generation, running the
// flush barrier if it moves the generation forward, and times the barrier
// stage from j's first try. It never blocks: while older messages are in
// flight, j waits on the barrier's list.
func (a *App) enterGeneration(j *job) (bool, error) {
	if j.barrierAt.IsZero() {
		j.barrierAt = time.Now()
	}
	gen := j.msg.Generation
	gs := a.genStateFor(j.msg.App)
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gen > gs.cur {
		for g := range gs.inflight {
			if g < gen {
				gs.waiting = append(gs.waiting, j)
				return false, nil
			}
		}
		// Barrier reached: flush and advance (§4.4). The flush clears
		// this app's whole version store; counters for the new
		// generation restart from zero on both sides.
		a.store.Flush()
		gs.cur = gen
		a.releaseWaiting(gs)
	}
	a.tel.observe(stageBarrier, time.Since(j.barrierAt))
	if gen < gs.cur {
		return false, errStaleGeneration
	}
	gs.inflight[gen]++
	return true, nil
}

func (a *App) exitGeneration(origin string, gen uint64) {
	gs := a.genStateFor(origin)
	gs.mu.Lock()
	gs.inflight[gen]--
	if gs.inflight[gen] <= 0 {
		delete(gs.inflight, gen)
		a.releaseWaiting(gs)
	}
	gs.mu.Unlock()
}

// releaseWaiting lets every message parked on the barrier try again;
// called with gs.mu held whenever a generation empties or cur moves.
func (a *App) releaseWaiting(gs *genState) {
	for _, j := range gs.waiting {
		a.release(j)
	}
	gs.waiting = nil
}

// job is one delivery on its way through the subscriber. It holds what
// a message that is not ready must keep while parked — the decoded
// message, its generation count, its dependency plan — so that parking
// frees everything else: window slot, stripe mask, lane. A job with
// a wake-up channel blocks instead: no worker loop comes back to it, so
// its caller waits out each release (run). A job with no queue is
// ProcessMessage's.
type job struct {
	app  *App
	q    *broker.Queue
	d    broker.Delivery
	msg  *wire.Message
	mask uint64

	barrierAt time.Time // first try at the generation barrier
	entered   bool      // counted in its generation

	// The causal dependency plan, built at the first probe: what must be
	// reached before the message applies, and what it increments after.
	// The usual handful of keys lives in the job itself.
	reqs     []vstore.WaitReq
	incr     []vstore.Key
	reqBuf   [jobKeys]vstore.WaitReq
	incrBuf  [jobKeys]vstore.Key
	probedAt time.Time
	parkedAt time.Time // first probe that found a dependency unmet

	// Either releases it while parked on dependencies: the registration
	// of the latest probe, or the job's one DepTimeout timer.
	wait  *vstore.Parked
	timer *time.Timer

	woken  bool          // released before park recorded it (under parkMu)
	wakeup chan struct{} // blocking jobs: what release signals

	scratch applyScratch
}

// applyScratch is what applying one operation needs and nothing keeps:
// the record handed to Mapper.Save or to an observer's callbacks, and
// those callbacks' context. It lives in the job, one operation after the
// other, which is why a subscriber's CallbackCtx.Record is valid for the
// duration of the callback only (Clone to keep).
type applyScratch struct {
	rec model.Record
	ctx model.CallbackCtx
}

// Wake implements vstore.Waker: the job itself is what a dependency wait
// leaves registered, so a probe that finds everything met — nearly all
// of them — allocates nothing for a wake-up it never needs.
func (j *job) Wake() { j.app.release(j) }

// jobKeys is the fixed capacity of a job's inline dependency plan.
const jobKeys = 6

// park records j as parked — unless the release it waits for already
// happened, in which case j goes straight on to the ready list. A
// blocking job is not parked: its caller waits for the release.
func (a *App) park(j *job) {
	if j.wakeup != nil {
		return
	}
	a.parkMu.Lock()
	a.parked[j] = struct{}{}
	woken := j.woken
	j.woken = false
	a.parkMu.Unlock()
	if woken {
		a.release(j)
	}
}

// release is every parked job's wake action — a counter reached its
// threshold, the deadline passed, a generation emptied: it moves to the
// ready list and an idle worker is woken to take it and probe again (a
// release is a reason to look, not a promise). A blocking job's caller
// is woken instead.
func (a *App) release(j *job) {
	if j.wakeup != nil {
		select {
		case j.wakeup <- struct{}{}:
		default:
		}
		return
	}
	a.parkMu.Lock()
	_, parked := a.parked[j]
	if parked {
		delete(a.parked, j)
		a.ready = append(a.ready, j)
	} else {
		j.woken = true
	}
	a.parkMu.Unlock()
	if parked {
		j.q.CancelWaiters()
	}
}

// takeReady moves up to max jobs from the head of the ready list onto
// batch.
func (a *App) takeReady(batch []*job, max int) []*job {
	a.parkMu.Lock()
	defer a.parkMu.Unlock()
	n := min(len(a.ready), max)
	batch = append(batch, a.ready[:n]...)
	a.ready = slices.Delete(a.ready, 0, n)
	return batch
}

// stopWaiting drops what could still release a job parked on
// dependencies: its store registration and its DepTimeout timer.
func (j *job) stopWaiting() {
	if j.wait != nil {
		j.wait.Cancel()
	}
	if j.timer != nil {
		j.timer.Stop()
	}
}

// retire ends this delivery of a job — applied, failed or handed back:
// its registrations go, its generation count and its message return.
func (a *App) retire(j *job) {
	j.stopWaiting()
	if j.entered {
		a.exitGeneration(j.msg.App, j.msg.Generation)
	}
	if j.msg != nil {
		wire.ReleaseMessage(j.msg)
	}
}

// retireParked removes and retires every parked and ready job delivered
// on q (any queue handle when nil), oldest first. A stop then nacks them
// back; those of a dead handle are just forgotten — their tags died with
// it: a restarted broker redelivers them, RecoverQueue resyncs a
// decommissioned queue's content.
func (a *App) retireParked(q *broker.Queue) []*job {
	a.parkMu.Lock()
	var out []*job
	for j := range a.parked {
		if q == nil || j.q == q {
			out = append(out, j)
			delete(a.parked, j)
		}
	}
	a.ready = slices.DeleteFunc(a.ready, func(j *job) bool {
		if q == nil || j.q == q {
			out = append(out, j)
			return true
		}
		return false
	})
	a.parkMu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].d.Tag < out[k].d.Tag })
	for _, j := range out {
		a.retire(j)
	}
	return out
}

// StartWorkers launches n subscriber workers processing this app's
// queue in parallel (n <= 0 uses Config.Workers). Workers survive queue
// decommission by recovering the queue and re-bootstrapping.
func (a *App) StartWorkers(n int) {
	if n <= 0 {
		n = a.cfg.Workers
	}
	a.workersMu.Lock()
	if a.stopCh == nil {
		a.stopCh = make(chan struct{})
	}
	stop := a.stopCh
	a.workersMu.Unlock()
	a.poolSize.Add(int32(n)) // the derived credit window follows it
	if q := a.Queue(); q != nil {
		a.tuneQueue(q)
	}
	for i := 0; i < n; i++ {
		w := a.newWorker(a.cfg.PipelineDepth)
		a.workersWG.Add(1)
		go a.workerLoop(w, stop)
	}
	// A restarting app may have inherited journal entries from a crashed
	// predecessor; drain them before (well, concurrently with) serving
	// traffic. A no-op for apps with an empty journal. The drain then
	// repeats every JournalRetryInterval — it replays only deferred and
	// inherited entries, never one whose publish is still in flight — so
	// deferred work retries once the endpoint
	// heals: sends deferred on a broker outage (journal-and-defer, see
	// publish.go) and acknowledgements parked on transport failure. The
	// ack flush cannot live only in the worker loop — a worker whose
	// queue went idle blocks in GetBatch and never iterates again, which
	// would leave parked acks (and their unacked deliveries) stuck
	// forever.
	a.workersWG.Add(1)
	go func() {
		defer a.workersWG.Done()
		// Background drains are paced: each republish re-checks the
		// backpressure signal, so resuming a large deferred backlog
		// cannot itself re-overload the queue it deferred for.
		paced := func() bool { return a.exchangePressure() != broker.PressureHigh }
		_, _ = a.recoverJournal(paced)
		if a.cfg.JournalRetryInterval <= 0 {
			return
		}
		t := time.NewTicker(a.cfg.JournalRetryInterval)
		defer t.Stop()
		wasPressured := false
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// Publishes deferred under backpressure stay journaled while
				// the subscriber side still signals overload: draining now
				// would re-grow the pressured queue. Parked acks flush
				// regardless — acks RELIEVE pressure (they return credit and
				// shrink depth).
				if a.JournalDepth() > 0 && a.exchangePressure() == broker.PressureHigh {
					wasPressured = true
					a.flushPendingAcks()
					continue
				}
				if wasPressured {
					// Jittered resume off the low watermark: concurrently
					// deferred publishers stagger their drains instead of
					// refilling the queue in one synchronized burst.
					wasPressured = false
					if !a.pauseRetry(stop, a.jitter(a.cfg.JournalRetryInterval)) {
						return
					}
				}
				if a.JournalDepth() > 0 {
					_, _ = a.recoverJournal(paced)
				}
				a.flushPendingAcks()
			}
		}
	}()
}

// StopWorkers stops all workers and waits for them to drain in-flight
// messages. Deliveries still parked or ready go back to the queue front
// in delivery order, so nothing stays unacked.
func (a *App) StopWorkers() {
	// Unlock windows this app's publishes handed off are charged by the
	// time it is stopped, so Stats().VStoreRoundTrips is exact.
	defer a.store.WaitReleases()
	a.workersMu.Lock()
	stop := a.stopCh
	a.stopCh = nil
	a.workersMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	// Cancel repeatedly until every worker exits: CancelWaiters wakes the
	// consumers already blocked and at most one about to be, and several
	// workers can be between their stop check at the loop top and
	// GetBatch. The queue handle is also re-read each round — a worker
	// may have reattached to a rebuilt queue after a broker restart.
	done := make(chan struct{})
	go func() {
		a.workersWG.Wait()
		close(done)
	}()
	for stopped := false; !stopped; {
		if q := a.Queue(); q != nil {
			q.CancelWaiters()
		}
		select {
		case <-done:
			stopped = true
		case <-time.After(time.Millisecond):
		}
	}
	a.poolSize.Store(0)
	jobs := a.retireParked(nil)
	for i := len(jobs) - 1; i >= 0; i-- { // Nack pushes front: newest first
		a.nackDelivery(jobs[i].q, jobs[i].d.Tag)
	}
	a.cutJournal()
}

// worker is one subscriber worker's apply window (see processBatch) and
// what its batches reuse. Its lanes are long-lived goroutines, started
// with the worker, that each run one dispatched job at a time through
// step: a delivery pays for no goroutine start, and the lanes keep the
// stacks they grew. A worker with no lanes runs each job inline on the
// goroutine that called processBatch (bootstrap's drain).
type worker struct {
	app     *App
	lanes   chan *job       // dispatch to an idle lane; nil: inline
	results chan laneResult // one per dispatched job
	running sync.WaitGroup  // dispatched jobs whose step, flush included, has not returned
}

// laneResult is a dispatched job coming back to processBatch: done or
// parked (err nil), or failed.
type laneResult struct {
	j   *job
	err error
}

// newWorker builds a worker and starts its lanes, counted in workersWG:
// they exit once the dispatch channel closes.
func (a *App) newWorker(lanes int) *worker {
	// Sized to the window: at most PipelineDepth jobs are dispatched and
	// not yet read back, so neither a dispatch nor a result ever blocks.
	w := &worker{app: a, results: make(chan laneResult, a.cfg.PipelineDepth)}
	if lanes > 0 {
		w.lanes = make(chan *job, a.cfg.PipelineDepth)
		a.workersWG.Add(lanes)
		for range lanes {
			go w.lane()
		}
	}
	return w
}

// lane runs dispatched jobs until the worker closes its dispatch channel.
func (w *worker) lane() {
	defer w.app.workersWG.Done()
	for j := range w.lanes {
		w.step(j)
	}
}

// step runs one dispatched job: the delivery as far as it goes, its
// completion queued for group commit, its result — the window slot frees
// here — and then the flush.
func (w *worker) step(j *job) {
	defer w.running.Done()
	a := w.app
	incr, parked, err := a.consumeDecodedGuarded(j)
	done := err == nil && !parked
	if done {
		a.commits.Add(flushEntry{q: j.q, tag: j.d.Tag, incr: incr})
	}
	w.results <- laneResult{j, err}
	if done {
		a.commits.Flush()
	}
}

func (a *App) workerLoop(w *worker, stop <-chan struct{}) {
	defer a.workersWG.Done()
	defer close(w.lanes)
	batch := make([]*job, 0, a.cfg.PipelineDepth)
	for {
		select {
		case <-stop:
			return
		default:
		}
		a.flushPendingAcks()
		q := a.Queue()
		if q == nil {
			return
		}
		// Admit the fetch through the simulated network: a partitioned or
		// dropping link pauses the consumer instead of long-polling
		// through a dead network.
		if gerr := a.consumeGate(); gerr != nil {
			if !a.pauseRetry(stop, 5*time.Millisecond) {
				return
			}
			continue
		}
		// Released messages run before new ones are fetched: they are
		// older than anything in the queue, and what is parked behind
		// them waits for exactly these. Either way a worker takes what
		// its window can start.
		batch = a.takeReady(batch[:0], a.cfg.PipelineDepth)
		if len(batch) == 0 {
			ds, err := q.GetBatch(a.cfg.PipelineDepth)
			switch {
			case err == nil:
			case errors.Is(err, broker.ErrCanceled):
				continue
			case errors.Is(err, broker.ErrDecommissioned):
				a.retireParked(q)
				if rerr := a.RecoverQueue(); rerr != nil {
					// Cannot recover (e.g. origin gone); retry after a beat.
					time.Sleep(10 * time.Millisecond)
				}
				continue
			case errors.Is(err, broker.ErrBrokerDown):
				// Broker crashed: wait out the restart, then swap onto the
				// rebuilt queue handle (the old one is permanently defunct).
				if !a.awaitBrokerUp(stop) {
					return
				}
				a.retireParked(q)
				a.reattachQueue()
				continue
			default: // closed
				return
			}
			jobs := make([]job, len(ds)) // one allocation per batch, not per message
			for i, d := range ds {
				jobs[i] = job{app: a, q: q, d: d}
				batch = append(batch, &jobs[i])
			}
		}
		w.processBatch(batch, stop)
		clear(batch) // what parked is the parked set's, not this buffer's
	}
}

// processBatch works through one batch of deliveries — released from
// the ready list or freshly fetched — with a bounded in-flight window:
// up to Config.PipelineDepth run concurrently in this worker, each on
// one of its lanes, so the decode, dependency probe, version claims, and
// callback of messages N+1..N+k overlap message N's 2ms-class callback
// instead of queueing behind it. A depth of 1 is the same loop with a
// window of one.
//
//   - Park, don't block: a message whose dependencies are unmet, or
//     whose generation is ahead of the barrier, parks (see job): its
//     lane moves on and its slot and stripe mask are free at once.
//     The delivery stays unacked, so the credit window bounds the parked
//     set. Whatever moves the counter it needs (a group-commit flush, a
//     bootstrap bulk load, an inline increment), empties the generation
//     it waits for, or runs out its DepTimeout releases it to the ready
//     list. Queue order is never changed to get there, so every message
//     ahead of a parked one is parked, running or done — the oldest
//     unapplied message can always run.
//   - Conflicts serialize: each message folds its operations' apply
//     stripes into a 64-bit mask (applyMask); a message is dispatched
//     only when its mask is disjoint from every in-flight message's,
//     so two updates to the same guarded object never race within the
//     worker and dispatch in queue order. Cross-worker ordering is the
//     job of the dependency counters and the per-object version guard.
//   - Completion is group-committed: a finished message does not
//     increment counters or ack inline — it queues both on the app's
//     group-commit flusher (a.commits, drained by flushBatch), which
//     merges every message completing in a flush window into ONE
//     IncrOpsMulti round trip followed by ONE AckMulti call. Acks flush
//     strictly after the increments land, so a crash between the two
//     redelivers the messages and the version guard discards the
//     re-applies as stale (the crash-redelivery invariant).
//   - Fail to the front: when a message fails (or the worker is
//     stopping), the undispatched tail and then the failed deliveries
//     are nacked so the queue front reads [failed..., rest...] — the one
//     reordering there is, and it puts the retry, with the credit its
//     nack returned, AHEAD of the dependants parked behind it. Failures
//     go through the failure-counting nack: after
//     Config.MaxDeliveryAttempts the broker sets the message aside
//     (dead-letter) so a poison message cannot wedge the pool; until
//     then the worker backs off exponentially before it looks at the
//     queue again, so redelivery does not spin on a persistent fault.
func (w *worker) processBatch(batch []*job, stop <-chan struct{}) {
	a := w.app
	depth := a.cfg.PipelineDepth
	var (
		next         int
		inflight     int
		inflightMask uint64
		stopping     bool
		failures     []*job
	)
	for {
		// Dispatch while there is capacity and nothing diverted the batch.
		for !stopping && len(failures) == 0 && next < len(batch) && inflight < depth {
			select {
			case <-stop:
				stopping = true
			default:
			}
			if stopping {
				break
			}
			j := batch[next]
			if j.msg == nil {
				if j.d.Redelivered {
					a.tel.redelivered.Add(1)
				}
				decodeStart := time.Now()
				msg, derr := wire.UnmarshalProjected(j.d.Payload, a.resolve)
				a.tel.observe(stageDecode, time.Since(decodeStart))
				if derr != nil {
					// Poison message: ack (coalesced) and drop it rather
					// than loop forever.
					a.commits.Add(flushEntry{q: j.q, tag: j.d.Tag})
					a.commits.Flush()
					next++
					continue
				}
				j.msg, j.mask = msg, a.applyMask(msg)
			}
			if j.mask&inflightMask != 0 {
				break // shared apply stripe: wait for the earlier message
			}
			next++
			inflight++
			inflightMask |= j.mask
			a.tel.pipelineFill.Record(int64(inflight))
			w.running.Add(1)
			if w.lanes != nil {
				w.lanes <- j
			} else {
				w.step(j)
			}
		}
		if inflight == 0 {
			break
		}
		select {
		case r := <-w.results:
			// A job that parked may be running in another worker by now;
			// its mask was fixed before dispatch.
			inflight--
			inflightMask &^= r.j.mask
			if r.err != nil {
				failures = append(failures, r.j)
			}
		case <-stop:
			stopping = true
		}
	}
	w.running.Wait() // group commits of completed messages have landed
	// A stop or a failure leaves an undispatched tail. Nack pushes front,
	// so handing it back newest first restores queue order.
	for i := len(batch) - 1; i >= next; i-- {
		a.retire(batch[i])
		a.nackDelivery(batch[i].q, batch[i].d.Tag)
	}
	if len(failures) > 0 {
		// Fail to the front, after the tail: the failure-counting nacks
		// push last so the queue front reads [failed..., rest...].
		alive, maxAttempts := false, 0
		for _, j := range failures {
			maxAttempts = max(maxAttempts, j.d.Attempts)
			if !a.nackErrorDelivery(j.q, j.d.Tag) {
				alive = true
				a.tel.retries.Add(1)
			}
		}
		if alive {
			a.retryBackoff(maxAttempts, stop)
		}
	}
}

// applyMask folds the apply stripes of every operation object in the
// message into a 64-bit conflict mask (64 stripes, one bit each). Two
// messages with disjoint masks cannot touch the same guarded object,
// so they may run concurrently in the pipeline; overlapping masks
// dispatch strictly in queue order.
func (a *App) applyMask(msg *wire.Message) uint64 {
	var mask uint64
	for i := range msg.Operations {
		mask |= 1 << uint(a.applyStripe(a.objectKey(&msg.Operations[i])))
	}
	return mask
}

// flushEntry is one completed delivery awaiting group commit: its
// broker tag, the queue handle it was delivered on, and the counter
// increments its message deferred (nil for weak-mode, stale-generation,
// bootstrap-covered, and poison deliveries — those only coalesce acks).
type flushEntry struct {
	q    *broker.Queue
	tag  uint64
	incr []vstore.Key
}

// flushBatchCap bounds the entries merged into one group commit, so a
// deep backlog cannot grow a single IncrOpsMulti/AckMulti call without
// bound (the flusher's leader just takes another turn).
const flushBatchCap = 256

// FaultBeforeAckFlush fires in the group-commit flusher after a batch's
// counter increments land and before its coalesced acks flush — the
// crash-redelivery window the ack-after-increment ordering exists for.
const FaultBeforeAckFlush = "subscribe/before-ack-flush"

// flushBatch is the commit flusher's drain — it runs on whichever
// caller of Flush leads, one batch at a time, inline: a message
// completing alone pays no goroutine hop and no allocation — and lands
// one group commit: every entry's counter increments in ONE IncrOpsMulti
// round trip, then every entry's broker ack in ONE AckMulti call. The
// order is the invariant: acks flush only after their increments land,
// so a crash between the two leaves the
// messages unacked, the broker redelivers them, and the per-object
// version guard discards the duplicate applies as stale. A key bumped
// by k messages in the window advances by k — within one message keys
// are deduped (IncrOps semantics, done at defer time).
func (a *App) flushBatch(entries []flushEntry) {
	flushStart := time.Now()
	a.tel.flushBatch.Record(int64(len(entries)))
	counts := a.flushCounts
	clear(counts)
	for _, e := range entries {
		for _, k := range e.incr {
			counts[k]++
		}
	}
	if len(counts) > 0 {
		if err := a.store.IncrOpsMulti(counts); err != nil {
			// The store mutates nothing on a failed round trip (liveness
			// and transport are checked before any state), so no
			// increment landed. Entries carrying increments must NOT be
			// acked — hand them back as failed attempts: redelivery
			// re-applies them idempotently and retries the increments.
			// Increment-free entries still ack below.
			kept := entries[:0]
			for _, e := range entries {
				if len(e.incr) > 0 {
					a.nackErrorDelivery(e.q, e.tag)
					continue
				}
				kept = append(kept, e)
			}
			entries = kept
		}
	}
	if len(entries) > 0 {
		if err := a.faults.Fire(FaultBeforeAckFlush); err != nil {
			// Armed crash window: the increments above landed, the acks
			// below never flush — a subscriber dying between the two
			// group-commit round trips. Every entry stays unacked on the
			// broker, so a restart redelivers all of them; the per-object
			// version guard discards the duplicate applies as stale.
			// (Tests arm Fail here, not Crash: a flush runs on a worker
			// goroutine, where a panic would be unrecoverable.)
			return
		}
		// One AckMulti per run of entries on one queue handle: the whole
		// batch, unless it straddles a queue reattach.
		ackStart := time.Now()
		tags := a.flushTags[:0]
		for i, e := range entries {
			tags = append(tags, e.tag)
			if i+1 == len(entries) || entries[i+1].q != e.q {
				a.ackMultiDelivery(e.q, tags)
				tags = tags[:0]
			}
		}
		a.flushTags = tags
		a.tel.observe(stageAck, time.Since(ackStart))
	}
	a.tel.observe(stageFlush, time.Since(flushStart))
}

// retryBackoff sleeps before a failed message's redelivery attempt:
// exponential from Config.RetryBackoffBase, doubling per prior failure,
// capped at Config.RetryBackoffMax, interruptible by worker stop.
func (a *App) retryBackoff(attempts int, stop <-chan struct{}) {
	delay := a.cfg.RetryBackoffMax
	if attempts < 16 { // beyond 2^16 the shift is past any sane cap
		if d := a.cfg.RetryBackoffBase << uint(attempts); d < delay {
			delay = d
		}
	}
	if delay <= 0 {
		return
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-stop:
	case <-t.C:
	}
}

// errStalled marks a delivery abandoned by the apply watchdog: the
// subscriber callback was still running when its escalating time budget
// expired.
var errStalled = errors.New("synapse: subscriber apply stalled past watchdog budget")

// stallBudgetCap bounds the stall budget, in multiples of ApplyTimeout.
const stallBudgetCap = 8

// stallBudget is the watchdog time budget for a delivery with the given
// prior failed attempts: ApplyTimeout doubled per attempt, up to
// stallBudgetCap times it. It covers the version claim and the callback
// only — a message that is not ready parks, and its run returns.
func (a *App) stallBudget(attempts int) time.Duration {
	budget, max := a.cfg.ApplyTimeout, stallBudgetCap*a.cfg.ApplyTimeout
	for i := 0; i < attempts && budget < max; i++ {
		budget *= 2
	}
	return min(budget, max)
}

// consumeDecoded runs one decoded job as far as it goes. Either it
// parks — the parked set owns it now, hands off — or this delivery is
// over: the job is retired, and its deferred counter-increment keys are
// returned for the group-commit flusher.
func (a *App) consumeDecoded(j *job) (incr []vstore.Key, parked bool, err error) {
	incr, parked, err = a.run(j)
	if !parked {
		a.retire(j)
	}
	if errors.Is(err, errStaleGeneration) {
		err = nil
	}
	return incr, parked, err
}

// consumeDecodedGuarded runs consumeDecoded under the per-delivery stall
// watchdog (Config.ApplyTimeout; disabled at 0, where it falls through
// with no extra goroutine). The budget escalates with the message's
// prior failed attempts — doubling each time, up to stallBudgetCap
// times — so transiently slow applies get a longer second chance while a
// truly hung callback still exhausts MaxDeliveryAttempts and
// quarantines to the dead-letter set-aside. A timed-out apply is
// abandoned and the delivery failed so the worker moves on. The
// abandoned goroutine may straggle and eventually write; the apply
// stripes plus the per-object version guard absorb that exactly as they
// absorb redelivered duplicates. A straggler's increments are dropped
// along with its ack — the redelivered attempt re-applies and
// re-increments, which the version guard and at-least-once counting
// semantics absorb.
func (a *App) consumeDecodedGuarded(j *job) ([]vstore.Key, bool, error) {
	if a.cfg.ApplyTimeout <= 0 {
		return a.consumeDecoded(j)
	}
	return a.consumeWatched(j)
}

// consumeWatched is consumeDecodedGuarded with the watchdog armed. It is
// a function of its own so that what the watchdog costs — results the
// abandoned goroutine may still write, hence on the heap, its channel
// and timer — stays off the unwatched path.
func (a *App) consumeWatched(j *job) ([]vstore.Key, bool, error) {
	var (
		incr   []vstore.Key
		parked bool
		err    error
	)
	done := make(chan struct{})
	t := time.NewTimer(a.stallBudget(j.d.Attempts))
	defer t.Stop()
	go func() {
		incr, parked, err = a.consumeDecoded(j)
		close(done)
	}()
	select {
	case <-done:
		return incr, parked, err
	case <-t.C: // abandoned: the straggler's results are never read
		a.tel.stalled.Add(1)
		return nil, false, errStalled
	}
}

// ProcessMessage applies one write message with the delivery semantics
// configured for its origin, on its caller's goroutine (tests, the
// benchmark's layer replay): a message stopped at the generation barrier
// or on an unmet dependency blocks its caller until a release — a
// counter reaching its threshold, the DepTimeout timer — lets it try
// again. Its increments apply inline.
func (a *App) ProcessMessage(msg *wire.Message) error {
	j := &job{app: a, msg: msg, wakeup: make(chan struct{}, 1)}
	_, _, err := a.run(j)
	j.stopWaiting()
	if j.entered {
		a.exitGeneration(msg.App, msg.Generation)
	}
	return err
}

// run takes j through process as far as it goes: a queue job that is not
// ready parks, and a blocking job waits out each release and tries again.
func (a *App) run(j *job) (incr []vstore.Key, parked bool, err error) {
	for {
		incr, parked, err = a.process(j)
		if !parked || j.wakeup == nil {
			return incr, parked, err
		}
		<-j.wakeup
	}
}

// process is the subscriber algorithm of §4.2, one step for every mode
// and every entry: wait until every dependency's ops counter reaches the
// version in the message, apply the operations, then increment the ops
// counters — or park j (true) at the first thing it would have to wait
// for. The modes differ only in the plan (planDeps): global mode also
// waits on the global-object dependency, causal mode skips it, and weak
// mode plans nothing (§6.5: "weak and causal … timeout set to 0 s and
// ∞"). While bootstrapping, delivery degrades to weak (§4.4): the message
// waits for nothing but keeps its increments, and once applied it
// records its versions in the open chunk window.
//
// A message waits for ONE version-store window: under its apply stripes
// the store probes the plan and, if it is met, claims the object
// versions in the same script (claimAndApply). A job whose plan is unmet
// parks — on the parked set, or a blocking job on its caller's goroutine
// — until a counter it needs moves, and once a finite DepTimeout has run
// out it is processed anyway, which costs it a second window for the
// claims.
//
// A queue job's counter increments are deferred: the due keys are
// returned (deduped) for the group-commit flusher, which merges them
// across messages into one IncrOpsMulti round trip (resolved values with
// no reference into the message, so they outlive ReleaseMessage).
// ProcessMessage's increments apply inline, a second window.
func (a *App) process(j *job) ([]vstore.Key, bool, error) {
	msg := j.msg
	// Bootstrap watermark control messages carry no object state: they
	// only flip the in-flight chunk window's state (and are ignored
	// entirely when no chunked bootstrap from this origin is running —
	// other subscribers' watermarks fan out to every queue bound to the
	// origin's exchange). Intercepted before the generation barrier so a
	// publisher recovery mid-bootstrap cannot strand the window wait.
	if id, kind, ok := wire.WatermarkOf(msg); ok {
		a.noteWatermark(msg.App, id, kind)
		return nil, false, nil
	}
	if !j.entered {
		entered, err := a.enterGeneration(j)
		if !entered && err == nil {
			a.park(j)
			return nil, true, nil
		}
		if err != nil {
			return nil, false, err
		}
		j.entered = true
	}
	timeout := a.cfg.DepTimeout
	if j.reqs == nil {
		if err := a.planDeps(j, a.originMode(msg.App)); err != nil {
			return nil, false, err
		}
		j.probedAt = time.Now()
	} else {
		j.wait.Cancel() // released; the timer may have done it
	}
	reqs, booting := j.reqs, a.Bootstrapping()
	if booting {
		reqs = nil
	}

	deadline := j.probedAt.Add(timeout)
	var wake vstore.Waker
	if timeout < 0 || time.Now().Before(deadline) {
		wake = j
	}
	var (
		cbuf [guardWidth]vstore.Claim
		obuf [guardWidth]int
	)
	claims, claimOp := a.messageClaims(msg, cbuf[:0], obuf[:0])
	w, admitted, err := a.claimAndApply(msg, claims, claimOp, reqs, wake, &j.scratch)
	if err != nil {
		return nil, false, err
	}
	if w != nil && j.parkedAt.IsZero() {
		// Counted when found, not when resolved: a subscriber stuck on a
		// dependency that never arrives must not report 0.
		j.parkedAt = time.Now()
		a.tel.depWaitsBlocked.Add(1)
	}
	if w != nil && wake != nil {
		j.wait = w
		if timeout > 0 && j.timer == nil {
			j.timer = time.AfterFunc(time.Until(deadline), j.Wake)
		}
		a.park(j)
		return nil, true, nil
	}
	if w != nil {
		// §6.5 — give up waiting for late or lost messages and process
		// anyway, trading consistency for availability; the per-object
		// guard in the apply discards stale versions, weak-style.
		a.noteDepTimeout(a.describeDepTimeout(&vstore.WaitError{Unmet: w.Unmet}))
		if _, admitted, err = a.claimAndApply(msg, claims, claimOp, nil, nil, &j.scratch); err != nil {
			return nil, false, err
		}
	}
	if len(reqs) > 0 {
		a.tel.observe(stageDepWait, admitted.Sub(j.probedAt))
		if !j.parkedAt.IsZero() {
			a.tel.depWaitBlocked.Record(int64(admitted.Sub(j.parkedAt)))
			if w == nil && a.hashedDeps {
				a.noteFalseDeps(msg, reqs)
			}
		}
		if a.hashedDeps {
			a.recordDepWriters(msg)
		}
	}
	if booting {
		// Only after every operation applied: a failed message is
		// redelivered whole, and recording its versions early could dedup
		// a chunk row against an apply that never happened.
		a.touchWindow(msg)
	}
	// The bootstrap Seq boundary outlives Bootstrapping(): a message
	// published before the version snapshot has its bumps bulk-loaded
	// already, and re-incrementing (e.g. backlog fetched during the
	// bootstrap but processed after it) would push this store's counters
	// past the publisher's, making every later guarded apply look stale.
	var deferred []vstore.Key
	if len(j.incr) > 0 && msg.Seq > a.bootSeqFor(msg.App) {
		if j.q != nil {
			// Group commit: the flusher counts each message's DISTINCT
			// keys once (IncrOps semantics), so dedup here, where the
			// per-message set is small and hot in cache.
			deferred = dedupKeys(j.incr)
		} else if err := a.store.IncrOps(j.incr); err != nil {
			return nil, false, err
		}
	}
	a.tel.observe(stageApply, time.Since(admitted))
	a.tel.processed.Add(1)
	return deferred, false, nil
}

// originMode returns the strongest delivery mode among this app's
// subscriptions from the origin.
func (a *App) originMode(origin string) DeliveryMode {
	if o := (*a.compiled.Load())[origin]; o != nil {
		return o.mode
	}
	return Weak
}

// planDeps builds j's dependency plan from its message: one requirement
// list for the whole message — hashed dependency versions, exact dots
// (resolved through this app's tracker — a hash subscriber folds a DVV
// publisher's names into its own key space, a DVV subscriber interns
// them), and external dependency minimums (decorator cross-app
// causality — waited, never incremented). Requirements landing on the
// same key are max-merged by the store, which is equivalent to waiting
// on each entry in turn. A weak subscriber's plan is empty: it waits for
// nothing and maintains no counters.
func (a *App) planDeps(j *job, mode DeliveryMode) error {
	msg := j.msg
	j.reqs, j.incr = j.reqBuf[:0], j.incrBuf[:0]
	if mode == Weak {
		return nil
	}
	deps, err := msg.Deps()
	if err != nil {
		return err
	}
	var globalKey vstore.Key
	skipGlobal := mode < Global && msg.GlobalDep != ""
	if skipGlobal {
		globalKey = a.tracker.Resolve(msg.GlobalDep)
	}
	for k, minVersion := range deps {
		if key := vstore.Key(k); !skipGlobal || key != globalKey {
			j.reqs = append(j.reqs, vstore.WaitReq{Key: key, Need: minVersion})
			j.incr = append(j.incr, key)
		}
	}
	for name, minVersion := range msg.Dots {
		if key := a.tracker.Resolve(name); !skipGlobal || key != globalKey {
			j.reqs = append(j.reqs, vstore.WaitReq{Key: key, Need: minVersion})
			j.incr = append(j.incr, key)
		}
	}
	for depKey, minOps := range msg.External {
		j.reqs = append(j.reqs, vstore.WaitReq{Key: a.tracker.Resolve(depKey), Need: minOps})
	}
	return nil
}

// dedupKeys returns keys with duplicates removed (order preserved);
// small-n quadratic scan, cheaper than a map for per-message key sets.
func dedupKeys(keys []vstore.Key) []vstore.Key {
	out := keys[:0:len(keys)]
	for _, k := range keys {
		dup := false
		for _, seen := range out {
			if seen == k {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

// applyStripe returns the per-object apply lock for a dependency key.
// A version claim and its DB write must be atomic per object: without
// the lock, a worker preempted between winning the claim and persisting
// the row can write stale data after a newer version already landed —
// and since the guard has recorded the newer version, no redelivery ever
// repairs it (permanent divergence under weak/degraded processing).
//
// The stripe is FNV-1a over the key's decimal digits — the wire token of
// a hashed key, so it never had to be kept as a string to be hashed.
func (a *App) applyStripe(k vstore.Key) int {
	var buf [20]byte
	h := uint32(2166136261)
	for _, c := range strconv.AppendUint(buf[:0], uint64(k), 10) {
		h ^= uint32(c)
		h *= 16777619
	}
	return int(h % uint32(len(a.applyLocks)))
}

// objectKey resolves an operation's object token into this app's
// version-store key space: a hashed key is adopted verbatim (a projected
// decode has it parsed already), a DVV publisher's name goes through the
// tracker.
func (a *App) objectKey(op *wire.Operation) vstore.Key {
	if k, ok := op.ObjectKey(); ok {
		return vstore.Key(k)
	}
	return a.tracker.Resolve(op.ObjectDep)
}

// lockStripes acquires the apply stripes in mask, lowest first — the
// index order that makes concurrent multi-op messages deadlock-free, the
// same protocol the version store uses for its keys.
func (a *App) lockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		a.applyLocks[bits.TrailingZeros64(m)].Lock()
	}
}

func (a *App) unlockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		a.applyLocks[bits.TrailingZeros64(m)].Unlock()
	}
}

// guardWidth is how many guarded operations a message can carry before
// its claim lists leave the stack.
const guardWidth = 4

// messageClaims appends one claim per operation whose object version the
// message carries, and the index of the operation it guards.
func (a *App) messageClaims(msg *wire.Message, claims []vstore.Claim, claimOp []int) ([]vstore.Claim, []int) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		if v, guarded := msg.ObjectVersion(op); guarded {
			claims = append(claims, vstore.Claim{Key: a.objectKey(op), Version: v})
			claimOp = append(claimOp, i)
		}
	}
	return claims, claimOp
}

// claimAndApply is the one way an operation reaches applyOp, for a live
// message and a bootstrap chunk alike. Under the apply stripes of every
// claimed object (held from the claim through the last DB write, see
// applyStripe) it asks the store to take the claims — claims[c] guards
// msg.Operations[claimOp[c]] — if every requirement in reqs is met, and
// then applies the operations in order. A claim that loses (stale version) skips its
// operation: weak-mode last-writer-wins and duplicate redelivery. If the
// requirements are unmet nothing is claimed or applied and the store's
// wait comes back (registered for wake, if one is given) with the
// stripes released. admitted is when the window returned.
//
// If a DB apply fails midway, every fresh claim from the failed
// operation onward is rolled back so a retry re-applies exactly the
// unapplied operations — operations already persisted keep their claims
// and are skipped as stale on redelivery (no double-apply).
func (a *App) claimAndApply(msg *wire.Message, claims []vstore.Claim, claimOp []int, reqs []vstore.WaitReq, wake vstore.Waker, sc *applyScratch) (w *vstore.Parked, admitted time.Time, err error) {
	var (
		rbuf    [guardWidth]vstore.ClaimResult
		stripes uint64
	)
	for _, c := range claims {
		stripes |= 1 << uint(a.applyStripe(c.Key))
	}
	results := rbuf[:]
	if len(claims) > guardWidth {
		results = make([]vstore.ClaimResult, len(claims))
	}
	results = results[:len(claims)]

	a.lockStripes(stripes)
	defer a.unlockStripes(stripes)
	w, err = a.store.ClaimIfMet(reqs, claims, results, wake)
	admitted = time.Now()
	if err != nil || w != nil {
		return w, admitted, err
	}
	c := 0 // the first claim not yet passed
	for i := range msg.Operations {
		mine := c // the claim guarding operation i, if it has one
		if c < len(claims) && claimOp[c] == i {
			c++
			if !results[mine].Applied {
				continue // stale update: skip to the latest version
			}
		}
		if err := a.applyOp(msg.App, &msg.Operations[i], sc); err != nil {
			for ; mine < len(claims); mine++ {
				if results[mine].Applied {
					_ = a.store.RestoreVersion(claims[mine].Key, claims[mine].Version, results[mine].Prev)
				}
			}
			return nil, admitted, err
		}
	}
	return nil, admitted, nil
}

// describeDepTimeout decorates a dependency-wait timeout with the
// blocking dependency rendered through this app's tracker, so a log
// line or dead-letter names the exact dot or hashed key that never
// arrived instead of a bare "timed out". The result still unwraps to
// vstore.ErrTimeout, so §6.5 degradation callers are unaffected.
func (a *App) describeDepTimeout(err error) error {
	var we *vstore.WaitError
	if !errors.As(err, &we) || len(we.Unmet) == 0 {
		return err
	}
	r := we.Unmet[0]
	extra := ""
	if len(we.Unmet) > 1 {
		extra = fmt.Sprintf(" (+%d more)", len(we.Unmet)-1)
	}
	return fmt.Errorf("synapse: %s tracker blocked on %s (have %d, need %d)%s: %w",
		a.tracker.Policy(), a.tracker.DescribeKey(r.Key), r.Have, r.Need, extra, err)
}

// describeParked renders every parked message for Stats.Parked: which
// message, and what it waits for, in describeDepTimeout's words. It
// copies what it renders under parkMu and formats after: park and
// release take that lock on the delivery path.
func (a *App) describeParked() []string {
	type parkedJob struct {
		origin   string
		seq, gen uint64
		unmet    []vstore.WaitReq // nil: held at the generation barrier
	}
	a.parkMu.Lock()
	jobs := make([]parkedJob, 0, len(a.parked))
	for j := range a.parked {
		p := parkedJob{origin: j.msg.App, seq: j.msg.Seq, gen: j.msg.Generation}
		if j.entered {
			p.unmet = j.wait.Unmet
		}
		jobs = append(jobs, p)
	}
	a.parkMu.Unlock()
	out := make([]string, 0, len(jobs))
	for _, p := range jobs {
		reason := fmt.Sprintf("generation %d is ahead of the barrier", p.gen)
		if p.unmet != nil {
			reason = a.describeDepTimeout(&vstore.WaitError{Unmet: p.unmet}).Error()
		}
		out = append(out, fmt.Sprintf("%s seq=%d: %s", p.origin, p.seq, reason))
	}
	sort.Strings(out)
	return out
}

// noteDepTimeout records a dependency wait that gave up (§6.5), keeping
// the rendered error for Stats.LastDepTimeout.
func (a *App) noteDepTimeout(err error) {
	a.tel.depTimeouts.Add(1)
	a.tel.lastDepTimeoutMu.Lock()
	a.tel.lastDepTimeout = err.Error()
	a.tel.lastDepTimeoutMu.Unlock()
}

// noteFalseDeps runs after a wait that blocked and then resolved: for
// each of this message's own objects whose dependency key was actually
// waited on, if the last write recorded under that key came from a
// DIFFERENT (origin, model, id), the block was at least partly a false
// dependency — an unrelated name hashing onto the same key. Under the
// DVV tracker and on unhashed keys names do not share a key, so neither
// this nor recordDepWriters runs there.
func (a *App) noteFalseDeps(msg *wire.Message, reqs []vstore.WaitReq) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		k := a.objectKey(op)
		if !slices.ContainsFunc(reqs, func(r vstore.WaitReq) bool { return r.Key == k && r.Need > 0 }) {
			continue
		}
		if last, ok := a.lastDepWriter(k); ok && last != opFingerprint(msg.App, op.Model(), op.ID) {
			a.tel.falseDeps.Add(1)
		}
	}
}

// recordDepWriters notes each applied operation as the last writer of
// its object key — the evidence noteFalseDeps compares future blocked
// waits against.
func (a *App) recordDepWriters(msg *wire.Message) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		a.recordDepWriter(a.objectKey(op), opFingerprint(msg.App, op.Model(), op.ID))
	}
}

// errStaleProjection fails a delivery whose attributes were decoded for
// a projection that skipped some of what the subscription's current one
// names (a Subscribe for more of the model came between decode and
// apply): the redelivery decodes it again.
var errStaleProjection = errors.New("synapse: subscription changed since the message was decoded")

// applyOp persists (or observes) a single operation if this app
// subscribes to its model from the message's origin. Irrelevant
// operations are skipped — but the message's dependency counters are
// still maintained by the caller, since later messages may depend on
// them.
//
// The received attributes are lent, not copied, when they can be the
// record's own as they are: decoded through the subscription's current
// projection, and no virtual setter to run. The engine's copy-in is then
// the only copy (package storage's row-ownership rule). Otherwise — a
// message decoded in full or built by hand — the projection lands the
// subscribed ones, coerced, on a map of the record's own; for create,
// update and destroy alike.
func (a *App) applyOp(origin string, op *wire.Operation, sc *applyScratch) error {
	if err := a.faults.Fire(FaultApply); err != nil {
		return err
	}
	p := a.projectionFor(origin, op.Types)
	if p == nil {
		return nil
	}
	before, after := model.BeforeCreate, model.AfterCreate
	switch op.Operation {
	case wire.OpUpdate:
		before, after = model.BeforeUpdate, model.AfterUpdate
	case wire.OpDestroy:
		if !p.observer {
			err := a.mapper.Delete(p.Desc.Name, op.ID)
			if errors.Is(err, storage.ErrNotFound) {
				return nil // deletes are idempotent on subscribers
			}
			return err
		}
		before, after = model.BeforeDestroy, model.AfterDestroy
	}
	sink, projected := op.Sink()
	if projected && sink != wire.Sink(p) {
		// Decoded for an earlier compile of the subscriptions. What it kept
		// still serves if it kept everything p names: p then filters it
		// like a message decoded in full.
		if was, _ := sink.(*projection); was == nil || !was.Wants(op.Operation) || !p.Within(was.Projection) {
			return errStaleProjection
		}
		projected = false
	}
	rec := &sc.rec
	*rec = model.Record{Model: p.Desc.Name, ID: op.ID, Attrs: op.Attributes}
	if p.Virtual() || !projected {
		rec.Attrs = make(map[string]any, len(op.Attributes))
		if err := p.Apply(rec, op.Attributes); err != nil {
			return err
		}
	} else if rec.Attrs == nil {
		rec.Attrs = make(map[string]any)
	}
	if !p.observer {
		return a.mapper.Save(rec)
	}
	// A DB-less observer: the callbacks are all there is.
	sc.ctx = model.CallbackCtx{Record: rec, Bootstrapping: a.Bootstrapping(), Env: a.Env()}
	if err := p.Desc.Callbacks.Run(before, &sc.ctx); err != nil {
		return err
	}
	return p.Desc.Callbacks.Run(after, &sc.ctx)
}
