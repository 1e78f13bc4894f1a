package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/broker"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// This file is the subscriber's runtime: the worker pool, each worker's
// lanes and their stall watchdog, the sliding window, the group-commit
// flush and the one stop-aware pause. Every goroutine, timer and sleep
// that schedules the subscriber algorithm (subscribe.go) starts here,
// except a job's own DepTimeout timer (probe).

// StartWorkers launches n subscriber workers processing this app's
// queue in parallel (n <= 0 uses Config.Workers). Workers survive queue
// decommission by recovering the queue and re-bootstrapping. Beside them
// runs the journal retry (retryJournal).
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
		w.slides = true
		a.workersWG.Add(1)
		go a.workerLoop(w, stop)
	}
	a.workersWG.Add(1)
	go func() {
		defer a.workersWG.Done()
		a.retryJournal(stop)
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
	for {
		if q := a.Queue(); q != nil {
			q.CancelWaiters()
		}
		if !a.pause(done, time.Millisecond) {
			break
		}
	}
	a.poolSize.Store(0)
	jobs := a.retireParked(nil)
	for i := len(jobs) - 1; i >= 0; i-- { // Nack pushes front: newest first
		a.nack(jobs[i].q, jobs[i].d.Tag, ackNack)
	}
	a.recycle(jobs...)
	a.cutJournal()
}

// worker is one subscriber worker's apply window (see processBatch) and
// what its batches reuse. Its lanes are long-lived goroutines, started
// with the worker, that each run one dispatched job at a time through
// step: a delivery pays for no goroutine start, and the lanes keep the
// stacks they grew. Bootstrap's drain is a worker with one lane, whose
// window does not slide: it fetches for itself.
type worker struct {
	app     *App
	lanes   chan *job       // dispatch to an idle lane
	results chan laneResult // one per dispatched job, and one more per done one
	running sync.WaitGroup  // dispatched jobs whose step, flush included, has not returned
	exited  sync.WaitGroup  // lanes still running; an abandoned one hands its count on
	batch   []*job
	ds      []broker.Delivery // the fetch buffer: jobs copy what they need
	slides  bool              // a pool worker's window slides (processBatch)
}

// laneResult is a dispatched job's mask, and the job if it failed. A
// done job sends two: done when its slot frees, landed once the flush
// that carried its increments returned.
type laneResult struct {
	mask         uint64
	failed       *job
	done, landed bool
}

// newWorker builds a worker and starts its lanes.
func (a *App) newWorker(lanes int) *worker {
	// Sized to the window: at most PipelineDepth jobs are dispatched and
	// not yet read back, each with up to two results, so neither a
	// dispatch nor a result ever blocks.
	depth := a.cfg.PipelineDepth
	w := &worker{app: a, lanes: make(chan *job, depth), results: make(chan laneResult, 2*depth), batch: make([]*job, 0, depth)}
	w.exited.Add(lanes)
	for range lanes {
		go w.runLane()
	}
	return w
}

// close stops the worker's lanes and waits for them — not for a
// straggler the watchdog abandoned: a replacement took its place.
func (w *worker) close() {
	close(w.lanes)
	w.exited.Wait()
}

// lane is one of a worker's goroutines, and its stall watchdog
// (Config.ApplyTimeout; none at 0): one reusable timer, armed while the
// lane's job waits for its per-object apply locks and again from its
// claim to the end of its apply, never across the version-store window
// or a release. If the budget (stallBudget) runs out first, the watchdog
// takes the job: stalled, its window slot and mask free, nacked as a
// failed attempt, a replacement lane in its lane's place. The lane goes
// on as its straggler until the callback returns, then drops the result,
// increments and ack with it, and exits; the per-object apply locks and
// version guard absorb a straggler's late write like a redelivered
// duplicate.
type lane struct {
	w     *worker
	timer *time.Timer
	armed atomic.Pointer[job] // what the watchdog times; whoever disarms it takes it
	due   atomic.Int64        // when its budget runs out, in UnixNano
}

// runLane runs dispatched jobs until the worker closes its dispatch
// channel, or the watchdog takes the one it runs.
func (w *worker) runLane() {
	l := &lane{w: w}
	if w.app.cfg.ApplyTimeout > 0 {
		l.timer = time.AfterFunc(time.Hour, l.expire)
		l.timer.Stop()
	}
	for j := range w.lanes {
		if !l.step(j) {
			return
		}
	}
	w.exited.Done()
}

// step runs one dispatched job through the driver: the delivery as far
// as it goes, a done job's group-commit entry, its result — the window
// slot frees here — and then the flush and the landed result. It
// reports false when the watchdog took the job, and with it the result.
func (l *lane) step(j *job) bool {
	w, a := l.w, l.w.app
	j.lane = l
	r := laneResult{mask: j.mask} // after drive, j may be another worker's, or recycled
	st, _ := a.drive(j)
	switch st {
	case stateStalled:
		a.retire(j, true)
		return false
	case stateDone:
		a.commits.Add(j)
		r.done = true
	case stateFailed:
		r.failed = j
	}
	w.results <- r
	if r.done {
		a.commits.Flush()
		w.results <- laneResult{mask: r.mask, landed: true}
	}
	w.running.Done()
	return true
}

func (l *lane) arm(j *job) {
	if l == nil || l.timer == nil {
		return
	}
	budget := l.w.app.stallBudget(j.d.Attempts)
	l.due.Store(time.Now().Add(budget).UnixNano())
	l.armed.Store(j)
	l.timer.Reset(budget)
}

// disarm reports false when the watchdog took j first.
func (l *lane) disarm(j *job) bool {
	if l == nil || l.timer == nil {
		return true
	}
	if !l.armed.CompareAndSwap(j, nil) {
		return false
	}
	l.timer.Stop()
	return true
}

// expire is the watchdog firing; one meant for an earlier arm finds the
// budget not yet spent, or nothing armed.
func (l *lane) expire() {
	j, w := l.armed.Load(), l.w
	if j == nil || time.Now().UnixNano() < l.due.Load() || !l.armed.CompareAndSwap(j, nil) {
		return
	}
	w.app.move(j, stateStalled)
	w.app.tel.stalled.Add(1)
	go w.runLane()
	w.results <- laneResult{mask: j.mask, failed: j}
	w.running.Done()
}

// workerLoop fills the worker's window, waiting for a delivery only
// while it is empty, and works through it (processBatch), which refills
// each slot as it frees; what ended the refilling — a dead, crashed or
// closed queue, a refused link — is handled here once the window has
// drained.
func (a *App) workerLoop(w *worker, stop <-chan struct{}) {
	defer a.workersWG.Done()
	defer w.close()
	for {
		q, err := w.fill(a.cfg.PipelineDepth, true, stop)
		if q == nil {
			return
		}
		if len(w.batch) > 0 {
			w.processBatch(w.batch, stop)
		}
		switch {
		case err == nil, errors.Is(err, broker.ErrCanceled):
		case errors.Is(err, broker.ErrDecommissioned):
			a.recycle(a.retireParked(q)...)
			if rerr := a.RecoverQueue(); rerr != nil {
				// Cannot recover (e.g. origin gone); retry after a beat.
				a.pause(stop, 10*time.Millisecond)
			}
		case errors.Is(err, broker.ErrBrokerDown):
			// Broker crashed: wait out the restart, then swap onto the
			// rebuilt queue handle (the old one is permanently defunct).
			for a.fabric.bus().Down() {
				if !a.pause(stop, 2*time.Millisecond) {
					return
				}
			}
			a.recycle(a.retireParked(q)...)
			a.reattachQueue()
		case errors.Is(err, broker.ErrClosed):
			return
		default: // the link refused the fetch
			a.pause(stop, 5*time.Millisecond)
		}
	}
}

// fill empties the worker's batch and refills it with up to n jobs its
// window can start. It returns the queue it took them from: nil on a
// stop, or with no queue — the worker is done. First it does what every
// fetch does: it retries parked acks, and admits the fetch through the
// simulated network, where a partitioned or dropping link refuses it
// (its error) instead of long-polling through a dead network. Released
// jobs come first: they are older than anything in the queue, and what
// is parked behind them waits for exactly these. Then deliveries off
// the queue, waited for only when wait is set and the ready list gave
// none; the take's error comes back with whatever the ready list gave.
func (w *worker) fill(n int, wait bool, stop <-chan struct{}) (*broker.Queue, error) {
	a := w.app
	clear(w.batch) // what parked is the parked set's, not this buffer's
	w.batch = w.batch[:0]
	select {
	case <-stop:
		return nil, nil
	default:
	}
	a.flushPendingAcks()
	q := a.Queue()
	if q == nil {
		return nil, nil
	}
	if err := a.consumeGate(); err != nil {
		return q, err
	}
	w.batch = a.takeReady(w.batch, n)
	k := n - len(w.batch)
	if k == 0 {
		return q, nil
	}
	var err error
	if wait && k == n {
		w.ds, err = q.AppendBatch(w.ds[:0], k)
	} else {
		w.ds, err = q.TryAppendBatch(w.ds[:0], k)
	}
	for _, d := range w.ds {
		w.batch = append(w.batch, a.fetched(q, d))
	}
	clear(w.ds)
	return q, err
}

// processBatch works through one batch of deliveries — released from
// the ready list or freshly fetched — with a bounded in-flight window:
// up to Config.PipelineDepth run concurrently in this worker, each on
// one of its lanes, so the decode, dependency probe, version claims, and
// callback of messages N+1..N+k overlap message N's 2ms-class callback
// instead of queueing behind it. A depth of 1 is the same loop with a
// window of one.
//
//   - The window slides: in a pool worker, a slot that frees while
//     others are in flight and the batch is all dispatched is refilled
//     at once (fill, without waiting), so one delivery held in its
//     version-store window or leading a group commit does not hold the
//     other slots empty; an emptied window is workerLoop's to fill. A
//     refill that came up short looks again at the next result or nudge
//     (a job readied, credit returned); an arrival wakes only consumers
//     blocked in the queue. A stop, a failure or a refill that fails
//     ends the refilling; the window then drains.
//   - Park, don't block: a message whose dependencies are unmet, or
//     whose generation is ahead of the barrier, parks (see job): its
//     lane moves on and its slot and dispatch mask are free at once.
//     The delivery stays unacked, so the credit window bounds the parked
//     set. Whatever moves the counter it needs (a group-commit flush, a
//     bootstrap bulk load, an inline increment), empties the generation
//     it waits for, or runs out its DepTimeout releases it to the ready
//     list. Queue order is never changed to get there, so every message
//     ahead of a parked one is parked, running or done — the oldest
//     unapplied message can always run.
//   - Conflicts serialize: each message folds its operations' objects
//     into a 64-bit mask (applyMask); a message is dispatched
//     only when its mask is disjoint from every in-flight message's,
//     so two updates to the same guarded object never race within the
//     worker and dispatch in queue order — and only when the objects
//     its dependencies name (needsMask) are not those of the message
//     dispatched last while it is in flight or its flush has not
//     returned, so a chain of one controller's writes runs link by link
//     instead of parking each link. Cross-worker ordering is the job of
//     the dependency counters and the per-object version guard.
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
		refill       = w.slides
		last         uint64 // the last dispatched job's mask, until its flush returns
	)
	for {
		short := false // the refill took nothing, and may yet
		// Dispatch while there is capacity and nothing diverted the batch.
		for !stopping && len(failures) == 0 && inflight < depth {
			if next == len(batch) {
				if !refill || inflight == 0 {
					break
				}
				q, err := w.fill(depth-inflight, false, stop)
				batch, next, refill = w.batch, 0, q != nil && err == nil
				if len(batch) == 0 {
					short = refill
					break
				}
			}
			select {
			case <-stop:
				stopping = true
			default:
			}
			if stopping {
				break
			}
			j := batch[next]
			if j.load() == stateFetched {
				if j.d.Redelivered {
					a.tel.redelivered.Add(1)
				}
				j.at = time.Now()
				msg, derr := wire.UnmarshalProjected(j.d.Payload, a.resolve)
				if derr != nil {
					// Poison message: ack (coalesced) and drop it rather
					// than loop forever.
					a.to(j, stateFetched, stateDone)
					a.commits.Add(j)
					a.commits.Flush()
					next++
					continue
				}
				j.msg, j.mask, j.needs = msg, a.applyMask(msg), a.needsMask(msg)
				a.to(j, stateFetched, stateDecoded)
			}
			if j.mask&inflightMask != 0 || j.needs&last != 0 {
				break // shared mask bit: wait for the earlier message
			}
			next++
			inflight++
			inflightMask |= j.mask
			last = j.mask
			a.tel.pipelineFill.Record(int64(inflight))
			w.running.Add(1)
			w.lanes <- j
		}
		if inflight == 0 && (last == 0 || next == len(batch) || stopping || len(failures) > 0) {
			break
		}
		var nudged <-chan struct{} // nil: never ready
		if short {
			nudged = a.nudged
		}
		select {
		case r := <-w.results:
			if r.mask == last && (r.landed || !r.done) {
				last = 0 // a done job's flush returned, or it parked or failed
			}
			if !r.landed {
				inflight--
				inflightMask &^= r.mask
			}
			if r.failed != nil {
				failures = append(failures, r.failed)
			}
		case <-stop:
			stopping = true
		case <-nudged:
		}
	}
	w.running.Wait() // group commits of completed messages have landed
	for len(w.results) > 0 {
		<-w.results // landed results the window no longer needs
	}
	// A stop or a failure leaves an undispatched tail. Nack pushes front,
	// so handing it back newest first restores queue order.
	for i := len(batch) - 1; i >= next; i-- {
		a.move(batch[i], stateFailed)
		a.nack(batch[i].q, batch[i].d.Tag, ackNack)
		a.recycle(batch[i])
	}
	if len(failures) > 0 {
		// Fail to the front, after the tail: the failure-counting nacks
		// push last so the queue front reads [failed..., rest...].
		alive, maxAttempts := false, 0
		for _, j := range failures {
			maxAttempts = max(maxAttempts, j.d.Attempts)
			if !a.nack(j.q, j.d.Tag, ackNackError) {
				alive = true
				a.tel.retries.Add(1)
			}
			a.recycle(j)
		}
		if alive {
			a.retryBackoff(maxAttempts, stop)
		}
	}
}

// applyMask folds every operation object in the message into a 64-bit
// dispatch mask, one bit per object: the top six bits of a
// multiplicative (Fibonacci) hash of its key. Two messages with
// disjoint masks cannot touch the same guarded object, so they may run
// concurrently in the pipeline; overlapping masks dispatch strictly in
// queue order.
func (a *App) applyMask(msg *wire.Message) uint64 {
	var mask uint64
	for i := range msg.Operations {
		mask |= maskBit(a.objectKey(&msg.Operations[i]))
	}
	return mask
}

// needsMask folds the objects the message's dependencies name into the
// same bits. A message that needs the increments of the message
// dispatched just before it — the last write of the same controller —
// waits for them to land like a conflict instead of parking on them: a
// window running ahead of a chain of writes would park every link. A
// weak subscriber needs nothing.
func (a *App) needsMask(msg *wire.Message) uint64 {
	deps, err := msg.Deps()
	if err != nil || a.originMode(msg.App) == Weak {
		return 0
	}
	var mask uint64
	for k := range deps {
		mask |= maskBit(vstore.Key(k))
	}
	for name := range msg.Dots {
		mask |= maskBit(a.tracker.Resolve(name))
	}
	return mask
}

// maskBit is an object's dispatch-mask bit: the top six bits of a
// multiplicative (Fibonacci) hash of its key.
func maskBit(k vstore.Key) uint64 { return 1 << (uint64(k) * 0x9E3779B97F4A7C15 >> 58) }

// flushBatchCap bounds the jobs merged into one group commit, so a
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
// one group commit of done jobs: their increments (none for weak, stale,
// bootstrap-covered or poison deliveries) in ONE IncrOpsMulti round trip,
// then their acks in ONE AckMulti call; then each is recycled. The order
// is the invariant: acks flush only after their increments land, so a
// crash between the two leaves the messages unacked, the broker
// redelivers them, and the per-object version guard discards the
// duplicate applies as stale. A key bumped by k messages in the window
// advances by k — within one message keys are deduped (IncrOps
// semantics, done at defer time).
func (a *App) flushBatch(jobs []*job) {
	flushStart := time.Now()
	a.tel.flushBatch.Record(int64(len(jobs)))
	counts := a.flushCounts
	clear(counts)
	for _, j := range jobs {
		for _, k := range j.incr {
			counts[k]++
		}
	}
	if len(counts) > 0 {
		if err := a.store.IncrOpsMulti(counts); err != nil {
			// The store mutates nothing on a failed round trip (liveness
			// and transport are checked before any state), so no
			// increment landed: a job carrying some must NOT be acked. It
			// goes back as a failed attempt, for redelivery to re-apply
			// idempotently and retry the increments. The rest ack below.
			kept := jobs[:0]
			for _, j := range jobs {
				if len(j.incr) > 0 {
					a.nack(j.q, j.d.Tag, ackNackError)
					a.recycle(j)
					continue
				}
				kept = append(kept, j)
			}
			jobs = kept
		}
	}
	if len(jobs) > 0 {
		if err := a.faults.Fire(FaultBeforeAckFlush); err != nil {
			// Armed crash window: the increments above landed, the acks
			// below never flush — a subscriber dying between the two
			// group-commit round trips. A restart redelivers every job's
			// message; the per-object version guard discards the duplicate
			// applies as stale. (Tests arm Fail here, not Crash: a flush
			// runs on a worker goroutine, where a panic is unrecoverable.)
			a.recycle(jobs...)
			return
		}
		// One AckMulti per run of jobs on one queue handle: the whole
		// batch, unless it straddles a queue reattach.
		ackStart := time.Now()
		tags := a.flushTags[:0]
		for i, j := range jobs {
			tags = append(tags, j.d.Tag)
			if i+1 == len(jobs) || jobs[i+1].q != j.q {
				a.ackMultiDelivery(j.q, tags)
				tags = tags[:0]
			}
		}
		a.flushTags = tags
		a.tel.observe(stageAck, time.Since(ackStart))
		a.nudge() // the acks returned credit
	}
	a.recycle(jobs...)
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
	if delay > 0 {
		a.pause(stop, delay)
	}
}

// errStalled is what claimAndApply returns to a lane whose job the
// watchdog took: the lane is the job's straggler.
var errStalled = errors.New("synapse: subscriber apply stalled past watchdog budget")

// stallBudgetCap bounds the stall budget, in multiples of ApplyTimeout.
const stallBudgetCap = 8

// stallBudget is the watchdog time budget for a delivery with the given
// prior failed attempts: ApplyTimeout doubled per attempt, up to
// stallBudgetCap times it. It times the wait for the per-object apply
// locks, and the apply from the claim on — not the version-store window,
// and not a wait for a release.
func (a *App) stallBudget(attempts int) time.Duration {
	budget, max := a.cfg.ApplyTimeout, stallBudgetCap*a.cfg.ApplyTimeout
	for i := 0; i < attempts && budget < max; i++ {
		budget *= 2
	}
	return min(budget, max)
}

// reattachQueue swaps the app onto the restarted broker's rebuilt
// queue handle (the pre-crash handle is permanently defunct). The log
// replays durable queue state but not the volatile consumer tuning
// (watermarks, credits), so the handle is re-tuned either way. If the
// broker crashed again mid-reattach the app keeps its defunct handle;
// the worker loop waits for the broker and retries — never a nil
// queue mid-flight.
func (a *App) reattachQueue() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if q, ok := a.fabric.bus().Queue(a.queueName()); ok {
		a.tuneQueue(q)
		a.queue = q
		return
	}
	// The restarted broker has no such queue (it was never durably
	// declared — e.g. the crash raced the declaration): redeclare.
	if q, err := a.fabric.bus().DeclareQueue(a.queueName(), a.cfg.QueueMaxLen); err == nil {
		a.tuneQueue(q)
		a.queue = q
	}
}

// nudge tells a worker whose refill came up short (processBatch) to
// look again: a job was readied, or acks returned credit. One pending
// token is enough — the worker it wakes takes what its window can start,
// and a stale one costs one look.
func (a *App) nudge() {
	select {
	case a.nudged <- struct{}{}:
	default:
	}
}

// pause is the runtime's one wait: it sleeps d, or until stop closes
// (never, for a nil stop), and reports false on stop.
func (a *App) pause(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
