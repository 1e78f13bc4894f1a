package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/broker"
)

// This file is the subscriber's runtime: the worker pool, each worker's
// lanes and their stall watchdog, the window's executor, the group-commit
// flush and the one stop-aware pause. Every goroutine, timer and sleep
// of the subscriber (subscribe.go) starts here, but a job's DepTimeout.

// StartWorkers launches n subscriber workers processing this app's
// queue in parallel (n <= 0 uses Config.Workers). Workers survive queue
// decommission by recovering the queue and re-bootstrapping. It also
// starts the journal drain (retryJournal), which replays inherited
// entries, republishes deferred ones and retries parked acks — which is
// why a publisher that consumes nothing calls it too.
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
		w.win.refills = true
		a.workersWG.Add(1)
		go func() {
			defer a.workersWG.Done()
			defer w.close()
			w.run(stop, nil)
		}()
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
	// Cancel until every worker exits: several can be between fill's stop
	// check and their fetch, or have reattached to a new queue handle.
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

// worker is one subscriber worker: its apply window and the lanes that
// run what it dispatches, goroutines started with the worker that keep
// the stacks they grew, so a delivery starts none. Bootstrap's drain is
// a worker with one lane whose window does not refill.
type worker struct {
	app     *App
	win     window
	lanes   chan *job      // dispatched: at most depth wait for a lane
	results chan event     // lane results: at most two owed per slot (window)
	exited  sync.WaitGroup // lanes still running; an abandoned one hands its count on
	batch   []*job
	ds      []broker.Delivery // the fetch buffer: jobs copy what they need
}

// newWorker builds a worker and starts its lanes.
func (a *App) newWorker(lanes int) *worker {
	depth := a.cfg.PipelineDepth
	w := &worker{app: a, win: window{depth: depth}, lanes: make(chan *job, depth), results: make(chan event, 2*depth), batch: make([]*job, 0, depth)}
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
// (Config.ApplyTimeout; none at 0): one timer, armed while the job waits
// for its apply locks and from its claim to the end of its apply. If the
// budget (stallBudget) runs out first, the watchdog takes the job —
// stalled, reported failed, a replacement lane started — and the lane
// goes on as its straggler until the callback returns, then exits with
// its result, increments and ack dropped; the apply locks and version
// guard absorb its late write like a redelivered duplicate.
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

// step runs one dispatched job through the driver, reports its result —
// a done one after its group-commit entry, then landed after the flush —
// and false when the watchdog took the job, and with it the result.
func (l *lane) step(j *job) bool {
	w, a := l.w, l.w.app
	j.lane = l
	r := event{kind: evParked, id: j.id, mask: j.mask} // after drive, j may be another worker's, or recycled
	switch st, _ := a.drive(j); st {
	case stateStalled:
		a.retire(j, true)
		return false
	case stateDone:
		a.commits.Add(j)
		r.kind = evDone
	case stateFailed:
		r.kind, r.job = evFailed, j
	}
	w.results <- r
	if r.kind == evDone {
		a.commits.Flush()
		r.kind = evLanded
		w.results <- r
	}
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
	w.results <- event{kind: evFailed, id: j.id, mask: j.mask, job: j}
}

// run is the window's executor: it performs what window.step returns
// and feeds back what came of it — a refill's fetch, a lane's result, a
// stop, a nudge — until the window is over. batch is a hand-built first
// fetch; a pool worker's window starts empty and fetches for itself.
// What ended a refilling is handled before the next fetch that waits.
func (w *worker) run(stop <-chan struct{}, batch []*job) {
	a := w.app
	var (
		q    *broker.Queue
		err  error // the last fetch's
		kept bool  // a failure's nack kept it for another attempt
	)
	for ev := (event{kind: evFetched, jobs: a.decode(batch)}); ; {
		var refill *action
		acts := w.win.step(ev)
		for i := range acts {
			switch act := &acts[i]; act.kind {
			case actDispatch:
				a.tel.pipelineFill.Record(int64(act.n))
				act.job.id = act.id
				w.lanes <- act.job
			case actNack:
				if j := act.job; !act.failed {
					a.move(j, stateFailed)
					a.nack(j.q, j.d.Tag, ackNack)
				} else if !a.nack(j.q, j.d.Tag, ackNackError) {
					kept = true
					a.tel.retries.Add(1)
				}
				a.recycle(act.job)
			case actBackoff:
				if kept {
					a.retryBackoff(act.n, stop)
				}
				kept = false
			case actRefill:
				refill = act
			}
		}
		if refill != nil {
			ev = event{kind: evStop}
			if !refill.wait || a.recoverFetch(q, err, stop) {
				if q, err = w.fill(refill.n, refill.wait, stop); q != nil {
					ev = event{kind: evFetched, jobs: a.decode(w.batch), err: err}
				}
			}
			continue
		}
		if w.win.over() {
			return
		}
		nudged, stopped := a.nudged, stop // a nil channel is never ready
		if !w.win.short {
			nudged = nil // an arrival wakes only consumers blocked in the queue
		}
		if w.win.stopping {
			stopped = nil
		}
		select {
		case ev = <-w.results:
		case <-stopped:
			ev = event{kind: evStop}
		case <-nudged:
			ev = event{kind: evNudge}
		}
	}
}

// recoverFetch handles what ended a refilling — a dead, crashed or closed
// queue, a refused link — and reports false when the worker is done.
func (a *App) recoverFetch(q *broker.Queue, err error, stop <-chan struct{}) bool {
	switch {
	case err == nil, errors.Is(err, broker.ErrCanceled):
	case errors.Is(err, broker.ErrDecommissioned):
		a.recycle(a.retireParked(q)...)
		if a.RecoverQueue() != nil { // e.g. origin gone: retry after a beat
			a.pause(stop, 10*time.Millisecond)
		}
	case errors.Is(err, broker.ErrBrokerDown):
		// Wait out the restart, then swap onto the rebuilt queue handle.
		for a.fabric.bus().Down() {
			if !a.pause(stop, 2*time.Millisecond) {
				return false
			}
		}
		a.recycle(a.retireParked(q)...)
		a.reattachQueue()
	case errors.Is(err, broker.ErrClosed):
		return false
	default: // the link refused the fetch
		a.pause(stop, 5*time.Millisecond)
	}
	return true
}

// fill refills the worker's batch with up to n jobs from the queue it
// returns: nil on a stop, or with no queue. It admits the fetch through
// the simulated network, which refuses it (its error) across a bad link.
// Released jobs come first, older than anything queued; then deliveries,
// waited for only if wait is set and none was released. The take's
// error comes back with what was released.
func (w *worker) fill(n int, wait bool, stop <-chan struct{}) (*broker.Queue, error) {
	a := w.app
	clear(w.batch) // what parked is the parked set's, not this buffer's
	w.batch = w.batch[:0]
	select {
	case <-stop:
		return nil, nil
	default:
	}
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

// flushBatchCap bounds the jobs merged into one group commit; the
// flusher's leader takes another turn for the rest.
const flushBatchCap = 256

// FaultBeforeAckFlush fires in the group-commit flusher after a batch's
// counter increments land and before its coalesced acks flush — the
// crash-redelivery window the ack-after-increment ordering exists for.
const FaultBeforeAckFlush = "subscribe/before-ack-flush"

// flushBatch is the commit flusher's drain, run inline by whichever
// caller of Flush leads (a message completing alone pays no hop and no
// allocation): one group commit of done jobs, their increments in ONE
// IncrOpsMulti round trip, then their acks in ONE AckMulti call, then
// each recycled. Acks flush only after their increments land, so a crash
// between the two leaves the messages unacked for redelivery, whose
// applies the version guard discards as stale. A key bumped by k
// messages advances by k (commit dedups within one message).
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
			// A failed round trip mutates nothing, so no increment landed:
			// a job carrying some goes back as a failed attempt, for
			// redelivery to retry them. The rest ack below.
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
			// Armed crash window: the increments landed, the acks never
			// flush. (Tests arm Fail here, not Crash: a flush runs on a
			// worker goroutine, where a panic is unrecoverable.)
			a.recycle(jobs...)
			return
		}
		// One AckMulti per run of jobs on one queue handle (a reattach).
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

// The redelivery backoff: retryBackoffBase doubled per prior failure,
// up to retryBackoffMax.
const (
	retryBackoffBase = time.Millisecond
	retryBackoffMax  = 100 * time.Millisecond
)

// retryBackoff sleeps before a failed message's redelivery, until stop.
func (a *App) retryBackoff(attempts int, stop <-chan struct{}) {
	delay := retryBackoffMax
	if attempts < 16 { // beyond 2^16 the shift is past any sane cap
		delay = min(delay, retryBackoffBase<<uint(attempts))
	}
	a.pause(stop, delay)
}

// errStalled is what claimAndApply returns to a lane whose job the
// watchdog took: the lane is the job's straggler.
var errStalled = errors.New("synapse: subscriber apply stalled past watchdog budget")

// stallBudgetCap bounds the stall budget, in multiples of ApplyTimeout.
const stallBudgetCap = 8

// stallBudget is the watchdog's budget for a delivery with the given
// prior failed attempts: ApplyTimeout doubled per attempt, up to
// stallBudgetCap times it.
func (a *App) stallBudget(attempts int) time.Duration {
	budget, max := a.cfg.ApplyTimeout, stallBudgetCap*a.cfg.ApplyTimeout
	for i := 0; i < attempts && budget < max; i++ {
		budget *= 2
	}
	return min(budget, max)
}

// reattachQueue swaps the app onto the restarted broker's rebuilt queue
// handle, re-tuned: the log replays queue state, not consumer tuning. If
// the broker crashed again mid-reattach the app keeps its defunct handle
// and the worker retries — never a nil queue mid-flight.
func (a *App) reattachQueue() {
	a.mu.Lock()
	defer a.mu.Unlock()
	q, ok := a.fabric.bus().Queue(a.queueName())
	if !ok {
		// Never durably declared (the crash raced it): redeclare.
		var err error
		if q, err = a.fabric.bus().DeclareQueue(a.queueName(), a.cfg.QueueMaxLen); err != nil {
			return
		}
	}
	a.tuneQueue(q)
	a.queue = q
}

// nudge tells a worker whose refill came up short to look again: a job
// was readied, or acks returned credit. One token is enough.
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
