package core

import (
	"errors"
	"fmt"
	"sort"
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
	cond     *sync.Cond
	cur      uint64
	inflight map[uint64]int
}

func (a *App) genStateFor(origin string) *genState {
	a.mu.Lock()
	defer a.mu.Unlock()
	gs := a.gens[origin]
	if gs == nil {
		gs = &genState{inflight: make(map[uint64]int)}
		gs.cond = sync.NewCond(&gs.mu)
		a.gens[origin] = gs
	}
	return gs
}

// errStaleGeneration marks messages from before a generation flush;
// they are acked and dropped (their state was resynced by bootstrap).
var errStaleGeneration = errors.New("synapse: stale generation message")

// enter blocks until the message's generation is current, running the
// flush barrier if this message moves the generation forward.
func (a *App) enterGeneration(origin string, gen uint64) error {
	gs := a.genStateFor(origin)
	gs.mu.Lock()
	defer gs.mu.Unlock()
	for gen > gs.cur {
		older := 0
		for g, n := range gs.inflight {
			if g < gen {
				older += n
			}
		}
		if older == 0 {
			// Barrier reached: flush and advance (§4.4). The flush
			// clears this app's whole version store; counters for the
			// new generation restart from zero on both sides.
			a.store.Flush()
			gs.cur = gen
			gs.cond.Broadcast()
			break
		}
		gs.cond.Wait()
	}
	if gen < gs.cur {
		return errStaleGeneration
	}
	gs.inflight[gen]++
	return nil
}

func (a *App) exitGeneration(origin string, gen uint64) {
	gs := a.genStateFor(origin)
	gs.mu.Lock()
	gs.inflight[gen]--
	if gs.inflight[gen] <= 0 {
		delete(gs.inflight, gen)
	}
	gs.cond.Broadcast()
	gs.mu.Unlock()
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
	for i := 0; i < n; i++ {
		a.workersWG.Add(1)
		go a.workerLoop(stop)
	}
	// A restarting app may have journal entries from a crashed publish;
	// drain them before (well, concurrently with) serving traffic. A
	// no-op for apps with an empty journal. The drain then repeats every
	// JournalRetryInterval so deferred work retries once the endpoint
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
// messages.
func (a *App) StopWorkers() {
	a.workersMu.Lock()
	stop := a.stopCh
	a.stopCh = nil
	a.workersMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	// Cancel repeatedly until every worker exits: CancelWaiters only
	// wakes consumers already blocked, and a worker can enter GetBatch
	// just after a one-shot cancel (it checks stop at the loop top, then
	// flushes acks and passes the network gate before fetching). The
	// queue handle is also re-read each round — a worker may have
	// reattached to a rebuilt queue after a broker restart.
	done := make(chan struct{})
	go func() {
		a.workersWG.Wait()
		close(done)
	}()
	for {
		if q := a.Queue(); q != nil {
			q.CancelWaiters()
		}
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

func (a *App) workerLoop(stop <-chan struct{}) {
	defer a.workersWG.Done()
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
		prefetch := a.cfg.Prefetch
		if prefetch < a.cfg.PipelineDepth {
			// A pipeline can't fill past what the worker holds.
			prefetch = a.cfg.PipelineDepth
		}
		batch, err := q.GetBatch(prefetch)
		switch {
		case err == nil:
		case errors.Is(err, broker.ErrCanceled):
			continue
		case errors.Is(err, broker.ErrDecommissioned):
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
			a.reattachQueue()
			continue
		default: // closed
			return
		}
		a.processBatch(q, batch, stop)
	}
}

// processBatch works through one prefetched batch of deliveries with a
// bounded in-flight window: up to Config.PipelineDepth deliveries run
// concurrently in this worker, so the decode, dependency wait, version
// claims, and callback of messages N+1..N+k overlap message N's
// 2ms-class callback instead of queueing behind it. A depth of 1 is the
// same loop with a window of one. Order is preserved exactly where it
// matters:
//
//   - Conflicts serialize: each message folds its operations' apply
//     stripes into a 64-bit mask (applyMask); a message is dispatched
//     only when its mask is disjoint from every in-flight message's,
//     so two updates to the same guarded object never race within the
//     worker and dispatch in queue order. Cross-worker ordering is the
//     job of the dependency waits and the per-object version guard.
//   - Completion is group-committed: a finished message does not
//     increment counters or ack inline — it queues both on the
//     per-queue flusher (flushCommits), which merges every message
//     completing in a flush window into ONE IncrOpsMulti round trip
//     followed by ONE AckMulti call. Acks flush strictly after the
//     increments land, so a crash between the two redelivers the
//     messages and the version guard discards the re-applies as stale
//     (the crash-redelivery invariant).
//   - Spill on block: when an in-flight dependency wait is about to
//     block, the undispatched tail of the batch is nacked back to the
//     queue (reverse order, restoring FIFO order) so idle workers can
//     process it — otherwise a prefetched batch whose head waits on
//     another worker's batch serializes the whole pool.
//   - Spill on starvation: if other workers sit idle on an empty queue,
//     the tail is handed back the same way — a batch of slow applies
//     (expensive callbacks) must not serialize in one worker while the
//     pool starves.
//   - Fail to the front: when a message fails (or the worker is
//     stopping), the tail and then the failed deliveries are nacked so
//     the queue front reads [failed..., rest...]; a worker never sits
//     on later messages while an earlier one needs redelivery (which
//     could deadlock a single-worker causal subscriber on its own
//     prefetch). Failures go through the failure-counting nack: after
//     Config.MaxDeliveryAttempts the broker sets the message aside
//     (dead-letter) so a poison message cannot wedge the pool; until
//     then the worker backs off exponentially before it looks at the
//     queue again, so redelivery does not spin on a persistent fault.
func (a *App) processBatch(q *broker.Queue, batch []broker.Delivery, stop <-chan struct{}) {
	depth := a.cfg.PipelineDepth
	type result struct {
		d    broker.Delivery
		mask uint64
		err  error
	}
	results := make(chan result, len(batch))
	blockedCh := make(chan struct{}, 1)
	noteBlocked := func() {
		select {
		case blockedCh <- struct{}{}:
		default:
		}
	}
	var wg sync.WaitGroup
	var (
		next         int
		inflight     int
		inflightMask uint64
		stopping     bool
		spilled      bool
		failures     []broker.Delivery
		maxAttempts  int
		pending      *wire.Message // decoded but blocked on a stripe conflict
		pendingMask  uint64
	)
	// spillTail nacks every undispatched delivery back to the queue in
	// reverse order (Nack pushes front, so reversal restores FIFO order)
	// and stops further dispatch.
	spillTail := func() {
		if !spilled {
			spilled = true
			for j := len(batch) - 1; j >= next; j-- {
				a.nackDelivery(q, batch[j].Tag)
			}
			next = len(batch)
			if pending != nil {
				wire.ReleaseMessage(pending)
				pending = nil
			}
		}
	}
	for {
		// Dispatch while there is capacity and nothing diverted the batch.
		for !stopping && !spilled && len(failures) == 0 && next < len(batch) && inflight < depth {
			select {
			case <-stop:
				stopping = true
			default:
			}
			if stopping {
				break
			}
			d := batch[next]
			if pending == nil {
				if d.Redelivered {
					a.redelivered.Inc()
				}
				decodeStart := time.Now()
				msg, derr := wire.UnmarshalPooled(d.Payload)
				a.Stages.Observe(StageDecode, time.Since(decodeStart))
				if derr != nil {
					// Poison message: ack (coalesced) and drop it rather
					// than loop forever.
					a.enqueueFlush(flushEntry{q: q, tag: d.Tag})
					a.flushCommits()
					next++
					continue
				}
				pending = msg
				pendingMask = a.applyMask(msg)
			}
			if pendingMask&inflightMask != 0 {
				break // shared apply stripe: wait for the earlier message
			}
			msg, mask := pending, pendingMask
			pending = nil
			next++
			inflight++
			inflightMask |= mask
			a.PipelineFill.Record(int64(inflight))
			wg.Add(1)
			go func() {
				defer wg.Done()
				incr, err := a.consumeDecodedGuarded(d, msg, stop, noteBlocked)
				if err == nil {
					a.enqueueFlush(flushEntry{q: q, tag: d.Tag, incr: incr})
				}
				results <- result{d: d, mask: mask, err: err}
				if err == nil {
					a.flushCommits()
				}
			}()
			// Spill on starvation: a batch of slow applies must not hold
			// work this worker cannot start while the pool sits idle.
			if next < len(batch) && q.Starving() {
				spillTail()
			}
		}
		if inflight == 0 {
			break
		}
		select {
		case r := <-results:
			inflight--
			inflightMask &^= r.mask
			if r.err != nil {
				failures = append(failures, r.d)
				if r.d.Attempts > maxAttempts {
					maxAttempts = r.d.Attempts
				}
			}
		case <-blockedCh:
			// An in-flight dependency wait blocked: hand the undispatched
			// tail to idle workers (spill-on-block); the pipeline itself
			// keeps running — later independent messages may be exactly
			// what the blocked wait needs.
			spillTail()
		case <-stop:
			stopping = true
		}
	}
	wg.Wait() // group commits of completed messages have landed
	if pending != nil {
		wire.ReleaseMessage(pending)
		pending = nil
	}
	if stopping || len(failures) > 0 {
		spillTail()
	}
	if len(failures) > 0 {
		// Fail to the front, after the tail: the failure-counting nacks
		// push last so the queue front reads [failed..., rest...].
		alive := false
		for _, d := range failures {
			if !a.nackErrorDelivery(q, d.Tag) {
				alive = true
				a.retries.Inc()
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
		mask |= 1 << uint(a.applyStripe(msg.Operations[i].ObjectDep))
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
// bound (the flush loop just takes another turn).
const flushBatchCap = 256

// FaultBeforeAckFlush fires in the group-commit flusher after a batch's
// counter increments land and before its coalesced acks flush — the
// crash-redelivery window the ack-after-increment ordering exists for.
const FaultBeforeAckFlush = "subscribe/before-ack-flush"

func (a *App) enqueueFlush(e flushEntry) {
	a.flushMu.Lock()
	a.flushQ = append(a.flushQ, e)
	a.flushMu.Unlock()
}

// flushCommits drains the group-commit queue. Whichever goroutine wins
// the flushing flag becomes the flusher and loops until the queue is
// empty; losers return immediately — their entries are guaranteed to
// be taken by the active flusher (it re-checks the queue after
// releasing the flag, closing the lost-wakeup window). There is no
// timer: the flush's own round trip is the batching window, so an idle
// queue pays zero added latency and a busy one batches naturally —
// every message completing during flush N rides in flush N+1.
func (a *App) flushCommits() {
	for {
		if !a.flushing.CompareAndSwap(false, true) {
			return
		}
		for {
			a.flushMu.Lock()
			pend := a.flushQ
			if len(pend) == 0 {
				a.flushMu.Unlock()
				break
			}
			var entries []flushEntry
			if len(pend) > flushBatchCap {
				entries = pend[:flushBatchCap:flushBatchCap]
				a.flushQ = pend[flushBatchCap:]
			} else {
				entries = pend
				a.flushQ = nil
			}
			a.flushMu.Unlock()
			a.flushBatch(entries)
		}
		a.flushing.Store(false)
		a.flushMu.Lock()
		again := len(a.flushQ) > 0
		a.flushMu.Unlock()
		if !again {
			return
		}
		// Entries landed between the last drain check and the flag
		// release; their enqueuers lost the CAS, so take another turn.
	}
}

// flushBatch lands one group commit: every entry's counter increments
// in ONE IncrOpsMulti round trip, then every entry's broker ack in ONE
// AckMulti call. The order is the invariant: acks flush only after
// their increments land, so a crash between the two leaves the
// messages unacked, the broker redelivers them, and the per-object
// version guard discards the duplicate applies as stale. A key bumped
// by k messages in the window advances by k — within one message keys
// are deduped (IncrOps semantics, done at defer time).
func (a *App) flushBatch(entries []flushEntry) {
	flushStart := time.Now()
	a.FlushBatchSize.Record(int64(len(entries)))
	var counts map[vstore.Key]uint64
	for _, e := range entries {
		for _, k := range e.incr {
			if counts == nil {
				counts = make(map[vstore.Key]uint64, len(entries))
			}
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
		ackStart := time.Now()
		if oneQueue(entries) {
			tags := make([]uint64, len(entries))
			for i, e := range entries {
				tags[i] = e.tag
			}
			a.ackMultiDelivery(entries[0].q, tags)
		} else {
			// A batch straddling a queue reattach: one AckMulti per handle.
			byQ := make(map[*broker.Queue][]uint64)
			for _, e := range entries {
				byQ[e.q] = append(byQ[e.q], e.tag)
			}
			for q, tags := range byQ {
				a.ackMultiDelivery(q, tags)
			}
		}
		a.Stages.Observe(StageAck, time.Since(ackStart))
	}
	a.Stages.Observe(StageFlush, time.Since(flushStart))
}

// oneQueue reports whether every entry rides the same queue handle
// (the overwhelmingly common case — avoids a map allocation per flush).
func oneQueue(entries []flushEntry) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i].q != entries[0].q {
			return false
		}
	}
	return true
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

// stallBudget is the watchdog time budget for a delivery with the given
// prior failed attempts: ApplyTimeout doubled per attempt (capped at
// ApplyTimeoutMax), plus the finite DepTimeout allowance — a bounded
// causal dependency wait is not a stall, so the watchdog arms after
// that allowance on top of the apply budget. Under WaitForever no
// allowance is added: there the watchdog is exactly what bounds an
// otherwise unbounded wait (the wait observes the cancel channel and
// exits cleanly).
func (a *App) stallBudget(attempts int) time.Duration {
	budget := a.cfg.ApplyTimeout
	for i := 0; i < attempts && budget < a.cfg.ApplyTimeoutMax; i++ {
		budget *= 2
	}
	if budget > a.cfg.ApplyTimeoutMax {
		budget = a.cfg.ApplyTimeoutMax
	}
	if a.cfg.DepTimeout > 0 && a.cfg.DepTimeout != WaitForever {
		budget += a.cfg.DepTimeout
	}
	return budget
}

// consumeDecoded processes one already-decoded message, returning the
// deferred counter-increment keys for the group-commit flusher. It
// takes ownership of msg and releases it back to the decode pool.
func (a *App) consumeDecoded(msg *wire.Message, cancel <-chan struct{}, onBlock func()) ([]vstore.Key, error) {
	incr, err := a.processMessageDefer(msg, cancel, onBlock, true)
	wire.ReleaseMessage(msg)
	if errors.Is(err, errStaleGeneration) {
		return nil, nil
	}
	return incr, err
}

// consumeDecodedGuarded runs consumeDecoded under the per-delivery stall
// watchdog (Config.ApplyTimeout; disabled at 0, where it falls through
// with no extra goroutine). The budget escalates with the message's
// prior failed attempts — doubling each time, capped at ApplyTimeoutMax
// — so transiently slow applies get a longer second chance while a
// truly hung callback still exhausts MaxDeliveryAttempts and
// quarantines to the dead-letter set-aside. A timed-out apply is
// abandoned: its private cancel channel is closed (dependency waits
// observe it), a short grace wait lets a responsive callback surface
// its result, and then the delivery is failed so the worker moves on.
// The abandoned goroutine may straggle and eventually write; the apply
// stripes plus the per-object version guard absorb that exactly as they
// absorb redelivered duplicates. A straggler's increments are dropped
// along with its ack — the redelivered attempt re-applies and
// re-increments, which the version guard and at-least-once counting
// semantics absorb.
func (a *App) consumeDecodedGuarded(d broker.Delivery, msg *wire.Message, stop <-chan struct{}, onBlock func()) ([]vstore.Key, error) {
	if a.cfg.ApplyTimeout <= 0 {
		return a.consumeDecoded(msg, stop, onBlock)
	}
	budget := a.stallBudget(d.Attempts)
	cancel := make(chan struct{})
	type outcome struct {
		incr []vstore.Key
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		incr, err := a.consumeDecoded(msg, cancel, onBlock)
		done <- outcome{incr, err}
	}()
	t := time.NewTimer(budget)
	defer t.Stop()
	var reason error
	select {
	case out := <-done:
		return out.incr, out.err
	case <-stop:
		reason = errWaitInterrupted
	case <-t.C:
		reason = errStalled
	}
	close(cancel)
	grace := budget / 4
	if grace < time.Millisecond {
		grace = time.Millisecond
	}
	g := time.NewTimer(grace)
	defer g.Stop()
	select {
	case out := <-done:
		return out.incr, out.err
	case <-g.C:
	}
	if errors.Is(reason, errStalled) {
		a.stalled.Inc()
	}
	return nil, reason
}

// consume decodes and processes one message payload synchronously,
// increments inline — bootstrap's live-queue drain, outside the
// workers' windowed loop.
func (a *App) consume(payload []byte) error {
	decodeStart := time.Now()
	msg, err := wire.UnmarshalPooled(payload)
	a.Stages.Observe(StageDecode, time.Since(decodeStart))
	if err != nil {
		// Poison message: drop it loudly rather than loop forever.
		return nil
	}
	_, err = a.processMessageDefer(msg, nil, nil, false)
	// The processing pipeline copies attribute values into records and
	// never retains the message, so it can go back to the decode pool.
	wire.ReleaseMessage(msg)
	if errors.Is(err, errStaleGeneration) {
		return nil
	}
	return err
}

// ProcessMessage applies one write message with the delivery semantics
// configured for its origin. Exported for the synchronous processing
// used by bootstrap and tests.
func (a *App) ProcessMessage(msg *wire.Message) error {
	_, err := a.processMessageDefer(msg, nil, nil, false)
	return err
}

// processMessageDefer applies one message, with the group-commit split:
// with deferIncr set, a causal message's counter increments are NOT
// applied inline — the due keys are returned for the caller to hand to
// the per-queue flusher, which merges them across messages into one
// IncrOpsMulti round trip. The returned keys are resolved values with
// no reference into msg, so they outlive ReleaseMessage.
func (a *App) processMessageDefer(msg *wire.Message, cancel <-chan struct{}, onBlock func(), deferIncr bool) ([]vstore.Key, error) {
	origin := msg.App
	// Bootstrap watermark control messages carry no object state: they
	// only flip the in-flight chunk window's state (and are ignored
	// entirely when no chunked bootstrap from this origin is running —
	// other subscribers' watermarks fan out to every queue bound to the
	// origin's exchange). Intercepted before the generation barrier so a
	// publisher recovery mid-bootstrap cannot strand the window wait.
	if id, kind, ok := wire.WatermarkOf(msg); ok {
		a.noteWatermark(origin, id, kind)
		return nil, nil
	}
	barrierStart := time.Now()
	err := a.enterGeneration(origin, msg.Generation)
	a.Stages.Observe(StageBarrier, time.Since(barrierStart))
	if err != nil {
		return nil, err
	}
	defer a.exitGeneration(origin, msg.Generation)

	mode := a.originMode(origin)
	if a.Bootstrapping() {
		return a.processBootstrapMessage(msg, deferIncr)
	}

	switch mode {
	case Weak:
		return nil, a.processWeak(msg)
	default:
		return a.processCausal(msg, mode, cancel, onBlock, deferIncr)
	}
}

// errWaitInterrupted marks a dependency wait abandoned because the
// worker is stopping or the queue was decommissioned; the message is
// nacked back and handled after recovery.
var errWaitInterrupted = errors.New("synapse: dependency wait interrupted")

// originMode returns the strongest delivery mode among this app's
// subscriptions from the origin.
func (a *App) originMode(origin string) DeliveryMode {
	a.mu.RLock()
	defer a.mu.RUnlock()
	mode := Weak
	for _, origins := range a.subs {
		if ss, ok := origins[origin]; ok && ss.mode > mode {
			mode = ss.mode
		}
	}
	return mode
}

// processCausal implements the subscriber algorithm of §4.2: wait until
// every dependency's ops counter reaches the version in the message,
// apply the operations, then increment the ops counters. Global mode
// additionally respects the global-object dependency, which causal mode
// ignores (it only appears when the publisher runs in global mode).
//
// The hot path runs batched: one WaitAtLeastMulti waiter for the whole
// dependency map, one ApplyBatch claim window for all operations, one
// IncrOps window — three round-trip plans per message instead of one
// round trip per dependency key. With deferIncr the third plan is
// lifted out entirely: the due increment keys are returned (deduped)
// for the group-commit flusher, which merges them across messages.
func (a *App) processCausal(msg *wire.Message, mode DeliveryMode, cancel <-chan struct{}, onBlock func(), deferIncr bool) ([]vstore.Key, error) {
	timeout := a.cfg.DepTimeout
	deps, err := msg.Deps()
	if err != nil {
		return nil, err
	}
	var globalKey vstore.Key
	skipGlobal := mode < Global && msg.GlobalDep != ""
	if skipGlobal {
		globalKey = a.tracker.Resolve(msg.GlobalDep)
	}

	// One request map for the whole message: hashed dependency versions,
	// exact dots (resolved through this app's tracker — a hash
	// subscriber folds a DVV publisher's names into its own key space, a
	// DVV subscriber interns them), and external dependency minimums
	// (decorator cross-app causality — waited, never incremented).
	// Requirements landing on the same key are max-merged, which is
	// equivalent to waiting on each entry in turn.
	reqs := make(map[vstore.Key]uint64, len(deps)+len(msg.Dots)+len(msg.External))
	incr := make([]vstore.Key, 0, len(deps)+len(msg.Dots))
	for k, minVersion := range deps {
		key := vstore.Key(k)
		if skipGlobal && key == globalKey {
			continue
		}
		reqs[key] = minVersion
		incr = append(incr, key)
	}
	for name, minVersion := range msg.Dots {
		key := a.tracker.Resolve(name)
		if skipGlobal && key == globalKey {
			continue
		}
		if minVersion > reqs[key] {
			reqs[key] = minVersion
		}
		incr = append(incr, key)
	}
	for depKey, minOps := range msg.External {
		k := a.tracker.Resolve(depKey)
		if minOps > reqs[k] {
			reqs[k] = minOps
		}
	}

	waitStart := time.Now()
	blocked, werr := a.waitDepsMulti(reqs, timeout, cancel, onBlock)
	waited := time.Since(waitStart)
	a.Stages.Observe(StageDepWait, waited)
	if blocked {
		a.depWaitsBlocked.Inc()
		a.DepWaitBlocked.Record(int64(waited))
	}
	if werr != nil && !errors.Is(werr, vstore.ErrTimeout) {
		return nil, werr
	}
	// On ErrTimeout: §6.5 — give up waiting for late or lost messages and
	// process anyway, trading consistency for availability; the per-object
	// guard in the apply discards stale versions, weak-style.
	if werr != nil {
		a.noteDepTimeout(werr)
	} else if blocked {
		a.noteFalseDeps(msg, reqs)
	}

	applyStart := time.Now()
	if err := a.applyOpsBatched(msg); err != nil {
		return nil, err
	}
	a.recordDepWriters(msg)
	// The bootstrap Seq boundary outlives Bootstrapping(): a message
	// published before the version snapshot has its bumps bulk-loaded
	// already, and re-incrementing (e.g. backlog prefetched during the
	// bootstrap but processed after it) would push this store's counters
	// past the publisher's, making every later guarded apply look stale.
	var deferred []vstore.Key
	if msg.Seq > a.bootSeqFor(msg.App) {
		if deferIncr {
			// Group commit: the flusher counts each message's DISTINCT
			// keys once (IncrOps semantics), so dedup here, where the
			// per-message set is small and hot in cache.
			deferred = dedupKeys(incr)
		} else if err := a.store.IncrOps(incr); err != nil {
			return nil, err
		}
	}
	a.Stages.Observe(StageApply, time.Since(applyStart))
	a.Processed.Add(1)
	a.recordApplied(msg)
	return deferred, nil
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

// waitDepsMulti waits for a message's whole dependency map: one
// registered waiter and one pipelined check per round, sliced so a
// worker blocked on a dependency that will never arrive (lost message,
// §6.5) can observe shutdown and queue decommission instead of hanging
// forever. onBlock (may be nil) fires once, before the first round that
// actually blocks. The returned bool reports whether the wait actually
// blocked (the initial non-blocking probe failed) — the signal behind
// Stats.DepWaitsBlocked and the false-dependency estimate.
func (a *App) waitDepsMulti(reqs map[vstore.Key]uint64, timeout time.Duration, cancel <-chan struct{}, onBlock func()) (bool, error) {
	// Probe without blocking: the common case (every dependency already
	// satisfied) answers in one pipelined round trip, and a failed probe
	// marks the wait as genuinely blocked — the signal for spilling the
	// rest of a prefetched batch (onBlock) to idle workers.
	err := a.store.WaitAtLeastMulti(reqs, 0)
	if err == nil || !errors.Is(err, vstore.ErrTimeout) {
		return false, err
	}
	if timeout == 0 {
		// Zero timeout degrades immediately (§6.5 weak-like processing).
		return false, a.describeDepTimeout(err)
	}
	if onBlock != nil {
		onBlock()
	}
	const slice = 100 * time.Millisecond
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		step := slice
		if timeout > 0 {
			if rem := time.Until(deadline); rem < step {
				step = rem
			}
		}
		err := a.store.WaitAtLeastMulti(reqs, step)
		if err == nil || !errors.Is(err, vstore.ErrTimeout) {
			return true, err
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return true, a.describeDepTimeout(err)
		}
		select {
		case <-cancel:
			return true, errWaitInterrupted
		default:
		}
		if q := a.Queue(); q != nil && q.Dead() {
			// The queue died while we waited; abandon the message so
			// the worker can run the recovery path.
			return true, errWaitInterrupted
		}
	}
}

// applyStripe returns the per-object apply lock for a dependency key.
// A version claim and its DB write must be atomic per object: without
// the lock, a worker preempted between winning the claim and persisting
// the row can write stale data after a newer version already landed —
// and since the guard has recorded the newer version, no redelivery ever
// repairs it (permanent divergence under weak/degraded processing).
func (a *App) applyStripe(depKey string) int {
	h := uint32(2166136261)
	for i := 0; i < len(depKey); i++ {
		h ^= uint32(depKey[i])
		h *= 16777619
	}
	return int(h % uint32(len(a.applyLocks)))
}

// lockApplyStripes acquires the apply stripes for the given dependency
// keys in index order (deduplicated), returning the unlock function.
// Index ordering makes concurrent multi-op messages deadlock-free, the
// same protocol the version store uses for its shards.
func (a *App) lockApplyStripes(depKeys []string) func() {
	var seen [64]bool
	idx := make([]int, 0, len(depKeys))
	for _, k := range depKeys {
		i := a.applyStripe(k)
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		a.applyLocks[i].Lock()
	}
	return func() {
		for j := len(idx) - 1; j >= 0; j-- {
			a.applyLocks[idx[j]].Unlock()
		}
	}
}

// applyOpsBatched claims every guarded operation's object version in one
// ApplyBatch round trip, then applies the operations in order. A claim
// that loses (stale version) skips its operation: weak-mode
// last-writer-wins and duplicate redelivery. If a DB apply fails
// mid-message, every fresh claim from the failed operation onward is
// rolled back so the redelivered message re-applies exactly the
// unapplied operations — operations already persisted keep their claims
// and are skipped as stale on redelivery (no double-apply). The apply
// stripes for every guarded object are held from the claim window
// through the last DB write (see applyStripe).
func (a *App) applyOpsBatched(msg *wire.Message) error {
	claims := make([]vstore.Claim, 0, len(msg.Operations))
	idx := make([]int, 0, len(msg.Operations))
	depKeys := make([]string, 0, len(msg.Operations))
	for i := range msg.Operations {
		op := &msg.Operations[i]
		v, guarded := a.objectVersion(msg, op)
		if !guarded {
			continue
		}
		claims = append(claims, vstore.Claim{Key: a.tracker.Resolve(op.ObjectDep), Version: v})
		idx = append(idx, i)
		depKeys = append(depKeys, op.ObjectDep)
	}
	unlock := a.lockApplyStripes(depKeys)
	defer unlock()
	results, err := a.store.ApplyBatch(claims)
	if err != nil {
		return err
	}
	claimed := make(map[int]vstore.ClaimResult, len(claims))
	for ci := range claims {
		claimed[idx[ci]] = results[ci]
	}
	for i := range msg.Operations {
		op := &msg.Operations[i]
		if r, guarded := claimed[i]; guarded && !r.Applied {
			continue // stale update: skip to the latest version
		}
		if err := a.applyOp(msg.App, op); err != nil {
			for j := i; j < len(msg.Operations); j++ {
				if rj, ok := claimed[j]; ok && rj.Applied {
					v, _ := a.objectVersion(msg, &msg.Operations[j])
					_ = a.store.RestoreVersion(a.tracker.Resolve(msg.Operations[j].ObjectDep), v, rj.Prev)
				}
			}
			return err
		}
	}
	return nil
}

// recordApplied emits a timeline event for the execution-sample figures.
func (a *App) recordApplied(msg *wire.Message) {
	if a.Timeline == nil {
		return
	}
	label := fmt.Sprintf("from=%s seq=%d", msg.App, msg.Seq)
	if len(msg.Operations) > 0 {
		op := msg.Operations[0]
		label = fmt.Sprintf("from=%s %s %s/%s", msg.App, op.Operation, op.Model(), op.ID)
	}
	a.Timeline.Record(a.name, "synapse-sub", label)
}

// processWeak implements weak delivery: per-object last-writer-wins,
// discarding messages older than what the store has seen (§4.2).
func (a *App) processWeak(msg *wire.Message) error {
	applyStart := time.Now()
	if err := a.applyOpsBatched(msg); err != nil {
		return err
	}
	a.Stages.Observe(StageApply, time.Since(applyStart))
	a.Processed.Add(1)
	a.recordApplied(msg)
	return nil
}

// objectVersion computes the object's post-write version from the
// message dependencies (the embedded value is version−1 for writes).
// The object's token lives in Dependencies (hash publisher) or Dots
// (DVV publisher) depending on the origin's tracker.
func (a *App) objectVersion(msg *wire.Message, op *wire.Operation) (uint64, bool) {
	if v, ok := msg.Dependencies[op.ObjectDep]; ok {
		return v + 1, true
	}
	if v, ok := msg.Dots[op.ObjectDep]; ok {
		return v + 1, true
	}
	return 0, false
}

func keyOf(depKey string) vstore.Key {
	k, _ := wire.ParseDepKey(depKey)
	return vstore.Key(k)
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

// noteDepTimeout records a dependency wait that gave up (§6.5), keeping
// the rendered error for Stats.LastDepTimeout.
func (a *App) noteDepTimeout(err error) {
	a.depTimeouts.Inc()
	a.lastDepTimeoutMu.Lock()
	a.lastDepTimeout = err.Error()
	a.lastDepTimeoutMu.Unlock()
}

// noteFalseDeps runs after a wait that blocked and then resolved: for
// each of this message's own objects whose dependency key was actually
// waited on, if the last write recorded under that key came from a
// DIFFERENT (origin, model, id), the block was at least partly a false
// dependency — an unrelated name hashing onto the same key. Under the
// DVV tracker keys are per-name, so the estimate is structurally zero.
func (a *App) noteFalseDeps(msg *wire.Message, reqs map[vstore.Key]uint64) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		k := a.tracker.Resolve(op.ObjectDep)
		if need, waited := reqs[k]; !waited || need == 0 {
			continue
		}
		if last, ok := a.lastDepWriter(k); ok && last != opFingerprint(msg.App, op.Model(), op.ID) {
			a.falseDeps.Inc()
		}
	}
}

// recordDepWriters notes each applied operation as the last writer of
// its object key — the evidence noteFalseDeps compares future blocked
// waits against.
func (a *App) recordDepWriters(msg *wire.Message) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		a.recordDepWriter(a.tracker.Resolve(op.ObjectDep), opFingerprint(msg.App, op.Model(), op.ID))
	}
}

// applyOp persists (or observes) a single operation if this app
// subscribes to its model from the message's origin. Irrelevant
// operations are skipped — but the message's dependency counters are
// still maintained by the caller, since later messages may depend on
// them.
func (a *App) applyOp(origin string, op *wire.Operation) error {
	if err := a.faults.Fire(FaultApply); err != nil {
		return err
	}
	modelName, spec := a.matchSubscription(origin, op.Types)
	if spec == nil {
		return nil
	}
	desc, ok := a.Descriptor(modelName)
	if !ok {
		return fmt.Errorf("synapse: subscribed model %s has no descriptor", modelName)
	}

	switch op.Operation {
	case wire.OpDestroy:
		if spec.observer {
			rec := model.NewRecord(modelName, op.ID)
			for attr := range spec.attrs {
				if v, ok := op.Attributes[attr]; ok {
					rec.Set(attr, v)
				}
			}
			return a.observe(desc, rec, model.BeforeDestroy, model.AfterDestroy)
		}
		err := a.mapper.Delete(modelName, op.ID)
		if errors.Is(err, storage.ErrNotFound) {
			return nil // deletes are idempotent on subscribers
		}
		return err
	default:
		rec := model.NewRecord(modelName, op.ID)
		for attr := range spec.attrs {
			v, ok := op.Attributes[attr]
			if !ok {
				continue
			}
			// Virtual attribute setters adapt mismatched schemas
			// (Example 3); plain attributes are assigned directly.
			if err := model.WriteValue(desc, rec, attr, v); err != nil {
				return err
			}
		}
		if spec.observer {
			before, after := model.BeforeCreate, model.AfterCreate
			if op.Operation == wire.OpUpdate {
				before, after = model.BeforeUpdate, model.AfterUpdate
			}
			return a.observe(desc, rec, before, after)
		}
		return a.mapper.Save(rec)
	}
}

// observe runs callbacks for a non-persisted (observer) model.
func (a *App) observe(desc *model.Descriptor, rec *model.Record, before, after model.Hook) error {
	ctx := &model.CallbackCtx{Record: rec, Bootstrapping: a.Bootstrapping(), Env: a.Env()}
	if err := desc.Callbacks.Run(before, ctx); err != nil {
		return err
	}
	return desc.Callbacks.Run(after, ctx)
}

// matchSubscription resolves the most-derived subscribed model for the
// operation's type chain (polymorphic consumption, §4.1).
func (a *App) matchSubscription(origin string, types []string) (string, *subSpec) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, t := range types {
		if ss, ok := a.subs[t][origin]; ok {
			return t, ss
		}
	}
	return "", nil
}
