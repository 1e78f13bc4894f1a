// Package broker implements the reliable publish/subscribe message
// broker Synapse rides on (RabbitMQ in the paper's deployment, §4).
//
// Topology follows the paper: each publisher app owns a fanout exchange;
// each subscriber app owns one durable queue bound to the exchanges of
// every publisher it subscribes to. Queue messages are consumed by many
// workers in parallel, acked after persistence, and redelivered on nack.
//
// Two failure behaviours from the paper are modelled directly:
//
//   - Queue-length decommission (§4.4): if a subscriber stays down and
//     its queue exceeds its limit, the broker kills the queue; the
//     subscriber must partial-bootstrap when it returns.
//   - Message loss (§6.5): even reliable brokers lose messages in rare
//     operational events (the RabbitMQ upgrade incident). An injectable
//     loss function drops messages between exchange and queue so the
//     recovery paths can be exercised.
package broker

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"synapse/internal/faultinject"
)

// FaultBrokerDrop is the named fault site consulted once per (queue,
// message) delivery: an armed fault that returns an error drops the
// message between the exchange and that queue, modelling the rare
// message-loss events of §6.5 deterministically (SetLoss remains for
// probabilistic loss).
const FaultBrokerDrop = "broker/drop"

// Errors returned by queue operations.
var (
	ErrClosed         = errors.New("broker: queue closed")
	ErrDecommissioned = errors.New("broker: queue decommissioned")
	ErrUnknownQueue   = errors.New("broker: unknown queue")
	ErrBadTag         = errors.New("broker: unknown delivery tag")
	ErrCanceled       = errors.New("broker: consume canceled")
	// ErrBrokerDown is returned by every operation — publishes, consumes,
	// acks — between Crash() and Restart(), and forever by queue handles
	// obtained before a crash (a reconnecting consumer must re-fetch its
	// queue from the restarted broker).
	ErrBrokerDown = errors.New("broker: broker is down")
)

// Delivery is one message handed to a consumer. It must be Acked or
// Nacked on its queue.
type Delivery struct {
	Payload     []byte
	Tag         uint64
	Redelivered bool
	Exchange    string
	// Attempts counts prior FAILED processing attempts (NackError calls)
	// for this message — 0 on first delivery. Hand-backs via Nack do
	// not count. Consumers use it to scale their retry backoff.
	Attempts int
}

// Pressure is a queue's overload signal to its publishers. It is the
// soft counterpart of the §4.4 decommission cliff: past the high
// watermark the queue asks publishers to defer their sends long before
// the hard maxLen bound would cut the subscriber off.
type Pressure int

const (
	// PressureNormal: the queue is not inside a high-watermark episode.
	PressureNormal Pressure = iota
	// PressureHigh: depth (pending + unacked) reached the soft high
	// watermark and has not yet drained back to the low watermark.
	// Depth hysteresis is the whole signal.
	PressureHigh
)

// LossFunc decides whether to drop a message on its way into a queue.
// It runs under the broker's lock and must not call back into it.
type LossFunc func(queue, exchange string, payload []byte) bool

// Broker routes published messages from exchanges to bound queues.
type Broker struct {
	// mu orders publishes: the log append and the fan-out to the bound
	// queues happen under it, so every queue sees arrivals in log order
	// and a Bind lands at a definite log position.
	mu        sync.Mutex
	bindings  map[string][]*Queue // exchange -> queues
	queues    map[string]*Queue
	loss      LossFunc
	faults    *faultinject.Registry
	published int64
	down      bool
	log       *msgLog
	// disk holds the cursor states between Crash and Restart: with the
	// log, everything a process death leaves behind.
	disk map[string]*QueueState
	// truncateHook, when set, observes every truncation (tests).
	truncateHook func(head uint64, lows map[string]uint64)
}

// New returns an empty broker.
func New() *Broker {
	return &Broker{
		bindings: make(map[string][]*Queue),
		queues:   make(map[string]*Queue),
		log:      &msgLog{},
	}
}

// Crash models broker process death: every operation fails with
// ErrBrokerDown, and every outstanding queue handle — including
// consumers blocked in GetBatch — is woken with ErrBrokerDown. Handles,
// delivery tags, waiters, in-flight-ness, hand-back order, credit and
// watermark tuning all die; only the log and each queue's QueueState
// (the modelled disk) survive, and Restart rebuilds from them.
func (b *Broker) Crash() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return
	}
	b.down = true
	b.disk = make(map[string]*QueueState, len(b.queues))
	for name, q := range b.queues {
		b.disk[name] = q.crash()
	}
	b.queues = make(map[string]*Queue)
	b.bindings = make(map[string][]*Queue)
}

// Restart brings a crashed broker back from the log and the cursor
// states: pending messages reappear in publish order,
// delivered-but-unsettled messages return to the front of their queues
// flagged Redelivered (their ack was lost with the crash), dead-letter
// parks, failure counts and cumulative counters survive, and acked
// messages stay gone. Pre-crash queue handles and delivery tags remain
// invalid; consumers must re-fetch their queue.
func (b *Broker) Restart() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.down {
		return
	}
	// Sorted, so the fan-out order of an exchange is the same after every
	// restart.
	names := make([]string, 0, len(b.disk))
	for name := range b.disk {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q := restoreQueue(b, name, b.disk[name])
		b.queues[name] = q
		for _, bd := range q.st.bound {
			b.bindings[bd.exchange] = append(b.bindings[bd.exchange], q)
		}
	}
	b.disk = nil
	b.down = false
}

// Down reports whether the broker is crashed.
func (b *Broker) Down() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.down
}

// LogSegments reports how many log segments are retained. Once every
// queue has drained it is at most one.
func (b *Broker) LogSegments() int { return b.log.segments() }

// SetTruncateHook installs a test observer called after every
// truncation with the new log head and each live queue's low-water
// mark, re-read after the drop. The invariant it exists to check: no
// mark is ever below the head.
func (b *Broker) SetTruncateHook(f func(head uint64, lows map[string]uint64)) {
	b.mu.Lock()
	b.truncateHook = f
	b.mu.Unlock()
}

// SetLoss installs (or clears, with nil) the loss-injection function.
func (b *Broker) SetLoss(f LossFunc) {
	b.mu.Lock()
	b.loss = f
	b.mu.Unlock()
}

// SetFaults installs (or clears, with nil) a fault-injection registry;
// Publish fires FaultBrokerDrop on it once per queue delivery.
func (b *Broker) SetFaults(r *faultinject.Registry) {
	b.mu.Lock()
	b.faults = r
	b.mu.Unlock()
}

// DeclareQueue creates (or returns) the named durable queue. maxLen <= 0
// means unbounded; otherwise exceeding maxLen pending messages
// decommissions the queue (§4.4).
// Fails with ErrBrokerDown while the broker is crashed; callers must
// retry (or park) rather than proceed with a missing queue.
func (b *Broker) DeclareQueue(name string, maxLen int) (*Queue, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return nil, ErrBrokerDown
	}
	if q, ok := b.queues[name]; ok {
		return q, nil
	}
	q := restoreQueue(b, name, &QueueState{maxLen: maxLen, next: b.log.tail.Load()})
	b.queues[name] = q
	return q, nil
}

// ExchangePressure reports the worst overload signal across the queues
// bound to an exchange — the publisher-side view of backpressure: a
// fanout publisher must degrade if ANY of its subscribers is drowning.
// A crashed broker reports PressureNormal; the publish itself will fail
// with ErrBrokerDown and take the journal-and-defer path anyway.
func (b *Broker) ExchangePressure(exchange string) Pressure {
	b.mu.Lock()
	// Copy-on-write bindings: safe to iterate after the unlock.
	qs := b.bindings[exchange]
	b.mu.Unlock()
	p := PressureNormal
	for _, q := range qs {
		if qp := q.Pressure(); qp > p {
			p = qp
		}
	}
	return p
}

// Queue returns the named queue, if declared.
func (b *Broker) Queue(name string) (*Queue, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	q, ok := b.queues[name]
	return q, ok
}

// DeleteQueue removes a queue entirely (used after decommission, before
// the replacement queue is declared for a re-bootstrapping subscriber).
// It is the only way a binding ends; whatever the queue pinned in the
// log is released at once.
func (b *Broker) DeleteQueue(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	q, ok := b.queues[name]
	if !ok {
		return
	}
	q.close()
	delete(b.queues, name)
	for ex, qs := range b.bindings {
		for i, bound := range qs {
			if bound == q {
				// Copy-on-write: ExchangePressure iterates binding slices
				// outside the broker lock, so one is never mutated in place.
				next := make([]*Queue, 0, len(qs)-1)
				next = append(next, qs[:i]...)
				next = append(next, qs[i+1:]...)
				b.bindings[ex] = next
				break
			}
		}
	}
	b.truncateLocked()
}

// Bind subscribes the named queue to an exchange's messages, starting
// at the log tail: nothing published before the Bind is delivered.
func (b *Broker) Bind(queueName, exchange string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	q, ok := b.queues[queueName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownQueue, queueName)
	}
	qs := b.bindings[exchange]
	for _, bound := range qs {
		if bound == q {
			return nil
		}
	}
	// Copy-on-write (see DeleteQueue).
	next := make([]*Queue, 0, len(qs)+1)
	next = append(next, qs...)
	next = append(next, q)
	b.bindings[exchange] = next
	q.bind(exchange, b.log.tail.Load())
	return nil
}

// Publish appends the message to the log once and lets every queue
// bound to the exchange know it is there. Delivery into each queue is
// independent: one decommissioned queue does not affect the others.
// Fails with ErrBrokerDown while crashed; a nil return means the message
// is on the log (durable) for every queue it reached.
func (b *Broker) Publish(exchange string, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return ErrBrokerDown
	}
	b.published++
	qs := b.bindings[exchange]
	if len(qs) == 0 {
		return nil // a fanout exchange with no queue routes to nobody
	}
	if b.log.tail.Load()%segmentSize == 0 {
		b.truncateLocked() // about to open a segment: drop the settled ones
	}
	seq := b.log.append(exchange, payload)
	decommissioned := false
	for _, q := range qs {
		// Loss is decided per (queue, message) before the queue hears of
		// the record: a lost record is marked skipped, never forked.
		lost := (b.loss != nil && b.loss(q.name, exchange, payload)) ||
			b.faults.Fire(FaultBrokerDrop) != nil
		if q.arrive(seq, lost) {
			decommissioned = true
		}
	}
	if decommissioned {
		b.truncateLocked()
	}
	return nil
}

// truncate drops the log segments no live queue can still read. Queues
// call it when their low-water mark enters a new segment.
func (b *Broker) truncate() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.down { // a crashed broker's queues are on disk, not in b.queues
		b.truncateLocked()
	}
}

func (b *Broker) truncateLocked() {
	tail := b.log.tail.Load()
	low := tail
	for _, q := range b.queues {
		low = min(low, q.pin(tail))
	}
	if !b.log.truncate(low) || b.truncateHook == nil {
		return
	}
	lows := make(map[string]uint64, len(b.queues))
	for name, q := range b.queues {
		lows[name] = q.pin(tail)
	}
	b.truncateHook(b.log.head, lows)
}

// Published reports the total number of Publish calls (metrics).
func (b *Broker) Published() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published
}

// Queues lists declared queue names, sorted.
func (b *Broker) Queues() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.queues))
	for n := range b.queues {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Queue is one subscriber app's durable message queue: a cursor over
// the broker's log (st, the part that survives a crash) plus the state
// of the consumers currently attached to it (everything else).
type Queue struct {
	name string
	b    *Broker

	mu   sync.Mutex
	cond *sync.Cond
	st   *QueueState

	tags    map[uint64]uint64 // delivery tag -> seq of an open flight a consumer holds
	nextTag uint64
	// redo lists the open flights handed back (Nack requeue, NackError,
	// ReplayDeadLetters, a restart) and awaiting redelivery ahead of the
	// cursor. The LAST element is the front of the queue. It is bounded
	// by what consumers hold, i.e. by the credit window.
	redo      []uint64
	lowSeg    uint64 // segment of the low-water mark when last looked at
	cancelSeq uint64 // bumped by CancelWaiters to wake blocked Gets
	canceled  bool   // a cancel found nobody blocked; owed to the next Get that would block
	waiters   int    // consumers currently blocked in GetBatch
	closed    bool
	downErr   error // set when the owning broker crashed; handle is defunct

	// Overload control. Watermarks and the credit window are volatile
	// consumer tuning — deliberately NOT in the QueueState; the owning app
	// re-applies them on every (re)attach, the same way a real AMQP
	// consumer re-sends basic.qos after a reconnect.
	hiWater   int  // soft depth high watermark (0 = no depth signal)
	credits   int  // max outstanding unacked deliveries (0 = unbounded)
	pressured bool // inside a high-watermark episode
}

// restoreQueue builds a live queue over a cursor state — a fresh one at
// DeclareQueue, a surviving one at Restart. Whatever was unsettled comes
// back first, in publish order, to be flagged Redelivered.
func restoreQueue(b *Broker, name string, st *QueueState) *Queue {
	q := &Queue{name: name, b: b, st: st, tags: make(map[uint64]uint64)}
	q.cond = sync.NewCond(&q.mu)
	for i := len(st.open) - 1; i >= 0; i-- {
		q.redo = append(q.redo, st.open[i].seq)
	}
	return q
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// crash marks the handle defunct — every operation on it returns
// ErrBrokerDown from now on, and blocked consumers wake with it — and
// returns the durable state. The handle keeps reporting the depth and
// in-flight counts it died with.
func (q *Queue) crash() *QueueState {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.downErr = ErrBrokerDown
	q.cond.Broadcast()
	return q.st.clone()
}

func (q *Queue) bind(exchange string, from uint64) {
	q.mu.Lock()
	q.st.bound = append(q.st.bound, binding{exchange, from})
	q.mu.Unlock()
}

// arrive tells the queue that the record at seq was published to an
// exchange it is bound to. Reports whether the arrival decommissioned
// the queue.
func (q *Queue) arrive(seq uint64, lost bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	if st.dead || q.closed {
		return false
	}
	if lost {
		st.lose(seq)
		return false
	}
	st.pending++
	q.notePressureLocked()
	q.cond.Broadcast()
	// Unacked deliveries count against the bound: a prefetching consumer
	// that cannot finish its batch is as far behind as one that never
	// dequeued, and must not mask the overflow.
	if st.maxLen <= 0 || q.depthLocked() <= st.maxLen {
		return false
	}
	// Decommission: the subscriber has been away too long; kill the
	// queue rather than let it pin the log without bound (§4.4).
	st.dead = true
	st.pending, st.open, st.setAside, st.skip = 0, nil, nil, nil
	q.redo = nil
	clear(q.tags)
	return true
}

// pin reports the lowest log seq the queue may still read, given the
// log tail; the broker holds its lock, so no arrival is in progress.
// An idle cursor rides the tail, and a dead or deleted queue pins
// nothing.
func (q *Queue) pin(tail uint64) uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	if st.dead || q.closed {
		return tail
	}
	if st.pending == 0 && st.next != tail {
		st.next, st.skip = tail, nil
	}
	return st.low(tail)
}

// Get blocks until a message is available, the queue is decommissioned,
// the queue is closed, or CancelWaiters interrupts the wait
// (ErrCanceled — used for graceful worker shutdown; the queue itself
// stays usable).
func (q *Queue) Get() (Delivery, error) {
	ds, err := q.GetBatch(1)
	if err != nil {
		return Delivery{}, err
	}
	return ds[0], nil
}

// usableLocked reports why the queue cannot serve consumers, if so.
func (q *Queue) usableLocked() error {
	switch {
	case q.downErr != nil:
		return q.downErr
	case q.st.dead:
		return ErrDecommissioned
	case q.closed:
		return ErrClosed
	}
	return nil
}

// GetBatch blocks like Get until at least one message is available, then
// drains up to max pending messages under one lock acquisition. This is
// the subscriber-side prefetch: a worker pays the queue synchronization
// cost once per batch instead of once per message. The batch is capped
// at a fair share of the pending messages relative to the consumers
// currently blocked waiting, so one worker cannot starve an idle pool
// by grabbing the whole queue. Every returned delivery must be Acked or
// Nacked individually.
func (q *Queue) GetBatch(max int) ([]Delivery, error) { return q.AppendBatch(nil, max) }

// AppendBatch is GetBatch appending to dst, a consumer's reused buffer
// (nil: a new slice sized to the batch); on an error it returns dst.
func (q *Queue) AppendBatch(dst []Delivery, max int) ([]Delivery, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.appendLocked(dst, max, true)
}

// TryAppendBatch is AppendBatch that does not wait: with nothing it may
// take at once — an empty queue, an exhausted credit window — it
// returns dst and no error.
func (q *Queue) TryAppendBatch(dst []Delivery, max int) ([]Delivery, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.appendLocked(dst, max, false)
}

// appendLocked is the one take path: it appends up to max deliveries to
// dst, waiting for one, when wait is set, until CancelWaiters interrupts
// it.
func (q *Queue) appendLocked(dst []Delivery, max int, wait bool) ([]Delivery, error) {
	if max < 1 {
		max = 1
	}
	seq := q.cancelSeq
	for {
		if err := q.usableLocked(); err != nil {
			return dst, err
		}
		if ready, c := q.readyLocked(), q.creditLocked(); ready > 0 && c != 0 {
			// Fair share: leave enough behind for every consumer still
			// blocked in the wait below (ceil division keeps n >= 1).
			n := min((ready+q.waiters)/(q.waiters+1), max)
			// Credit window: the batch may not push outstanding unacked
			// deliveries past the granted window; acks replenish it.
			if c > 0 {
				n = min(n, c)
			}
			return q.takeLocked(slices.Grow(dst, n), len(dst)+n), nil
		}
		if !wait {
			return dst, nil
		}
		if q.cancelSeq != seq || q.canceled {
			q.canceled = false
			return dst, ErrCanceled
		}
		q.waiters++
		q.cond.Wait()
		q.waiters--
	}
}

// CancelWaiters wakes every consumer currently blocked in Get with
// ErrCanceled; when none is blocked, the next Get that would block
// returns ErrCanceled instead — so a caller can hand a consumer other
// work without a lost wakeup: one that looked for it just before the
// cancel and is about to block comes back to look again. Pending
// messages and Gets that find one are unaffected.
func (q *Queue) CancelWaiters() {
	q.mu.Lock()
	q.cancelSeq++
	if q.waiters == 0 {
		q.canceled = true
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// TryGet returns a message if one is immediately available.
func (q *Queue) TryGet() (Delivery, bool, error) {
	var one [1]Delivery
	ds, err := q.TryAppendBatch(one[:0], 1)
	if len(ds) == 0 {
		return Delivery{}, false, err
	}
	return ds[0], true, nil
}

// readyLocked counts the messages waiting for a consumer: handed-back
// ones plus those ahead of the cursor.
func (q *Queue) readyLocked() int { return q.st.pending + len(q.redo) }

// depthLocked is pending plus unsettled — the figure the watermarks and
// the decommission bound are measured against.
func (q *Queue) depthLocked() int { return q.st.pending + len(q.st.open) }

// creditLocked reports how many more deliveries the credit window
// admits right now: -1 when the window is unbounded, otherwise the
// remaining credit (0 = exhausted, consumers must wait for acks).
func (q *Queue) creditLocked() int {
	if q.credits <= 0 {
		return -1
	}
	if c := q.credits - len(q.tags); c > 0 {
		return c
	}
	return 0
}

// notePressureLocked re-evaluates the depth watermark state machine and
// the depth high-water mark. The episode flag is sticky: it sets at
// hiWater and clears only once depth drains to half of it, so publishers
// are not flapped on/off at the boundary.
func (q *Queue) notePressureLocked() {
	d := q.depthLocked()
	if d > q.st.maxDepthSeen {
		q.st.maxDepthSeen = d
	}
	if q.hiWater <= 0 {
		q.pressured = false
		return
	}
	if q.pressured {
		if d <= q.hiWater/2 {
			q.pressured = false
		}
	} else if d >= q.hiWater {
		q.pressured = true
	}
}

// SetWatermarks installs the soft depth watermark: at high the queue
// starts signalling PressureHigh; the signal clears once depth drains
// to high/2. high <= 0 disables the depth signal.
func (q *Queue) SetWatermarks(high int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.hiWater = high
	q.notePressureLocked()
}

// SetCredits grants the consumer pool a credit window of n outstanding
// unacked deliveries (basic.qos in AMQP terms): GetBatch/TryGet stop
// handing out messages while the window is exhausted and resume as acks
// return credit. n <= 0 removes the window.
func (q *Queue) SetCredits(n int) {
	q.mu.Lock()
	q.credits = n
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Pressure reports the queue's current overload signal.
func (q *Queue) Pressure() Pressure {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.notePressureLocked()
	if q.pressured {
		return PressureHigh
	}
	return PressureNormal
}

// Depth reports pending plus unacked messages — the figure the
// watermarks and the decommission bound are measured against.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

// MaxDepthSeen reports the deepest the queue has ever been
// (pending + unacked), the bounded-memory witness for overload runs.
func (q *Queue) MaxDepthSeen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.st.maxDepthSeen
}

// takeLocked appends the next n messages to out, n <= readyLocked():
// hand-backs first, then the log from the cursor on. The log lock is
// taken once for the batch, not per message.
func (q *Queue) takeLocked(out []Delivery, n int) []Delivery {
	st, log := q.st, q.b.log
	log.mu.Lock()
	defer log.mu.Unlock()
	for len(out) < n {
		var (
			seq uint64
			rec *Record
			d   Delivery
		)
		if k := len(q.redo); k > 0 {
			seq, q.redo = q.redo[k-1], q.redo[:k-1]
			f := st.open[st.find(seq)]
			rec, d.Redelivered, d.Attempts = f.rec, true, f.fails
			st.redelivered++
		} else {
			// The first st.pending selected records from the cursor on have
			// all arrived, so the scan stays below the last arrival.
			for seq = st.next; !st.wants(seq, log.at(seq)); seq++ {
			}
			st.next = seq + 1
			st.pending--
			st.open = append(st.open, flight{seq: seq})
		}
		if rec == nil {
			rec = log.at(seq)
		}
		q.nextTag++
		q.tags[q.nextTag] = seq
		d.Payload, d.Exchange, d.Tag = rec.payload, rec.exchange, q.nextTag
		out = append(out, d)
	}
	return out
}

// untagLocked takes the delivery with the given tag back from its
// consumer and reports the index of its flight in st.open.
func (q *Queue) untagLocked(tag uint64) (int, error) {
	if q.downErr != nil {
		return 0, q.downErr
	}
	seq, ok := q.tags[tag]
	if !ok {
		if q.st.dead {
			return 0, ErrDecommissioned
		}
		return 0, ErrBadTag
	}
	delete(q.tags, tag)
	return q.st.find(seq), nil
}

// dropLocked settles the flight at index i for good.
func (q *Queue) dropLocked(i int) {
	q.st.open = append(q.st.open[:i], q.st.open[i+1:]...)
}

// doneLocked finishes an operation that settled or handed back
// deliveries: one state stamp, one pressure note and, when a message
// became available (wake) or credit returned to a bounded window, one
// wake-up. Reports whether the low-water mark has entered a new segment
// since it was last looked at: the caller then truncates the log, once
// it has released the queue lock.
func (q *Queue) doneLocked(wake bool) bool {
	q.notePressureLocked()
	if wake || q.credits > 0 {
		q.cond.Broadcast()
	}
	seg := q.st.low(q.b.log.tail.Load()) / segmentSize
	moved := seg != q.lowSeg
	q.lowSeg = seg
	return moved
}

// Ack confirms processing of a delivery.
func (q *Queue) Ack(tag uint64) error {
	return q.AckMulti([]uint64{tag})
}

// AckMulti acknowledges a batch of deliveries in one broker call: one
// lock acquisition and one cursor-state update however many tags — the
// coalesced-ack half of the subscriber's group-commit flush. Every valid
// tag in the batch is acked even when others are stale; the error
// (ErrBadTag, or ErrDecommissioned on a dead queue) reports only that
// some tags were unknown, which a crash/redelivery race makes benign for
// the caller.
func (q *Queue) AckMulti(tags []uint64) error {
	if len(tags) == 0 {
		return nil
	}
	q.mu.Lock()
	var bad error
	for _, tag := range tags {
		i, err := q.untagLocked(tag)
		if err != nil {
			bad = err
			continue
		}
		q.dropLocked(i)
	}
	truncate := q.downErr == nil && q.doneLocked(false)
	q.mu.Unlock()
	if truncate {
		q.b.truncate()
	}
	return bad
}

// Nack returns a delivery to the queue. With requeue, the message goes
// to the front (preserving order as far as possible) marked redelivered;
// without, it is dropped.
func (q *Queue) Nack(tag uint64, requeue bool) error {
	q.mu.Lock()
	i, err := q.untagLocked(tag)
	if err != nil {
		q.mu.Unlock()
		return err
	}
	if requeue && !q.closed {
		q.redo = append(q.redo, q.st.open[i].seq)
	} else {
		q.dropLocked(i)
	}
	truncate := q.doneLocked(requeue)
	q.mu.Unlock()
	if truncate {
		q.b.truncate()
	}
	return nil
}

// SetMaxAttempts bounds failed processing attempts per message: after n
// NackError calls a message is set aside (dead-lettered) instead of
// requeued. n <= 0 (the default) disables the bound — failure nacks
// requeue forever, the pre-dead-letter behaviour.
func (q *Queue) SetMaxAttempts(n int) {
	q.mu.Lock()
	if q.downErr == nil {
		q.st.maxAttempts = n
	}
	q.mu.Unlock()
}

// NackError returns a delivery to the queue after a FAILED processing
// attempt. Unlike Nack (which hands back unprocessed prefetch without
// penalty), it increments the message's failure count; once the count
// reaches the queue's max attempts the message is set aside on the
// dead-letter list instead of requeued, so a poison message cannot
// wedge the consumer pool. Reports whether the message was set aside.
func (q *Queue) NackError(tag uint64) (deadLettered bool, err error) {
	q.mu.Lock()
	i, err := q.untagLocked(tag)
	if err != nil {
		q.mu.Unlock()
		return false, err
	}
	st := q.st
	f := &st.open[i]
	switch {
	case q.closed:
		q.dropLocked(i)
	case st.maxAttempts > 0 && f.fails+1 >= st.maxAttempts:
		// Park a copy: quarantine shrinks the live depth, returns credit,
		// and lets go of the log record.
		f.fails++
		if f.rec == nil {
			r := q.b.log.get(f.seq)
			f.rec = &r
		}
		st.setAside = append(st.setAside, *f)
		st.deadLettered++
		q.dropLocked(i)
		deadLettered = true
	default:
		f.fails++
		q.redo = append(q.redo, f.seq)
	}
	truncate := q.doneLocked(true)
	q.mu.Unlock()
	if truncate {
		q.b.truncate()
	}
	return deadLettered, nil
}

// DeadLetters returns copies of the set-aside message payloads in the
// order they were parked (inspection; the originals stay parked).
func (q *Queue) DeadLetters() []Delivery {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Delivery, 0, len(q.st.setAside))
	for _, f := range q.st.setAside {
		payload := append([]byte(nil), f.rec.payload...)
		out = append(out, Delivery{Payload: payload, Redelivered: true, Exchange: f.rec.exchange, Attempts: f.fails})
	}
	return out
}

// ReplayDeadLetters moves every set-aside message back to the front of
// the queue (original park order preserved) with its failure count
// reset, and reports how many were replayed. Used after the operator
// clears the underlying fault.
func (q *Queue) ReplayDeadLetters() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	n := len(st.setAside)
	if n == 0 || q.closed || q.downErr != nil {
		return 0
	}
	// Front-load the parked flights in their original order: pushing each
	// to the front back-to-front lands setAside[0] first in line.
	for i := n - 1; i >= 0; i-- {
		f := st.setAside[i]
		f.fails = 0
		at := st.find(f.seq)
		st.open = append(st.open, flight{})
		copy(st.open[at+1:], st.open[at:])
		st.open[at] = f
		q.redo = append(q.redo, f.seq)
	}
	st.setAside = nil
	q.notePressureLocked()
	q.cond.Broadcast()
	return n
}

// DeadLetterCount reports messages currently set aside.
func (q *Queue) DeadLetterCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.st.setAside)
}

// DeadLettered reports the total messages ever set aside.
func (q *Queue) DeadLettered() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.st.deadLettered
}

// Redelivered reports the total repeat deliveries ever handed out.
func (q *Queue) Redelivered() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.st.redelivered
}

// Len reports pending (undelivered) messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.readyLocked()
}

// Unacked reports delivered-but-unacked messages.
func (q *Queue) Unacked() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tags)
}

// Dead reports whether the queue was decommissioned.
func (q *Queue) Dead() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.st.dead
}

// close wakes all consumers with ErrClosed.
func (q *Queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
