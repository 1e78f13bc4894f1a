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

type item struct {
	id          uint64 // log identity, unique per (queue, enqueue)
	payload     []byte
	exchange    string
	redelivered bool
	delivered   bool // handed to a consumer at least once
	fails       int
}

// Pressure is a queue's overload signal to its publishers. It is the
// soft counterpart of the §4.4 decommission cliff: past the high
// watermark the queue asks publishers to degrade (throttle, defer,
// shed) long before the hard maxLen bound would cut the subscriber off.
type Pressure int

const (
	// PressureNormal: depth below the high watermark and the oldest
	// pending message younger than the age watermark.
	PressureNormal Pressure = iota
	// PressureHigh: the queue crossed its soft high watermark and has
	// not yet drained back to the low watermark (hysteresis), or its
	// oldest pending message exceeds the age watermark (a stalled
	// consumer pressures publishers even at modest depth).
	PressureHigh
)

// LossFunc decides whether to drop a message on its way into a queue.
type LossFunc func(queue, exchange string, payload []byte) bool

// Broker routes published messages from exchanges to bound queues.
type Broker struct {
	mu        sync.Mutex
	bindings  map[string][]*Queue // exchange -> queues
	queues    map[string]*Queue
	loss      LossFunc
	faults    *faultinject.Registry
	published int64
	down      bool
	fenced    bool   // permanently down: a promoted replica superseded this instance
	seq       uint64 // message-id source for the queue log
	log       *queueLog
}

// New returns an empty broker.
func New() *Broker {
	return &Broker{
		bindings: make(map[string][]*Queue),
		queues:   make(map[string]*Queue),
		log:      newQueueLog(),
	}
}

// Crash models broker process death: all in-memory routing and queue
// state is wiped, every operation fails with ErrBrokerDown, and every
// outstanding queue handle — including consumers blocked in GetBatch —
// is woken with ErrBrokerDown. Only the queue log (the modelled disk)
// survives; Restart replays it.
func (b *Broker) Crash() {
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		return
	}
	b.down = true
	old := make([]*Queue, 0, len(b.queues))
	for _, q := range b.queues {
		old = append(old, q)
	}
	b.queues = make(map[string]*Queue)
	b.bindings = make(map[string][]*Queue)
	b.mu.Unlock()
	for _, q := range old {
		q.fail(ErrBrokerDown)
	}
}

// Restart brings a crashed broker back by replaying the queue log:
// queues and bindings are rebuilt, pending messages reappear in
// publish order, delivered-but-unacked messages return to the front of
// their queues flagged Redelivered (their ack was lost with the
// crash), dead-letter parks and failure counts survive, and acked
// messages stay gone. Pre-crash queue handles and delivery tags remain
// invalid; consumers must re-fetch their queue.
func (b *Broker) Restart() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.down || b.fenced {
		return
	}
	st := b.log.replay()
	b.queues = make(map[string]*Queue, len(st.queues))
	b.bindings = make(map[string][]*Queue)
	for name, rq := range st.queues {
		q := newQueue(name, rq.maxLen, b.log)
		q.maxAttempts = rq.maxAttempts
		q.dead = rq.dead
		q.deadLettered = rq.deadCount
		// Cumulative observability counters survive the restart the same
		// way the dead-letter total does: the log carries them (opRedeliver
		// entries plus the opQueueStats snapshot line), so post-restart
		// Stats never silently reset under the bench gate.
		q.redeliveredTotal = rq.redelivered
		q.maxDepthSeen = rq.maxDepth
		var redo, fresh []*item
		for _, id := range rq.order {
			m := rq.msgs[id]
			it := &item{
				id: m.id, payload: m.payload, exchange: m.exchange,
				fails: m.fails, delivered: m.delivered, redelivered: m.delivered,
			}
			switch {
			case m.deadLettered:
				q.setAside = append(q.setAside, it)
			case m.delivered:
				// Unacked in-flight at crash time: redeliver first,
				// preserving their publish order among themselves.
				redo = append(redo, it)
			default:
				fresh = append(fresh, it)
			}
		}
		for _, it := range redo {
			q.pending.PushBack(it)
		}
		for _, it := range fresh {
			q.pending.PushBack(it)
		}
		b.queues[name] = q
	}
	for ex, qnames := range st.bindings {
		for _, qn := range qnames {
			if q, ok := b.queues[qn]; ok {
				b.bindings[ex] = append(b.bindings[ex], q)
			}
		}
	}
	b.down = false
}

// Down reports whether the broker is crashed.
func (b *Broker) Down() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.down
}

// Fence takes the broker down permanently: every operation fails with
// ErrBrokerDown, every queue handle is woken defunct, and Restart
// refuses to revive it. A cluster fences a superseded primary so that,
// after a partition heals, its stale state — messages a promoted
// replica has since acked away — can never be served or double-
// delivered again (the generation number its lease lost is the fence).
func (b *Broker) Fence() {
	b.mu.Lock()
	if b.fenced {
		b.mu.Unlock()
		return
	}
	b.fenced = true
	b.mu.Unlock()
	b.Crash()
	// Crash returns early when already down; mark down unconditionally so
	// a crash-then-fence sequence still pins the broker down forever.
	b.mu.Lock()
	b.down = true
	b.mu.Unlock()
}

// Fenced reports whether the broker has been permanently superseded.
func (b *Broker) Fenced() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fenced
}

// LogSize reports the queue-log entry count (tests, compaction).
func (b *Broker) LogSize() int { return b.log.size() }

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
	q := newQueue(name, maxLen, b.log)
	b.queues[name] = q
	b.log.append(logEntry{op: opDeclare, queue: name, n: maxLen})
	return q, nil
}

// ExchangePressure reports the worst overload signal across the queues
// bound to an exchange — the publisher-side view of backpressure: a
// fanout publisher must degrade if ANY of its subscribers is drowning.
// A crashed broker reports PressureNormal; the publish itself will fail
// with ErrBrokerDown and take the journal-and-defer path anyway.
func (b *Broker) ExchangePressure(exchange string) Pressure {
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		return PressureNormal
	}
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
				// Copy-on-write: Publish iterates binding slices outside the
				// broker lock, so a bound slice is never mutated in place.
				next := make([]*Queue, 0, len(qs)-1)
				next = append(next, qs[:i]...)
				next = append(next, qs[i+1:]...)
				b.bindings[ex] = next
				break
			}
		}
	}
	b.log.append(logEntry{op: opDeleteQueue, queue: name})
}

// Bind subscribes the named queue to an exchange's messages.
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
	// Copy-on-write: build a fresh slice so a Publish holding the old
	// snapshot (it iterates outside the lock) never observes the append.
	next := make([]*Queue, 0, len(qs)+1)
	next = append(next, qs...)
	next = append(next, q)
	b.bindings[exchange] = next
	b.log.append(logEntry{op: opBind, queue: queueName, exchange: exchange})
	return nil
}

// Unbind removes a queue's binding to an exchange.
func (b *Broker) Unbind(queueName, exchange string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	q, ok := b.queues[queueName]
	if !ok {
		return
	}
	qs := b.bindings[exchange]
	for i, bound := range qs {
		if bound == q {
			// Copy-on-write (see Bind).
			next := make([]*Queue, 0, len(qs)-1)
			next = append(next, qs[:i]...)
			next = append(next, qs[i+1:]...)
			b.bindings[exchange] = next
			b.log.append(logEntry{op: opUnbind, queue: queueName, exchange: exchange})
			return
		}
	}
}

// Publish fans the payload out to every queue bound to the exchange.
// Delivery into each queue is independent: one decommissioned queue does
// not affect the others. Fails with ErrBrokerDown while crashed; a nil
// return means the message is on the log (durable) for every queue it
// reached.
func (b *Broker) Publish(exchange string, payload []byte) error {
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		return ErrBrokerDown
	}
	// Bindings are copy-on-write: the slice under the map is never
	// mutated in place, so this snapshot is safe to iterate after the
	// unlock without cloning it per publish.
	qs := b.bindings[exchange]
	loss := b.loss
	faults := b.faults
	b.published++
	base := b.seq
	b.seq += uint64(len(qs))
	b.mu.Unlock()
	for i, q := range qs {
		if loss != nil && loss(q.name, exchange, payload) {
			continue
		}
		if faults.Fire(FaultBrokerDrop) != nil {
			continue
		}
		q.push(payload, exchange, base+uint64(i)+1)
	}
	return nil
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

// Queue is one subscriber app's durable message queue.
type Queue struct {
	name   string
	maxLen int

	mu        sync.Mutex
	cond      *sync.Cond
	log       *queueLog
	pending   itemDeque
	unacked   map[uint64]*item
	nextTag   uint64
	cancelSeq uint64 // bumped by CancelWaiters to wake blocked Gets
	canceled  bool   // a cancel found nobody blocked; owed to the next Get that would block
	waiters   int    // consumers currently blocked in GetBatch
	dead      bool   // decommissioned
	closed    bool
	downErr   error // set when the owning broker crashed; handle is defunct

	// Dead-letter "set aside" list (§4): a message whose processing has
	// failed maxAttempts times is parked here instead of wedging the
	// consumer pool on endless redelivery. Parked messages stay
	// inspectable and replayable.
	maxAttempts  int
	setAside     []*item
	deadLettered int64 // total messages ever set aside

	// redeliveredTotal counts deliveries of messages already handed out
	// before (crash redeliveries, nack requeues and hand-backs). Like
	// deadLettered it is cumulative and survives Restart via the log.
	redeliveredTotal int64

	// Overload control. Watermarks and the credit window are
	// volatile consumer tuning — deliberately NOT in the queue log; the
	// owning app re-applies them on every (re)attach, the same way a real
	// AMQP consumer re-sends basic.qos after a reconnect.
	hiWater      int  // soft depth high watermark (0 = no depth signal)
	loWater      int  // depth that ends a high episode (hysteresis)
	credits      int  // max outstanding unacked deliveries (0 = unbounded)
	pressured    bool // inside a high-watermark episode
	maxDepthSeen int  // high-water mark of pending+unacked depth
}

func newQueue(name string, maxLen int, log *queueLog) *Queue {
	q := &Queue{
		name:    name,
		maxLen:  maxLen,
		log:     log,
		unacked: make(map[uint64]*item),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// fail marks a handle defunct after a broker crash: every operation on
// it returns err from now on, and blocked consumers wake with it.
func (q *Queue) fail(err error) {
	q.mu.Lock()
	q.downErr = err
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *Queue) push(payload []byte, exchange string, id uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.dead || q.closed || q.downErr != nil {
		return
	}
	q.pending.PushBack(&item{id: id, payload: payload, exchange: exchange})
	q.log.append(logEntry{op: opEnqueue, queue: q.name, id: id, payload: payload, exchange: exchange})
	q.notePressureLocked()
	// Unacked deliveries count against the bound: a prefetching consumer
	// that cannot finish its batch is as far behind as one that never
	// dequeued, and must not mask the overflow.
	if q.maxLen > 0 && q.pending.Len()+len(q.unacked) > q.maxLen {
		// Decommission: the subscriber has been away too long; kill the
		// queue rather than grow without bound (§4.4).
		q.pending.Clear()
		for tag := range q.unacked {
			delete(q.unacked, tag)
		}
		q.setAside = nil
		q.dead = true
		q.log.append(logEntry{op: opDecommission, queue: q.name})
	}
	q.cond.Broadcast()
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

// GetBatch blocks like Get until at least one message is available, then
// drains up to max pending messages under one lock acquisition. This is
// the subscriber-side prefetch: a worker pays the queue synchronization
// cost once per batch instead of once per message. The batch is capped
// at a fair share of the pending messages relative to the consumers
// currently blocked waiting, so one worker cannot starve an idle pool
// by grabbing the whole queue. Every returned delivery must be Acked or
// Nacked individually.
func (q *Queue) GetBatch(max int) ([]Delivery, error) {
	if max < 1 {
		max = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	seq := q.cancelSeq
	for {
		if q.downErr != nil {
			return nil, q.downErr
		}
		if q.dead {
			return nil, ErrDecommissioned
		}
		if q.closed {
			return nil, ErrClosed
		}
		if q.pending.Len() > 0 && q.creditLocked() != 0 {
			// Fair share: leave enough behind for every consumer still
			// blocked in the wait below (ceil division keeps n >= 1).
			n := (q.pending.Len() + q.waiters) / (q.waiters + 1)
			if n > max {
				n = max
			}
			// Credit window: the batch may not push outstanding unacked
			// deliveries past the granted window; acks replenish it.
			if c := q.creditLocked(); c > 0 && n > c {
				n = c
			}
			out := make([]Delivery, 0, n)
			for i := 0; i < n; i++ {
				out = append(out, q.takeLocked())
			}
			return out, nil
		}
		if q.cancelSeq != seq || q.canceled {
			q.canceled = false
			return nil, ErrCanceled
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
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.downErr != nil {
		return Delivery{}, false, q.downErr
	}
	if q.dead {
		return Delivery{}, false, ErrDecommissioned
	}
	if q.closed {
		return Delivery{}, false, ErrClosed
	}
	if q.pending.Len() == 0 || q.creditLocked() == 0 {
		return Delivery{}, false, nil
	}
	return q.takeLocked(), true, nil
}

// creditLocked reports how many more deliveries the credit window
// admits right now: -1 when the window is unbounded, otherwise the
// remaining credit (0 = exhausted, consumers must wait for acks).
func (q *Queue) creditLocked() int {
	if q.credits <= 0 {
		return -1
	}
	if c := q.credits - len(q.unacked); c > 0 {
		return c
	}
	return 0
}

// notePressureLocked re-evaluates the depth watermark state machine and
// the depth high-water mark. The episode flag is sticky: it sets at
// hiWater and clears only once depth drains to loWater, so publishers
// are not flapped on/off at the boundary.
func (q *Queue) notePressureLocked() {
	d := q.pending.Len() + len(q.unacked)
	if d > q.maxDepthSeen {
		q.maxDepthSeen = d
	}
	if q.hiWater <= 0 {
		q.pressured = false
		return
	}
	if q.pressured {
		if d <= q.loWater {
			q.pressured = false
		}
	} else if d >= q.hiWater {
		q.pressured = true
	}
}

// SetWatermarks installs the soft depth watermarks: at high the queue
// starts signalling PressureHigh; the signal clears once depth drains
// to low. high <= 0 disables the depth signal; low outside (0, high)
// defaults to high/2.
func (q *Queue) SetWatermarks(high, low int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if low <= 0 || low > high {
		low = high / 2
	}
	q.hiWater, q.loWater = high, low
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
	return q.pending.Len() + len(q.unacked)
}

// MaxDepthSeen reports the deepest the queue has ever been
// (pending + unacked), the bounded-memory witness for overload runs.
func (q *Queue) MaxDepthSeen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.maxDepthSeen
}

func (q *Queue) takeLocked() Delivery {
	it := q.pending.PopFront()
	q.nextTag++
	tag := q.nextTag
	q.unacked[tag] = it
	if !it.delivered {
		// First hand-off: from here until the ack lands, a crash makes
		// this message redeliverable.
		it.delivered = true
		q.log.append(logEntry{op: opDeliver, queue: q.name, id: it.id})
	} else {
		q.redeliveredTotal++
		q.log.append(logEntry{op: opRedeliver, queue: q.name, id: it.id})
	}
	return Delivery{Payload: it.payload, Tag: tag, Redelivered: it.redelivered, Exchange: it.exchange, Attempts: it.fails}
}

// Ack confirms processing of a delivery.
func (q *Queue) Ack(tag uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.downErr != nil {
		return q.downErr
	}
	it, ok := q.unacked[tag]
	if !ok {
		if q.dead {
			return ErrDecommissioned
		}
		return ErrBadTag
	}
	delete(q.unacked, tag)
	q.log.append(logEntry{op: opAck, queue: q.name, id: it.id})
	q.notePressureLocked()
	// The ack returns credit to the window; wake consumers blocked on an
	// exhausted window.
	if q.credits > 0 {
		q.cond.Broadcast()
	}
	return nil
}

// AckMulti acknowledges a batch of deliveries in one broker call: one
// lock acquisition, a log append per tag, one pressure note, and one
// credit broadcast — the coalesced-ack half of the subscriber's
// group-commit flush. Every valid tag in the batch is acked even when
// others are stale; the error (ErrBadTag, or ErrDecommissioned on a
// dead queue) reports only that some tags were unknown, which a
// crash/redelivery race makes benign for the caller.
func (q *Queue) AckMulti(tags []uint64) error {
	if len(tags) == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.downErr != nil {
		return q.downErr
	}
	missing := false
	for _, tag := range tags {
		it, ok := q.unacked[tag]
		if !ok {
			missing = true
			continue
		}
		delete(q.unacked, tag)
		q.log.append(logEntry{op: opAck, queue: q.name, id: it.id})
	}
	q.notePressureLocked()
	if q.credits > 0 {
		q.cond.Broadcast()
	}
	if missing {
		if q.dead {
			return ErrDecommissioned
		}
		return ErrBadTag
	}
	return nil
}

// Nack returns a delivery to the queue. With requeue, the message goes
// to the front (preserving order as far as possible) marked redelivered;
// without, it is dropped.
func (q *Queue) Nack(tag uint64, requeue bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.downErr != nil {
		return q.downErr
	}
	it, ok := q.unacked[tag]
	if !ok {
		if q.dead {
			return ErrDecommissioned
		}
		return ErrBadTag
	}
	delete(q.unacked, tag)
	if requeue && !q.dead && !q.closed {
		it.redelivered = true
		q.pending.PushFront(it)
		q.cond.Broadcast()
	} else {
		// Dropped without requeue: gone from the durable state too.
		q.log.append(logEntry{op: opAck, queue: q.name, id: it.id})
		q.notePressureLocked()
		if q.credits > 0 {
			q.cond.Broadcast()
		}
	}
	return nil
}

// SetMaxAttempts bounds failed processing attempts per message: after n
// NackError calls a message is set aside (dead-lettered) instead of
// requeued. n <= 0 (the default) disables the bound — failure nacks
// requeue forever, the pre-dead-letter behaviour.
func (q *Queue) SetMaxAttempts(n int) {
	q.mu.Lock()
	q.maxAttempts = n
	q.log.append(logEntry{op: opMaxAttempts, queue: q.name, n: n})
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
	defer q.mu.Unlock()
	if q.downErr != nil {
		return false, q.downErr
	}
	it, ok := q.unacked[tag]
	if !ok {
		if q.dead {
			return false, ErrDecommissioned
		}
		return false, ErrBadTag
	}
	delete(q.unacked, tag)
	if q.dead || q.closed {
		return false, nil
	}
	it.fails++
	it.redelivered = true
	q.log.append(logEntry{op: opFail, queue: q.name, id: it.id})
	if q.maxAttempts > 0 && it.fails >= q.maxAttempts {
		q.setAside = append(q.setAside, it)
		q.deadLettered++
		q.log.append(logEntry{op: opDeadLetter, queue: q.name, id: it.id})
		// Quarantine shrinks the live depth and returns credit.
		q.notePressureLocked()
		q.cond.Broadcast()
		return true, nil
	}
	q.pending.PushFront(it)
	q.cond.Broadcast()
	return false, nil
}

// DeadLetters returns copies of the set-aside message payloads in the
// order they were parked (inspection; the originals stay parked).
func (q *Queue) DeadLetters() []Delivery {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Delivery, 0, len(q.setAside))
	for _, it := range q.setAside {
		payload := make([]byte, len(it.payload))
		copy(payload, it.payload)
		out = append(out, Delivery{Payload: payload, Redelivered: true, Exchange: it.exchange, Attempts: it.fails})
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
	n := len(q.setAside)
	if n == 0 || q.dead || q.closed {
		q.setAside = nil
		return 0
	}
	// Front-load the parked items in their original order: pushing each
	// to the head back-to-front lands setAside[0] first in line.
	for i := n - 1; i >= 0; i-- {
		it := q.setAside[i]
		it.fails = 0
		q.pending.PushFront(it)
	}
	q.setAside = nil
	q.log.append(logEntry{op: opReplayDL, queue: q.name})
	q.notePressureLocked()
	q.cond.Broadcast()
	return n
}

// DeadLetterCount reports messages currently set aside.
func (q *Queue) DeadLetterCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.setAside)
}

// DeadLettered reports the total messages ever set aside.
func (q *Queue) DeadLettered() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.deadLettered
}

// Redelivered reports the total repeat deliveries ever handed out.
func (q *Queue) Redelivered() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.redeliveredTotal
}

// Len reports pending (undelivered) messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending.Len()
}

// Unacked reports delivered-but-unacked messages.
func (q *Queue) Unacked() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.unacked)
}

// Dead reports whether the queue was decommissioned.
func (q *Queue) Dead() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dead
}

// close wakes all consumers with ErrClosed.
func (q *Queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
