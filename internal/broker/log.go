package broker

import (
	"sync"
	"sync/atomic"
)

// The message log is the broker's durability story (§4.4: "RabbitMQ
// persists messages on disk"): ONE append-only log for the whole
// broker, one record per Publish, payload referenced once however many
// queues are bound. A queue is a cursor over it (QueueState). The log
// and the cursor states are the only things a Crash() does not wipe.
//
// The log is cut into fixed-size segments, and a segment is dropped as
// soon as it lies wholly below every live queue's low-water mark —
// truncation, so memory follows the slowest live queue's backlog, not
// traffic history. A dead, deleted or idle queue pins nothing.

// segmentSize is the records per segment: the unit of truncation.
const segmentSize = 256

// Record is one published message as the log holds it.
type Record struct {
	exchange string
	payload  []byte
}

type msgLog struct {
	mu   sync.Mutex
	head uint64        // first retained seq; always a multiple of segmentSize
	tail atomic.Uint64 // next seq to assign; written under mu
	segs []*[segmentSize]Record
}

func (l *msgLog) append(exchange string, payload []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.tail.Load()
	if int(seq-l.head)/segmentSize == len(l.segs) {
		l.segs = append(l.segs, new([segmentSize]Record))
	}
	*l.at(seq) = Record{exchange: exchange, payload: payload}
	l.tail.Store(seq + 1)
	return seq
}

// at returns the record at seq; the caller holds l.mu. A seq below the
// head indexes out of range: reading a truncated record is a bug in the
// truncation rule, never a recoverable state.
func (l *msgLog) at(seq uint64) *Record {
	return &l.segs[(seq-l.head)/segmentSize][seq%segmentSize]
}

// get copies the record at seq out of the log.
func (l *msgLog) get(seq uint64) Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return *l.at(seq)
}

// truncate drops every segment wholly below seq and reports whether
// any was dropped.
func (l *msgLog) truncate(below uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if below <= l.head {
		return false
	}
	n := int(below-l.head) / segmentSize
	if n == 0 {
		return false
	}
	// Copy down rather than reslice: a resliced prefix would keep the
	// dropped segments reachable through the backing array.
	kept := copy(l.segs, l.segs[n:])
	clear(l.segs[kept:])
	l.segs = l.segs[:kept]
	l.head += uint64(n) * segmentSize
	return true
}

// segments reports the retained segment count.
func (l *msgLog) segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// flight is one unsettled message of a queue: handed out at least once
// and not yet acked, dropped or replayed out of the set-aside list.
type flight struct {
	seq   uint64
	fails int
	// rec is a private copy, made when the message is parked: a parked
	// poison message pins no segment, so its log record may be gone.
	rec *Record
}

// binding is one exchange a queue consumes, from the log position the
// Bind happened at.
type binding struct {
	exchange string
	from     uint64
}

// QueueState is the durable half of a Queue — its cursor over the log.
// It is exactly what survives Crash(): Restart builds a live queue from
// it directly. Every record below next that the bindings select is
// either settled or in open (delivered ⇔ below the cursor and
// unsettled); every selected record from next on, minus skip, is
// pending.
type QueueState struct {
	maxLen      int
	maxAttempts int
	bound       []binding
	next        uint64              // first log seq not yet examined
	pending     int                 // selected, unskipped records in [next, tail)
	skip        map[uint64]struct{} // seqs >= next lost on their way in (§6.5)
	open        []flight            // unsettled deliveries, ascending seq
	setAside    []flight            // dead-letter parks, park order; each holds its copy
	dead        bool                // decommissioned (§4.4)

	// Cumulative observability counters.
	deadLettered int64
	redelivered  int64
	maxDepthSeen int
}

// clone deep-copies the state for the disk; payload bytes stay shared.
func (s *QueueState) clone() *QueueState {
	c := *s
	c.bound = append([]binding(nil), s.bound...)
	c.open = append([]flight(nil), s.open...)
	c.setAside = append([]flight(nil), s.setAside...)
	c.skip = nil
	for seq := range s.skip {
		c.lose(seq)
	}
	return &c
}

// wants reports whether the record at seq is this queue's to deliver,
// consuming its skip mark if it has one.
func (s *QueueState) wants(seq uint64, r *Record) bool {
	for _, b := range s.bound {
		if b.exchange == r.exchange && seq >= b.from {
			if _, lost := s.skip[seq]; lost {
				delete(s.skip, seq)
				return false
			}
			return true
		}
	}
	return false
}

func (s *QueueState) lose(seq uint64) {
	if s.skip == nil {
		s.skip = make(map[uint64]struct{})
	}
	s.skip[seq] = struct{}{}
}

// low is the queue's low-water mark, given the log tail: the lowest
// seq it may still read from the log. Parked copies read nothing, and
// neither does a cursor with nothing pending ahead of it.
func (s *QueueState) low(tail uint64) uint64 {
	for i := range s.open {
		if s.open[i].rec == nil {
			return s.open[i].seq
		}
	}
	if s.pending == 0 {
		return tail
	}
	return s.next
}

// find returns the index in open of the flight with the given seq.
func (s *QueueState) find(seq uint64) int {
	lo, hi := 0, len(s.open)
	for lo < hi {
		if mid := (lo + hi) / 2; s.open[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
