package broker

// Log shipping: the primitives a broker cluster uses to keep a warm
// follower per shard. The log plus the queues' cursor states are already
// the complete durable state (Restart rebuilds everything from them), so
// replication ships exactly that pair, and promotion constructs a live
// broker from it the way Restart would.
//
// Catch-up follows the DBLog watermark pattern (PAPERS.md): consumers
// are positions over one ordered log. A pull never pauses the primary
// for longer than a copy under its lock, and it cannot fail for falling
// behind: the primary ships from max(cursor, head), and whatever it
// truncated is by construction below every cursor state it ships.

// Cursor is a follower's position in its primary: the next log record
// it needs, and the newest cursor-state revision it has seen.
type Cursor struct{ Seq, Rev uint64 }

// Replica is a copy of a broker's durable state: the retained log and
// the queues' cursor states. ShipLog returns one — complete when pulled
// from the zero Cursor, otherwise just what changed since — and Merge
// folds a later pull into the follower's copy.
type Replica struct {
	head   uint64 // the primary's log head; recs end at Next.Seq
	recs   []Record
	queues map[string]*QueueState // the states that changed
	live   []string               // every declared queue; the rest are deleted
	// Next is the cursor to pull from next time.
	Next Cursor
}

// LogSeq reports the records ever appended to the log: one per Publish
// that reached a queue, however many queues, deliveries and acks.
func (b *Broker) LogSeq() uint64 { return b.LogCursor().Seq }

// LogCursor reports the position of a follower that has everything.
func (b *Broker) LogCursor() Cursor {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Cursor{Seq: b.log.tail.Load(), Rev: b.rev.Load()}
}

// ShipLog returns the log records from max(since.Seq, head) on plus the
// cursor state of every queue that changed after since.Rev — one
// consistent cut, taken under the broker lock. ok is false only for a
// cursor the log has not reached or a crashed broker, which ships
// nothing (the caller sees the crash via Down and drives failover).
func (b *Broker) ShipLog(since Cursor) (r Replica, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down || since.Seq > b.log.tail.Load() {
		return Replica{Next: since}, false
	}
	// Read the revision first: a queue changing under the copy below is
	// shipped again next time rather than missed.
	r.Next.Rev = b.rev.Load()
	r.queues = make(map[string]*QueueState)
	for name, q := range b.queues {
		r.live = append(r.live, name)
		q.mu.Lock()
		if q.st.rev > since.Rev {
			r.queues[name] = q.st.clone()
		}
		q.mu.Unlock()
	}
	r.recs, r.head, r.Next.Seq = b.log.since(since.Seq)
	return r, true
}

// Merge folds a later pull d, taken from r.Next, into r: the buffer is
// trimmed to the primary's head, so a follower holds what the primary
// holds and nothing older.
func (r *Replica) Merge(d Replica) {
	if drop := min(int(d.head-r.head), len(r.recs)); drop > 0 {
		kept := copy(r.recs, r.recs[drop:])
		clear(r.recs[kept:]) // let the dropped payloads go
		r.recs = r.recs[:kept]
	}
	r.head = d.head
	r.recs = append(r.recs, d.recs...)
	live := make(map[string]*QueueState, len(d.live))
	for _, name := range d.live {
		if st, ok := d.queues[name]; ok {
			live[name] = st
		} else {
			live[name] = r.queues[name]
		}
	}
	r.queues, r.live, r.Next = live, d.live, d.Next
}

// FromReplica constructs a live broker from a replica, consuming it:
// the promotion step. It is a Restart over the shipped log and cursor
// states — delivered-but-unsettled messages come back at the front of
// their queues flagged Redelivered (their acks, if any, died with the
// old primary) — and the new broker is immediately serving, its log
// continuing the shipped one's seq space so it can be shipped from in
// turn.
func FromReplica(r Replica) *Broker {
	b := New()
	b.log = newLog(r.head, r.recs)
	b.disk = r.queues
	b.down = true
	b.Restart()
	return b
}
