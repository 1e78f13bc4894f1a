package core

import (
	"cmp"
	"slices"
)

// window is a worker's apply window as a pure state machine: step takes
// one event and returns the actions that follow, for the executor
// (worker.run) to perform, feeding back what came of them. It has no
// channels, clocks or goroutines and calls nothing. Jobs dispatch in
// fetch order while a slot is free, the results owed fit the results
// buffer (two per slot), the job's mask misses every in-flight mask, and
// — the chain clause — its needs miss the last dispatched job's mask
// until that job has landed, parked or failed. A window that refills
// slides: it asks for a job per free slot while others are in flight,
// and waits for one only once drained. A stop or failure ends dispatch;
// drained, the window nacks the tail, then the failures, each newest
// first, so the queue front reads [failed..., rest...]. DESIGN §2j has
// the event → action table and the invariants TestWindowExhaustive checks.
type window struct {
	depth    int
	refills  bool   // a pool worker's: it fetches for itself
	queue    []*job // fetched, in fetch order: queue[next:] not dispatched
	next     int
	failed   []event // failed results, until they are nacked
	inflight int     // dispatched, no done, parked or failed result yet
	flushing int     // done, not landed
	mask     uint64  // the in-flight jobs' masks
	ids      uint64  // dispatches so far, each one's id
	last     uint64  // the last dispatch's id, until its landed, parked or failed result
	lastMask uint64
	fetching bool // a refill is out: its fetched, or a stop, comes next
	short    bool // the last refill took nothing while jobs were in flight
	ended    bool // a refill failed: none until the window drains
	stopping bool
	acts     []action
}

type eventKind uint8

const (
	evFetched eventKind = iota // jobs, decoded, and what ended the fetch
	evDone                     // the slot frees; the flush is on
	evLanded                   // a done job's flush returned
	evParked
	evFailed // job comes back, for a nack
	evStop
	evNudge // a job was readied or credit returned
)

// event is a fetch, a lane's result for dispatch id (with the job's mask
// read before it ran), a stop or a nudge.
type event struct {
	kind eventKind
	jobs []*job
	err  error
	id   uint64
	mask uint64
	job  *job
}

type actionKind uint8

const (
	actDispatch actionKind = iota // job to a lane as dispatch id; n in flight after it
	actRefill                     // fetch up to n, blocking for the first if wait
	actNack                       // job to the queue front; failed: a counted attempt
	actBackoff                    // before the failures' redelivery; n: their most attempts
)

type action struct {
	kind         actionKind
	job          *job
	id           uint64
	n            int
	wait, failed bool
}

// step applies ev and returns what to do next, in a reused buffer.
func (w *window) step(ev event) []action {
	w.acts = w.acts[:0]
	switch ev.kind {
	case evFetched:
		w.fetching = false
		w.queue = append(w.queue, ev.jobs...)
		w.ended = w.ended || ev.err != nil
	case evLanded:
		w.flushing--
	case evStop:
		w.fetching, w.stopping = false, true
	case evDone, evParked, evFailed:
		w.inflight--
		w.mask &^= ev.mask
		if ev.kind == evDone {
			w.flushing++
		} else if ev.kind == evFailed {
			w.failed = append(w.failed, ev)
		}
	}
	w.short = ev.kind == evFetched && ev.err == nil && len(ev.jobs) == 0 && w.inflight > 0
	if ev.id == w.last && ev.kind != evDone {
		w.last = 0
	}
	ending := w.stopping || len(w.failed) > 0
	if ending && w.inflight+w.flushing == 0 {
		w.unwind()
	}
	for !ending && w.next < len(w.queue) && w.room() > 0 {
		j := w.queue[w.next]
		if j.mask&w.mask != 0 || w.last != 0 && j.needs&w.lastMask != 0 {
			break
		}
		w.next++
		w.ids++
		w.inflight++
		w.mask |= j.mask
		w.last, w.lastMask = w.ids, j.mask
		w.acts = append(w.acts, action{kind: actDispatch, job: j, id: w.ids, n: w.inflight})
	}
	if w.next == len(w.queue) {
		clear(w.queue) // the jobs are the lanes' now, or nacked
		w.queue, w.next = w.queue[:0], 0
		if w.refills && !w.stopping && len(w.failed) == 0 {
			switch room := w.room(); {
			case w.inflight+w.flushing == 0:
				w.ended, w.fetching = false, true
				w.acts = append(w.acts, action{kind: actRefill, n: w.depth, wait: true})
			case w.inflight > 0 && room > 0 && !w.ended && !w.short:
				w.fetching = true
				w.acts = append(w.acts, action{kind: actRefill, n: room})
			}
		}
	}
	return w.acts
}

// room is the free slots, less one per two landed results owed.
func (w *window) room() int { return w.depth - w.inflight - (w.flushing+1)/2 }

// unwind hands a drained, stopped or failed window's tail and then its
// failures back to the queue front, each newest first.
func (w *window) unwind() {
	for i := len(w.queue) - 1; i >= w.next; i-- {
		w.acts = append(w.acts, action{kind: actNack, job: w.queue[i]})
	}
	w.next = len(w.queue)
	slices.SortFunc(w.failed, func(a, b event) int { return cmp.Compare(b.id, a.id) })
	attempts := 0
	for _, r := range w.failed {
		attempts = max(attempts, r.job.d.Attempts)
		w.acts = append(w.acts, action{kind: actNack, job: r.job, failed: true})
	}
	if len(w.failed) > 0 {
		w.acts = append(w.acts, action{kind: actBackoff, n: attempts})
	}
	clear(w.failed)
	w.failed = w.failed[:0]
}

// over reports a drained window that does not refill, or has stopped.
func (w *window) over() bool {
	return !w.fetching && w.inflight+w.flushing == 0 && w.next == len(w.queue) && len(w.failed) == 0 && (!w.refills || w.stopping)
}
