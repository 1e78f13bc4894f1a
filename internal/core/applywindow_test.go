package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"synapse/internal/broker"
)

// windowShapes are the job lists the exhaustive test runs, each as
// (mask, needs) pairs: objects that never meet, one object written five
// times, a chain where each job needs the one before it, and a mix.
var windowShapes = []struct {
	name string
	jobs [][2]uint64
}{
	{"apart", [][2]uint64{{1, 0}, {2, 0}, {4, 0}, {8, 0}, {16, 0}}},
	{"one object", [][2]uint64{{1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0}}},
	{"chain", [][2]uint64{{1, 0}, {2, 1}, {4, 2}, {8, 4}, {1, 8}}},
	{"mixed", [][2]uint64{{1, 0}, {1, 0}, {2, 1}, {4, 0}, {2, 4}}},
}

// TestWindowExhaustive drives the apply window through every event
// sequence a worker can feed it — fetches of every size with and
// without an error, each in-flight job done (then landed), parked or
// failed in every order, a stop anywhere, a nudge whenever it listens —
// for depths 1–3, up to five jobs, refilling or not, and checks every
// step against windowModel. What may follow a step, and what it must
// do, depends only on the state it leaves, so a state reached along
// several sequences is searched once and counts for all of them.
func TestWindowExhaustive(t *testing.T) {
	start := time.Now()
	sequences, states := 0, 0
	for depth := 1; depth <= 3; depth++ {
		for _, refills := range []bool{false, true} {
			for _, shape := range windowShapes {
				for n := 1; n <= len(shape.jobs); n++ {
					x := &windowExplorer{t: t, depth: depth, refills: refills, name: shape.name, seen: map[windowKey]int{}}
					for i, mn := range shape.jobs[:n] {
						j := &job{}
						j.mask, j.needs = mn[0], mn[1]
						j.d = broker.Delivery{Tag: uint64(i), Attempts: (i * 2) % 3}
						x.jobs = append(x.jobs, j)
					}
					var first []*job // a refilling window starts empty and fetches
					if !refills {
						first = x.jobs // a hand-built batch: all of it
					}
					n := x.feed(windowModel{win: window{depth: depth, refills: refills}, last: -1}, event{kind: evFetched, jobs: first})
					if t.Failed() {
						return
					}
					sequences, states = sequences+n, states+len(x.seen)
				}
			}
		}
	}
	t.Logf("%d event sequences through %d states in %v", sequences, states, time.Since(start))
	if sequences < 10_000 {
		t.Errorf("%d event sequences, want at least 10,000", sequences)
	}
}

var errTestFetch = errors.New("fetch refused")

type jobFate uint8

const (
	fateUnfetched jobFate = iota
	fateQueued            // fetched, not dispatched
	fateInFlight
	fateFlushing // done, not landed
	fateFailed   // failed, not yet nacked
	fateOver     // landed or parked
	fateNacked
)

// windowModel is what the test knows of a window: each job's fate, and
// the facts the rules are stated in. It is a value: every branch of the
// search gets its own copy, with its own clone of the window.
type windowModel struct {
	win     window
	fate    [5]jobFate
	id      [5]uint64
	fetched int
	last    int  // the last dispatched job, -1 before the first
	open    bool // last's landed, parked or failed result is not in

	stopped, failing, ended, short bool
	refill                         *action // the refill out, whose fetched comes next
	empties, errs                  int     // fetches that took nothing with jobs left, or failed
}

// windowKey is a windowModel, its window included, as a map key.
type windowKey struct {
	fate                                  [5]jobFate
	id                                    [5]uint64
	queue                                 [5]int // the undispatched jobs, -1 after them
	failed                                [5]uint64
	fetched, last, empties, errs, refillN int
	open, stopped, failing, ended, short  bool
	refill, refillWait                    bool
	inflight, flushing                    int
	mask, ids, wlast, lastMask            uint64
	fetching, wshort, wended, stopping    bool
}

func (m *windowModel) key() windowKey {
	w := &m.win
	k := windowKey{
		fate: m.fate, id: m.id, fetched: m.fetched, last: m.last, empties: m.empties, errs: m.errs,
		open: m.open, stopped: m.stopped, failing: m.failing, ended: m.ended, short: m.short, refill: m.refill != nil,
		inflight: w.inflight, flushing: w.flushing, mask: w.mask, ids: w.ids, wlast: w.last, lastMask: w.lastMask,
		fetching: w.fetching, wshort: w.short, wended: w.ended, stopping: w.stopping,
	}
	if m.refill != nil {
		k.refillN, k.refillWait = m.refill.n, m.refill.wait
	}
	for i := range k.queue {
		k.queue[i] = -1
		if w.next+i < len(w.queue) {
			k.queue[i] = int(w.queue[w.next+i].d.Tag)
		}
	}
	for i, r := range w.failed {
		k.failed[i] = r.id
	}
	return k
}

type windowExplorer struct {
	t       *testing.T
	name    string
	depth   int
	refills bool
	jobs    []*job
	trace   []event
	seen    map[windowKey]int // the sequences that go on from each state searched
}

// feed gives the event to a copy of m's window, checks what comes back
// and goes on to every event that may follow. It returns the number of
// sequences that end in the event's subtree.
func (x *windowExplorer) feed(m windowModel, ev event) int {
	if x.t.Failed() {
		return 0
	}
	x.trace = append(x.trace, ev)
	defer func() { x.trace = x.trace[:len(x.trace)-1] }()
	m.win.queue, m.win.failed, m.win.acts = slices.Clone(m.win.queue), slices.Clone(m.win.failed), nil
	switch ev.kind {
	case evFetched:
		for range ev.jobs {
			m.fate[m.fetched] = fateQueued
			m.fetched++
		}
		m.ended = m.ended || ev.err != nil
		m.short = m.refill != nil && !m.refill.wait && ev.err == nil && len(ev.jobs) == 0
		m.refill = nil
	case evDone, evLanded, evParked, evFailed:
		k := slices.Index(m.id[:], ev.id)
		m.fate[k] = [...]jobFate{evDone: fateFlushing, evLanded: fateOver, evParked: fateOver, evFailed: fateFailed}[ev.kind]
		m.failing = m.failing || ev.kind == evFailed
		m.open = m.open && !(k == m.last && ev.kind != evDone)
		m.short = false
	case evStop:
		m.stopped, m.refill = true, nil
	case evNudge:
		m.short = false
	}
	if err := m.check(m.win.step(ev), x); err != "" {
		trace := make([]string, len(x.trace))
		for i, ev := range x.trace {
			trace[i] = describe(ev)
		}
		x.t.Fatalf("%s, depth %d, %d jobs, refills %v: %s\nafter %s", x.name, x.depth, len(x.jobs), x.refills, err, strings.Join(trace, ", "))
	}
	k := m.key()
	n, ok := x.seen[k]
	if !ok {
		n = x.next(m)
		x.seen[k] = n
	}
	return n
}

// next feeds every event that may follow m, and returns the number of
// sequences that end after it.
func (x *windowExplorer) next(m windowModel) (n int) {
	left := len(x.jobs) - m.fetched
	if r := m.refill; r != nil {
		if r.wait && left == 0 { // nothing more will come, but a stop may
			return 1 + x.feed(m, event{kind: evStop})
		}
		for k := range min(r.n, left) + 1 {
			for _, err := range []error{nil, errTestFetch} {
				b := m
				if k == 0 && left > 0 {
					b.empties++
				}
				if err != nil {
					b.errs++
				}
				if b.empties > 1 || b.errs > 1 {
					continue
				}
				n += x.feed(b, event{kind: evFetched, jobs: x.jobs[m.fetched : m.fetched+k], err: err})
			}
		}
		return n + x.feed(m, event{kind: evStop})
	}
	if m.win.over() {
		return 1
	}
	for i, j := range x.jobs {
		r := event{id: m.id[i], mask: j.mask}
		switch m.fate[i] {
		case fateInFlight:
			for _, kind := range []eventKind{evDone, evParked, evFailed} {
				r.kind, r.job = kind, nil
				if kind == evFailed {
					r.job = j
				}
				n += x.feed(m, r)
			}
		case fateFlushing:
			r.kind = evLanded
			n += x.feed(m, r)
		}
	}
	if !m.stopped {
		n += x.feed(m, event{kind: evStop})
	}
	if m.win.short && left > 0 {
		n += x.feed(m, event{kind: evNudge})
	}
	return n
}

func describe(ev event) string {
	switch ev.kind {
	case evFetched:
		return fmt.Sprintf("fetched %d (err %v)", len(ev.jobs), ev.err != nil)
	case evStop:
		return "stop"
	case evNudge:
		return "nudge"
	}
	return fmt.Sprintf("#%d %s", ev.id, [...]string{evDone: "done", evLanded: "landed", evParked: "parked", evFailed: "failed"}[ev.kind])
}

func (m *windowModel) count(f jobFate) (n int) {
	for _, g := range m.fate {
		if g == f {
			n++
		}
	}
	return n
}

// check holds the actions of one step, and the state they leave, to the
// window's rules. It returns what broke, or "".
func (m *windowModel) check(acts []action, x *windowExplorer) string {
	jobs, depth := x.jobs, x.depth
	var front, failedNacks, tailNacks []int // front: the queue front the nacks leave
	for _, a := range acts {
		if m.refill != nil {
			return "an action after the refill"
		}
		k := -1
		if a.job != nil {
			k = int(a.job.d.Tag)
		}
		switch a.kind {
		case actDispatch:
			switch {
			case m.fate[k] != fateQueued:
				return fmt.Sprintf("job %d dispatched as %d", k, m.fate[k])
			case m.stopped || m.failing:
				return fmt.Sprintf("job %d dispatched after a stop or failure", k)
			case slices.Contains(m.fate[:k], fateQueued):
				return fmt.Sprintf("job %d dispatched ahead of a job fetched before it", k)
			case m.open && jobs[k].needs&jobs[m.last].mask != 0:
				return fmt.Sprintf("job %d dispatched while job %d, whose objects it needs, has not landed", k, m.last)
			}
			for i := range m.fetched {
				if m.fate[i] == fateInFlight && jobs[i].mask&jobs[k].mask != 0 {
					return fmt.Sprintf("jobs %d and %d in flight with overlapping masks", i, k)
				}
			}
			m.fate[k], m.id[k], m.last, m.open = fateInFlight, a.id, k, true
			if a.n != m.count(fateInFlight) {
				return fmt.Sprintf("dispatch reports %d in flight, %d are", a.n, m.count(fateInFlight))
			}
		case actNack:
			want := fateQueued
			if a.failed {
				want = fateFailed
				failedNacks = append(failedNacks, k)
			} else {
				tailNacks = append(tailNacks, k)
			}
			switch {
			case m.fate[k] != want:
				return fmt.Sprintf("job %d nacked (failed %v) as %d", k, a.failed, m.fate[k])
			case m.count(fateInFlight)+m.count(fateFlushing) > 0:
				return fmt.Sprintf("job %d nacked before the window drained", k)
			}
			m.fate[k] = fateNacked
			front = append([]int{k}, front...)
		case actBackoff:
			most := -1
			for _, k := range failedNacks {
				most = max(most, jobs[k].d.Attempts)
			}
			if most < 0 || a.n != most {
				return fmt.Sprintf("backoff(%d) after failures %v", a.n, failedNacks)
			}
		case actRefill:
			drained := m.count(fateInFlight)+m.count(fateFlushing) == 0
			switch {
			case !x.refills || m.stopped:
				return "a refill from a window that does not refill"
			case a.wait != drained || a.n < 1 || a.n > depth || a.wait && a.n != depth:
				return fmt.Sprintf("refill(%d, wait %v) with %d in flight, %d flushing", a.n, a.wait, m.count(fateInFlight), m.count(fateFlushing))
			case drained && slices.ContainsFunc(m.fate[:m.fetched], func(f jobFate) bool { return f != fateOver && f != fateNacked }):
				return "a refill that waits while a fetched job has not ended"
			}
			if a.wait {
				m.ended = false
			}
			m.refill = &a
		}
	}
	if len(front) > 0 {
		slices.Sort(failedNacks)
		slices.Sort(tailNacks)
		if want := append(failedNacks, tailNacks...); !slices.Equal(front, want) {
			return fmt.Sprintf("the nacks leave the queue front %v, want %v", front, want)
		}
		if n := m.count(fateQueued) + m.count(fateFailed); n > 0 {
			return fmt.Sprintf("%d jobs left neither dispatched nor nacked", n)
		}
		m.failing = false
	}

	inflight, flushing := m.count(fateInFlight), m.count(fateFlushing)
	if owed := 2*inflight + flushing; owed > 2*depth {
		return fmt.Sprintf("%d results owed, more than two per slot", owed)
	}
	if !m.stopped && !m.failing {
		if h := slices.Index(m.fate[:m.fetched], fateQueued); h >= 0 {
			if inflight < depth && 2*(inflight+1)+flushing <= 2*depth && !(m.open && jobs[h].needs&jobs[m.last].mask != 0) &&
				!slices.ContainsFunc(jobs[:m.fetched], func(j *job) bool { return m.fate[j.d.Tag] == fateInFlight && j.mask&jobs[h].mask != 0 }) {
				return fmt.Sprintf("job %d could be dispatched and a slot stays empty", h)
			}
		} else if x.refills && m.refill == nil && !m.ended && !m.short &&
			(inflight+flushing == 0 || inflight > 0 && 2*(inflight+1)+flushing <= 2*depth) {
			return "a slot stays empty and no refill asks for its job"
		}
	}
	over := m.win.over()
	switch {
	case m.refill == nil && !over && inflight+flushing == 0:
		return "the window waits with nothing to come"
	case over && x.refills && !m.stopped:
		return "a refilling window is over without a stop"
	case over && slices.ContainsFunc(m.fate[:m.fetched], func(f jobFate) bool { return f != fateOver && f != fateNacked }):
		return "the window is over with a fetched job not ended"
	}
	return ""
}
