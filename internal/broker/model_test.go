package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkTruncation arms the truncation invariant on b: no truncation may
// ever move the log head past a live queue's low-water mark.
func checkTruncation(t *testing.T, b *Broker) {
	b.SetTruncateHook(func(head uint64, lows map[string]uint64) {
		for name, low := range lows {
			if low < head {
				t.Errorf("truncated to %d past queue %s's low-water mark %d", head, name, low)
			}
		}
	})
}

// retained reports the records the log still holds.
func retained(b *Broker) int {
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	return int(b.log.tail.Load() - b.log.head)
}

// The reference model: one naive slice per queue holding its own copy
// of every message, the way the broker used to. It knows nothing of
// logs, cursors or segments.
type refMsg struct {
	n         int // publish order
	payload   string
	exchange  string
	fails     int
	delivered bool
}

type refQueue struct {
	maxLen, maxAttempts int
	bound               map[string]bool
	pending             []*refMsg // pending[0] is next
	inflight            map[uint64]*refMsg
	parked              []*refMsg
	dead                bool
	deadLettered        int64
	redelivered         int64
	maxDepth            int
}

func newRefQueue(maxLen, maxAttempts int) *refQueue {
	return &refQueue{maxLen: maxLen, maxAttempts: maxAttempts, bound: map[string]bool{}, inflight: map[uint64]*refMsg{}}
}

func (r *refQueue) depth() int { return len(r.pending) + len(r.inflight) }

func (r *refQueue) pushFront(m *refMsg) { r.pending = append([]*refMsg{m}, r.pending...) }

func (r *refQueue) publish(m refMsg) {
	if r.dead || !r.bound[m.exchange] {
		return
	}
	r.pending = append(r.pending, &m)
	r.maxDepth = max(r.maxDepth, r.depth())
	if r.maxLen > 0 && r.depth() > r.maxLen {
		r.dead, r.pending, r.parked, r.inflight = true, nil, nil, map[uint64]*refMsg{}
	}
}

// bounce is what a crash does:
// everything ever handed out and not settled comes back first, in
// publish order; the rest follows, untouched.
func (r *refQueue) bounce() {
	var redo, fresh []*refMsg
	for _, m := range r.inflight {
		redo = append(redo, m)
	}
	for _, m := range r.pending {
		if m.delivered {
			redo = append(redo, m)
		} else {
			fresh = append(fresh, m)
		}
	}
	sort.Slice(redo, func(i, j int) bool { return redo[i].n < redo[j].n })
	r.pending, r.inflight = append(redo, fresh...), map[uint64]*refMsg{}
}

// lossy drops a few (queue, message) pairs on q1's way in.
func lossy(queue, _ string, payload []byte) bool {
	var n int
	_, _ = fmt.Sscanf(string(payload), "m%d", &n)
	return queue == "q1" && n%17 == 5
}

// TestBrokerCrashRestartProperty drives the broker and the reference
// model through the same seeded random schedule — three queues over two
// exchanges, one bound late, one bounded so that it decommissions and
// is deleted and re-declared, per-(queue, message) loss, failed
// attempts that park and are replayed, crash/restarts at random
// points — and demands the same observable state after every step and
// the same drain, message for message, at the end.
func TestBrokerCrashRestartProperty(t *testing.T) {
	seeds, steps := 10, 3000
	if testing.Short() {
		seeds, steps = 4, 1000
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			names := []string{"q0", "q1", "q2"}
			exchanges := []string{"exA", "exB"}
			maxLen := map[string]int{"q2": 40}
			var b *Broker
			qs := map[string]*Queue{}
			ref := map[string]*refQueue{}
			adopt := func(nb *Broker) {
				b = nb
				b.SetLoss(lossy)
				checkTruncation(t, b)
				for _, name := range names {
					q, ok := b.Queue(name)
					if !ok {
						t.Fatalf("queue %s lost", name)
					}
					qs[name] = q
				}
			}
			declare := func(name string, bind ...string) {
				q, err := b.DeclareQueue(name, maxLen[name])
				if err != nil {
					t.Fatal(err)
				}
				q.SetMaxAttempts(2)
				qs[name], ref[name] = q, newRefQueue(maxLen[name], 2)
				for _, ex := range bind {
					if err := b.Bind(name, ex); err != nil {
						t.Fatal(err)
					}
					ref[name].bound[ex] = true
				}
			}
			b = New()
			declare("q0", "exA", "exB")
			declare("q1", "exA") // bound to exB later
			declare("q2", "exA", "exB")
			adopt(b)

			check := func(step int, op string) {
				t.Helper()
				for _, name := range names {
					q, r := qs[name], ref[name]
					got := []int64{int64(q.Len()), int64(q.Unacked()), int64(q.Depth()), int64(q.DeadLetterCount()),
						q.DeadLettered(), q.Redelivered(), int64(q.MaxDepthSeen())}
					want := []int64{int64(len(r.pending)), int64(len(r.inflight)), int64(r.depth()), int64(len(r.parked)),
						r.deadLettered, r.redelivered, int64(r.maxDepth)}
					if fmt.Sprint(got) != fmt.Sprint(want) || q.Dead() != r.dead {
						t.Fatalf("step %d (%s): %s len/unacked/depth/parked/deadLettered/redelivered/maxDepth = %v dead=%v, model %v dead=%v",
							step, op, name, got, q.Dead(), want, r.dead)
					}
				}
			}
			// take checks one delivery against the model's next message.
			take := func(name string, d Delivery) {
				t.Helper()
				r := ref[name]
				m := r.pending[0]
				r.pending = r.pending[1:]
				if string(d.Payload) != m.payload || d.Exchange != m.exchange || d.Redelivered != m.delivered || d.Attempts != m.fails {
					t.Fatalf("%s delivered %q from %s redelivered=%v attempts=%d, model %+v", name, d.Payload, d.Exchange, d.Redelivered, d.Attempts, *m)
				}
				if m.delivered {
					r.redelivered++
				}
				m.delivered = true
				r.inflight[d.Tag] = m
			}
			anyTag := func(r *refQueue) (uint64, *refMsg, bool) {
				for tag, m := range r.inflight {
					delete(r.inflight, tag)
					return tag, m, true
				}
				return 0, nil, false
			}

			published := 0
			for step := 0; step < steps; step++ {
				name := names[rng.Intn(len(names))]
				q, r := qs[name], ref[name]
				op := ""
				switch k := rng.Intn(100); {
				case k < 34:
					op = "publish"
					m := refMsg{n: published, payload: fmt.Sprintf("m%d", published), exchange: exchanges[rng.Intn(2)]}
					published++
					if err := b.Publish(m.exchange, []byte(m.payload)); err != nil {
						t.Fatal(err)
					}
					for _, qn := range names {
						if !lossy(qn, m.exchange, []byte(m.payload)) {
							ref[qn].publish(m)
						}
					}
				case k < 60:
					op = "get " + name
					if r.dead {
						if _, _, err := q.TryGet(); !errors.Is(err, ErrDecommissioned) {
							t.Fatalf("TryGet on dead %s: %v", name, err)
						}
						break
					}
					if len(r.pending) == 0 {
						if _, ok, err := q.TryGet(); ok || err != nil {
							t.Fatalf("TryGet on empty %s: %v %v", name, ok, err)
						}
						break
					}
					n := 1 + rng.Intn(4)
					ds, err := q.GetBatch(n)
					if err != nil || len(ds) != min(n, len(r.pending)) {
						t.Fatalf("GetBatch(%d) on %s with %d ready = %d deliveries, %v", n, name, len(r.pending), len(ds), err)
					}
					for _, d := range ds {
						take(name, d)
					}
				case k < 78:
					op = "ack " + name
					var tags []uint64
					for i := rng.Intn(4); i >= 0; i-- {
						if tag, _, ok := anyTag(r); ok {
							tags = append(tags, tag)
						}
					}
					if err := q.AckMulti(tags); err != nil {
						t.Fatalf("AckMulti: %v", err)
					}
				case k < 83:
					op = "nack " + name
					if tag, m, ok := anyTag(r); ok {
						requeue := rng.Intn(4) > 0
						if err := q.Nack(tag, requeue); err != nil {
							t.Fatal(err)
						}
						if requeue {
							r.pushFront(m)
						}
					}
				case k < 90:
					op = "fail " + name
					if tag, m, ok := anyTag(r); ok {
						m.fails++
						parks := m.fails >= r.maxAttempts
						if dead, err := q.NackError(tag); err != nil || dead != parks {
							t.Fatalf("NackError = %v, %v; model parks=%v", dead, err, parks)
						}
						if parks {
							r.parked = append(r.parked, m)
							r.deadLettered++
						} else {
							r.pushFront(m)
						}
					}
				case k < 92:
					op = "replay " + name
					if n := q.ReplayDeadLetters(); n != len(r.parked) {
						t.Fatalf("ReplayDeadLetters = %d, model %d", n, len(r.parked))
					}
					for i := len(r.parked) - 1; i >= 0; i-- {
						r.parked[i].fails = 0
						r.pushFront(r.parked[i])
					}
					r.parked = nil
					r.maxDepth = max(r.maxDepth, r.depth())
				case k < 94:
					op = "bind q1 exB"
					if err := b.Bind("q1", "exB"); err != nil {
						t.Fatal(err)
					}
					ref["q1"].bound["exB"] = true
				case k < 96:
					// The §4.4 recovery: only a decommissioned queue is deleted
					// and declared again, and it starts from nothing.
					if !ref["q2"].dead {
						continue
					}
					op = "re-declare q2"
					b.DeleteQueue("q2")
					declare("q2", "exA", "exB")
				default:
					op = "crash+restart"
					b.Crash()
					if _, err := q.GetBatch(1); !errors.Is(err, ErrBrokerDown) {
						t.Fatalf("pre-crash handle: %v", err)
					}
					b.Restart()
					adopt(b)
					for _, r := range ref {
						r.bounce()
					}
				}
				check(step, op)
			}

			// Final bounce, then drain: every queue must hand out exactly
			// the model's messages, in the model's order.
			b.Crash()
			b.Restart()
			adopt(b)
			for _, name := range names {
				r := ref[name]
				r.bounce()
				for len(r.pending) > 0 {
					d, ok, err := qs[name].TryGet()
					if err != nil || !ok {
						t.Fatalf("drain %s with %d left: %v %v", name, len(r.pending), ok, err)
					}
					take(name, d)
					if err := qs[name].Ack(d.Tag); err != nil {
						t.Fatal(err)
					}
				}
				if !r.dead {
					if _, ok, err := qs[name].TryGet(); ok || err != nil {
						t.Fatalf("%s holds more than the model: %v %v", name, ok, err)
					}
				}
			}
			if published > 2*segmentSize && b.LogSegments() > 1 {
				t.Fatalf("drained broker retains %d segments", b.LogSegments())
			}
		})
	}
}
