package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"synapse/internal/broker"
	"synapse/internal/model"
	"synapse/internal/wire"
)

// reorderFront takes the first len(order) deliveries off the app's queue
// and nacks them back so the queue front reads fetched[order[0]],
// fetched[order[1]], ... — the redelivery reorderings a live system
// produces, made deterministic.
func reorderFront(t *testing.T, a *App, order ...int) {
	t.Helper()
	q := a.Queue()
	ds, err := q.GetBatch(len(order))
	if err != nil || len(ds) != len(order) {
		t.Fatalf("GetBatch(%d) = %d deliveries, %v", len(order), len(ds), err)
	}
	for i := len(order) - 1; i >= 0; i-- { // Nack pushes front
		if err := q.Nack(ds[order[i]].Tag, true); err != nil {
			t.Fatal(err)
		}
	}
}

func createUser(t *testing.T, ctl *Controller, id, name string) {
	t.Helper()
	rec := model.NewRecord("User", id)
	rec.Set("name", name)
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
}

func updateUser(t *testing.T, ctl *Controller, id, name string) {
	t.Helper()
	rec := model.NewRecord("User", id)
	rec.Set("name", name)
	if _, err := ctl.Update(rec); err != nil {
		t.Fatal(err)
	}
}

// TestDependantAheadOfSatisfierSingleWorker is ROADMAP item 1's wedge,
// deterministic: the queue front reads [update u1, create u1] and there
// is one worker. A worker that blocks on the update's dependency never
// fetches the create that satisfies it (processed=0 pending=1 unacked=1
// forever); a worker that parks it does.
func TestDependantAheadOfSatisfierSingleWorker(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			f := NewFabric()
			pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
			sub, _ := newSQLApp(t, f, "sub", Config{Workers: 1, PipelineDepth: depth})
			mustPublish(t, pub, userDesc(), "name")
			mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

			ctl := pub.NewController(nil)
			createUser(t, ctl, "u1", "v1")
			updateUser(t, ctl, "u1", "v2")
			reorderFront(t, sub, 1, 0)

			sub.StartWorkers(1)
			defer sub.StopWorkers()
			mustSettle(t, 2*time.Second, pub, sub)
		})
	}
}

// TestNewGenerationAheadOfLastOldOneSingleWorker is the same shape at
// the generation barrier: the front reads [update (gen g, needs the
// create), update (gen g+1), create (gen g)]. The first waits for the
// last, the second waits for the first to leave generation g, and with
// one worker a blocked wait on either holds the slot the create needs.
func TestNewGenerationAheadOfLastOldOneSingleWorker(t *testing.T) {
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			f := NewFabric()
			pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
			sub, _ := newSQLApp(t, f, "sub", Config{Workers: 1, PipelineDepth: depth})
			mustPublish(t, pub, userDesc(), "name")
			mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

			ctl := pub.NewController(nil)
			createUser(t, ctl, "u1", "g0-create")
			updateUser(t, ctl, "u1", "g0-update")
			pub.Store().Kill()
			pub.RecoverVersionStore()
			updateUser(t, ctl, "u1", "g1-update")
			reorderFront(t, sub, 1, 2, 0)

			sub.StartWorkers(1)
			defer sub.StopWorkers()
			mustSettle(t, 2*time.Second, pub, sub)
		})
	}
}

// fetchJobs takes n deliveries off the app's queue as decoded jobs, the
// way a worker's dispatch loop builds them.
func fetchJobs(t *testing.T, a *App, n int) []*job {
	t.Helper()
	q := a.Queue()
	ds, err := q.GetBatch(n)
	if err != nil || len(ds) != n {
		t.Fatalf("GetBatch(%d) = %d deliveries, %v", n, len(ds), err)
	}
	jobs := make([]*job, n)
	for i, d := range ds {
		msg, err := wire.UnmarshalProjected(d.Payload, a.resolve)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = decodedJob(a, q, d, msg)
	}
	return jobs
}

// decodedJob is a queue job as a worker's dispatch leaves it for a lane,
// taken from App.jobs as a worker's fetch takes it.
func decodedJob(a *App, q *broker.Queue, d broker.Delivery, msg *wire.Message) *job {
	j := a.fetched(q, d)
	j.msg, j.mask, j.at = msg, a.applyMask(msg), time.Now()
	j.state.Store(uint32(stateDecoded))
	return j
}

func parkedAndReady(a *App) (parked, ready int) {
	a.parkMu.Lock()
	defer a.parkMu.Unlock()
	return len(a.parked), len(a.ready)
}

// TestParkedReleasedOnlyAtThreshold drives the park/ready/release cycle
// by hand, no workers: a message needing its object's counter at 2 is
// parked (and counted blocked at once — a stuck subscriber must not
// report 0), an increment to 1 readies nothing, the increment to 2
// readies it, and the re-probe applies it.
func TestParkedReleasedOnlyAtThreshold(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal, DepTracker: TrackerDVV})
	sub, subMapper := newSQLApp(t, f, "sub", Config{DepTracker: TrackerDVV})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "v1")
	updateUser(t, ctl, "u1", "v2")
	updateUser(t, ctl, "u1", "v3")
	jobs := fetchJobs(t, sub, 3)
	create, second, third := jobs[0], jobs[1], jobs[2]

	if st, err := sub.drive(third); st != stateParked || err != nil {
		t.Fatalf("update ahead of its dependencies: %v, %v; want parked", st, err)
	}
	st := sub.Stats()
	if st.DepWaitsBlocked != 1 || len(st.Parked) != 1 {
		t.Fatalf("while parked: DepWaitsBlocked=%d Parked=%q, want 1 and one entry", st.DepWaitsBlocked, st.Parked)
	}
	if !strings.Contains(st.Parked[0], `dot "pub/users/id/u1"`) || !strings.Contains(st.Parked[0], "have 0, need 2") {
		t.Errorf("Parked[0] = %q, want the blocking dot with its counters", st.Parked[0])
	}

	for _, j := range []*job{create, second} {
		if p, r := parkedAndReady(sub); p != 1 || r != 0 {
			t.Fatalf("below the threshold: parked=%d ready=%d, want 1, 0", p, r)
		}
		if st, err := sub.drive(j); st != stateDone || err != nil {
			t.Fatalf("satisfier: %v, %v; want done", st, err)
		}
		sub.commits.Add(j)
		sub.commits.Flush()
	}
	if p, r := parkedAndReady(sub); p != 0 || r != 1 {
		t.Fatalf("at the threshold: parked=%d ready=%d, want 0, 1", p, r)
	}
	batch := sub.takeReady(nil, 4)
	if len(batch) != 1 || batch[0] != third {
		t.Fatalf("takeReady = %v, want the parked update", batch)
	}
	if st, err := sub.drive(third); st != stateDone || err != nil {
		t.Fatalf("released update: %v, %v; want done", st, err)
	}
	if got, err := subMapper.Find("User", "u1"); err != nil || got.String("name") != "v3" {
		t.Fatalf("u1 = %v, %v; want v3", got, err)
	}
	if st := sub.Stats(); st.DepWaitsBlocked != 1 || st.DepWaitBlockedMax <= 0 || len(st.Parked) != 0 {
		t.Errorf("after release: DepWaitsBlocked=%d DepWaitBlockedMax=%v Parked=%q", st.DepWaitsBlocked, st.DepWaitBlockedMax, st.Parked)
	}
}

// TestParkedDepTimeoutReadiesAndAppliesAnyway: a finite DepTimeout that
// expires while the message is parked puts it on the ready list, and the
// worker that takes it gives up the wait the §6.5 way — counted, named,
// applied anyway.
func TestParkedDepTimeoutReadiesAndAppliesAnyway(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, subMapper := newSQLApp(t, f, "sub", Config{DepTimeout: 20 * time.Millisecond})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "v1")
	updateUser(t, ctl, "u1", "v2")
	update := fetchJobs(t, sub, 2)[1]

	if st, err := sub.drive(update); st != stateParked || err != nil {
		t.Fatalf("%v, %v; want parked", st, err)
	}
	waitFor(t, 2*time.Second, func() bool { _, r := parkedAndReady(sub); return r == 1 })
	// DepTimeout counts from the plan (j.at), which precedes the first
	// unmet probe (j.blockedAt) by that probe's window.
	if waited := time.Since(update.at); waited < 20*time.Millisecond {
		t.Fatalf("readied after %v, before its 20ms DepTimeout", waited)
	}
	if st, err := sub.drive(sub.takeReady(nil, 1)[0]); st != stateDone || err != nil {
		t.Fatalf("timed-out update: %v, %v; want done", st, err)
	}
	st := sub.Stats()
	if st.DepTimeouts != 1 || !strings.Contains(st.LastDepTimeout, "blocked on") || !strings.Contains(st.LastDepTimeout, "timed out") {
		t.Errorf("DepTimeouts=%d LastDepTimeout=%q", st.DepTimeouts, st.LastDepTimeout)
	}
	if got, err := subMapper.Find("User", "u1"); err != nil || got.String("name") != "v2" {
		t.Errorf("u1 = %v, %v; want v2 applied past the missing create", got, err)
	}
}

// TestStopWorkersHandsParkedBackInOrder: deliveries parked when the
// workers stop go back to the queue front, nothing stays unacked, and
// the next consumer reads them in the order they were published.
func TestStopWorkersHandsParkedBackInOrder(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newSQLApp(t, f, "sub", Config{Workers: 2})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})

	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "v1")
	q := sub.Queue()
	if d, err := q.Get(); err != nil || q.Ack(d.Tag) != nil { // the create is lost
		t.Fatal(err)
	}
	const updates = 5
	for i := 0; i < updates; i++ {
		updateUser(t, ctl, "u1", fmt.Sprintf("v%d", i+2))
	}
	sub.StartWorkers(0)
	waitFor(t, 2*time.Second, func() bool { return len(sub.Stats().Parked) == updates })
	sub.StopWorkers()

	if got := q.Unacked(); got != 0 {
		t.Fatalf("Unacked = %d after StopWorkers, want 0", got)
	}
	if p, r := parkedAndReady(sub); p != 0 || r != 0 {
		t.Fatalf("parked=%d ready=%d after StopWorkers, want 0, 0", p, r)
	}
	ds, err := q.GetBatch(updates)
	if err != nil || len(ds) != updates {
		t.Fatalf("GetBatch = %d deliveries, %v; want all %d handed back", len(ds), err, updates)
	}
	var last uint64
	for _, d := range ds {
		msg, err := wire.Unmarshal(d.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Seq <= last {
			t.Fatalf("handed back out of order: seq %d after %d", msg.Seq, last)
		}
		last = msg.Seq
	}
}
