package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"synapse/internal/faultinject"
	"synapse/internal/model"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// applyLog subscribes sub to pub's users with a callback that records
// every apply as "id=name", in order; block, when it names an id, holds
// that apply until it is closed and signals entered first.
func applyLog(t *testing.T, pub, sub *App, block string, entered, release chan struct{}) func() []string {
	var (
		mu  sync.Mutex
		log []string
	)
	d := userDesc()
	for _, h := range []model.Hook{model.AfterCreate, model.AfterUpdate} {
		d.Callbacks.On(h, func(ctx *model.CallbackCtx) error {
			mu.Lock()
			log = append(log, ctx.Record.ID+"="+ctx.Record.String("name"))
			mu.Unlock()
			if ctx.Record.ID == block {
				close(entered)
				<-release
			}
			return nil
		})
	}
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, d, SubSpec{From: "pub", Attrs: []string{"name"}})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(log)
	}
}

// isRecycled reports whether j went back to App.jobs: reset, at fetched.
func isRecycled(j *job) bool {
	return j.load() == stateFetched && j.q == nil && j.msg == nil && j.incr == nil
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestLateDepTimeoutWakeOnReusedJob: a DepTimeout timer whose Stop lost
// the race fires after its job is done, flushed and reused for the next
// delivery, while that delivery is parked or still probing. The wake costs
// it one extra look: it is readied, parked or not. A second worker takes
// the ready job and hands it back, recycled, with nothing but the ready
// list between it and the wake, so release (parked) and park (probing)
// must have read the job's queue under parkMu: the race detector, or a
// nil queue, says so otherwise. Both messages the job carried apply
// exactly once, in order.
func TestLateDepTimeoutWakeOnReusedJob(t *testing.T) {
	for _, when := range []string{"parked", "probing"} {
		t.Run(when, func(t *testing.T) { testLateDepTimeoutWakeOnReusedJob(t, when) })
	}
}

func testLateDepTimeoutWakeOnReusedJob(t *testing.T, when string) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newSQLApp(t, f, "sub", Config{DepTimeout: time.Hour})
	applied := applyLog(t, pub, sub, "", nil, nil)
	ctl, ctl2 := pub.NewController(nil), pub.NewController(nil)
	createUser(t, ctl, "u1", "v1")
	updateUser(t, ctl, "u1", "v2")
	createUser(t, ctl2, "u2", "w1")
	updateUser(t, ctl2, "u2", "w2")
	q := sub.Queue()
	ds, err := q.GetBatch(4)
	if err != nil || len(ds) != 4 {
		t.Fatalf("GetBatch = %d, %v", len(ds), err)
	}
	decode := func(j *job) *job {
		msg, err := wire.UnmarshalProjected(j.d.Payload, sub.resolve)
		if err != nil {
			t.Fatal(err)
		}
		j.msg, j.mask, j.at = msg, sub.applyMask(msg), time.Now()
		j.state.Store(uint32(stateDecoded))
		return j
	}
	drive := func(j *job, want jobState) {
		t.Helper()
		if st, err := sub.drive(j); st != want || err != nil {
			t.Fatalf("drive = %v, %v; want %v", st, err, want)
		}
	}
	commit := func(j *job) {
		sub.commits.Add(j)
		sub.commits.Flush()
	}

	// The first trip: u1's update parks ahead of its create, its timer
	// armed; the create's increment readies it, and it is done, flushed
	// and recycled. Its timer was stopped, but keeps its function.
	create, j := decode(sub.fetched(q, ds[0])), decode(sub.fetched(q, ds[1]))
	drive(j, stateParked)
	timer := j.timer
	drive(create, stateDone)
	commit(create)
	if ready := sub.takeReady(nil, 1); len(ready) != 1 || ready[0] != j {
		t.Fatalf("takeReady = %v, want the update", ready)
	}
	drive(j, stateDone)
	commit(j)
	if !isRecycled(j) {
		t.Fatalf("the update's job was not recycled: %v", j.load())
	}

	// The second trip: the next fetch takes the job back (unless the race
	// detector's pool dropped it; then it is nobody's) for u2's update,
	// which parks ahead of u2's create. A second worker hands back what
	// the ready list holds.
	for x := sub.jobs.Get(); x != j; x = sub.jobs.Get() {
		if x != create {
			sub.jobs.Put(x)
			break
		}
	}
	j.q, j.d = q, ds[3]
	handedBack := make(chan struct{})
	go func() {
		defer close(handedBack)
		for {
			if ready := sub.takeReady(nil, 1); len(ready) == 1 {
				sub.move(ready[0], stateFailed)
				sub.recycle(ready[0])
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if when == "parked" {
		drive(decode(j), stateParked)
		timer.Reset(0) // the first trip's timer fires now
	} else {
		sub.Store().OnWait(func() { // ... or now, in the probe's window
			timer.Reset(0)
			for j.load() != stateReady {
				time.Sleep(time.Millisecond)
			}
		})
		drive(decode(j), stateParked)
		sub.Store().OnWait(nil)
	}
	<-handedBack
	if !isRecycled(j) {
		t.Fatalf("the handed-back job was not recycled: %v", j.load())
	}
	sub.nack(q, ds[3].Tag, ackNack)
	sub.nack(q, ds[2].Tag, ackNack)

	sub.StartWorkers(1)
	defer sub.StopWorkers()
	waitFor(t, 5*time.Second, func() bool { return len(applied()) >= 4 })
	sub.StopWorkers()
	if got, want := applied(), []string{"u1=v1", "u1=v2", "u2=w1", "u2=w2"}; !slices.Equal(got, want) {
		t.Errorf("applied %q, want %q", got, want)
	}
	if q.Unacked() != 0 || q.Len() != 0 {
		t.Errorf("unacked=%d pending=%d, want 0 and 0", q.Unacked(), q.Len())
	}
}

// TestParkedJobFinishedByAnotherWorker: a job that parks on one worker's
// lane is resumed, finished and recycled by a second worker while the
// first worker's batch still runs. The first frees the job's window slot
// with the mask its lane read before the job ran (its result event), not the
// job's own, which by then belongs to the pool: reading that races with
// the recycling under the race detector.
func TestParkedJobFinishedByAnotherWorker(t *testing.T) {
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
	sub, _ := newSQLApp(t, f, "sub", Config{PipelineDepth: 2})
	entered, release := make(chan struct{}), make(chan struct{})
	applied := applyLog(t, pub, sub, "hold", entered, release)
	ctl := pub.NewController(nil)
	createUser(t, ctl, "u1", "v1")
	updateUser(t, ctl, "u1", "v2")
	createUser(t, pub.NewController(nil), "hold", "h")
	jobs := fetchJobs(t, sub, 3)
	create, update, hold := jobs[0], jobs[1], jobs[2]
	if update.mask&hold.mask != 0 {
		t.Fatal("u1 and hold share a dispatch-mask bit; pick another id")
	}

	first := sub.newWorker(2)
	defer first.close()
	done := make(chan struct{})
	go func() {
		first.run(nil, []*job{update, hold})
		close(done)
	}()
	<-entered
	waitFor(t, 2*time.Second, func() bool { p, _ := parkedAndReady(sub); return p == 1 })

	second := sub.newWorker(2)
	defer second.close()
	second.run(nil, []*job{create})
	ready := sub.takeReady(nil, 2)
	if len(ready) != 1 || ready[0] != update {
		t.Fatalf("takeReady = %v, want the parked update", ready)
	}
	second.run(nil, ready)
	if !isRecycled(update) {
		t.Fatalf("the update's job was not recycled: %v", update.load())
	}
	close(release)
	<-done

	if got, want := applied(), []string{"hold=h", "u1=v1", "u1=v2"}; !slices.Equal(got, want) {
		t.Errorf("applied %q, want %q", got, want)
	}
	if q := sub.Queue(); q.Unacked() != 0 || q.Len() != 0 {
		t.Errorf("unacked=%d pending=%d, want 0 and 0", q.Unacked(), q.Len())
	}
}

// TestRecycleOnce: a job goes back to App.jobs once, when it is over.
// recycle panics on a job that is not, and a recycled job is at fetched,
// so recycling it again panics too; a stalled job stays its straggler's.
// Each of flushBatch's three exits recycles every job it was handed: all
// acked; the increments failed, where the jobs that carry some are
// nacked and the rest acked; and FaultBeforeAckFlush, where none is.
func TestRecycleOnce(t *testing.T) {
	a := &App{}
	for st := range numJobStates {
		j := &job{}
		j.state.Store(uint32(st))
		switch st {
		case stateDone, stateFailed:
			a.recycle(j)
			mustPanic(t, fmt.Sprintf("recycling a %v job twice", st), func() { a.recycle(j) })
		case stateStalled:
			if a.recycle(j); j.load() != stateStalled {
				t.Errorf("a stalled job was recycled")
			}
		default:
			mustPanic(t, fmt.Sprintf("recycling a %v job", st), func() { a.recycle(j) })
		}
	}

	for _, exit := range []string{"acked", "increments failed", "fault before the ack flush"} {
		t.Run(exit, func(t *testing.T) {
			f := NewFabric()
			pub, _ := newDocApp(t, f, "pub", Config{})
			sub, _ := newSQLApp(t, f, "sub", Config{})
			mustPublish(t, pub, userDesc(), "name")
			mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
			for i := range 4 {
				createUser(t, pub.NewController(nil), fmt.Sprintf("u%d", i), "n")
			}
			q := sub.Queue()
			ds, err := q.GetBatch(4)
			if err != nil || len(ds) != 4 {
				t.Fatalf("GetBatch = %d, %v", len(ds), err)
			}
			jobs := make([]*job, len(ds))
			for i, d := range ds {
				jobs[i] = sub.fetched(q, d)
				if i%2 == 0 {
					jobs[i].incr = append(jobs[i].incrBuf[:0], vstore.Key(i+1))
				}
				jobs[i].state.Store(uint32(stateDone))
			}
			handed := slices.Clone(jobs) // flushBatch filters its slice in place
			wantUnacked, wantPending := 0, 0
			switch exit {
			case "increments failed":
				sub.Store().Kill()
				wantPending = 2
			case "fault before the ack flush":
				sub.Faults().Arm(FaultBeforeAckFlush, faultinject.Fail(errors.New("injected")))
				wantUnacked = 4
			}
			sub.flushBatch(jobs)
			for i, j := range handed {
				if !isRecycled(j) {
					t.Errorf("job %d not recycled: %v", i, j.load())
				}
				mustPanic(t, fmt.Sprintf("recycling job %d again", i), func() { sub.recycle(j) })
			}
			if q.Unacked() != wantUnacked || q.Len() != wantPending {
				t.Errorf("unacked=%d pending=%d, want %d and %d", q.Unacked(), q.Len(), wantUnacked, wantPending)
			}
		})
	}
}

// workerDeliveryBytes bounds what one delivery through a started worker
// allocates: fetch, decode, plan, claim, document insert, group commit.
// When each fetch allocated its batch of 488-byte jobs, this test
// measured 1,142–1,214 B on amd64 with Go 1.24; it is 640–690 B since
// jobs come from App.jobs.
const workerDeliveryBytes = 1150 - 400

// TestWorkerDeliveryByteBudget: a worker allocates no job per fetch — it
// takes them from App.jobs, and flushBatch hands them back — so a
// delivery through worker.run, one worker, after warm-up, costs at least
// 400 B less than when each fetch made its batch of jobs.
func TestWorkerDeliveryByteBudget(t *testing.T) {
	skipUnderRace(t)
	const warm, measured = 2000, 8000
	f := NewFabric()
	pub, _ := newDocApp(t, f, "pub", Config{})
	sub, _ := newDocApp(t, f, "sub", Config{})
	mustPublish(t, pub, userDesc(), "name")
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
	ctl := pub.NewController(nil)
	for i := range warm + measured {
		createUser(t, ctl, fmt.Sprintf("u%05d", i), "n")
	}
	pub.store.WaitReleases()

	// sample reads the allocation total and the deliveries processed by
	// the time it stopped the world.
	sample := func() (bytes, processed uint64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc, uint64(sub.tel.processed.Load())
	}
	sub.StartWorkers(1)
	defer sub.StopWorkers()
	for sub.tel.processed.Load() < warm {
		time.Sleep(time.Millisecond)
	}
	b0, p0 := sample()
	for sub.tel.processed.Load() < warm+measured-100 {
		time.Sleep(time.Millisecond)
	}
	b1, p1 := sample()
	perDelivery := (b1 - b0) / (p1 - p0)
	t.Logf("%d B per delivery over %d deliveries", perDelivery, p1-p0)
	if perDelivery > workerDeliveryBytes {
		t.Errorf("a delivery through worker.run allocates %d B, want <= %d", perDelivery, workerDeliveryBytes)
	}
}
