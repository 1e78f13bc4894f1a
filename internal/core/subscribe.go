package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	cur      uint64
	inflight map[uint64]int
	waiting  []*job // parked on the barrier: ahead of cur while older ones are in flight
}

// genStateFor is on every delivery's path: it looks under the read lock,
// which a worker's refill (Queue) shares, and writes only to add.
func (a *App) genStateFor(origin string) *genState {
	a.mu.RLock()
	gs := a.gens[origin]
	a.mu.RUnlock()
	if gs != nil {
		return gs
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if gs = a.gens[origin]; gs == nil {
		gs = &genState{inflight: make(map[uint64]int)}
		a.gens[origin] = gs
	}
	return gs
}

// errStaleGeneration marks messages from before a generation flush;
// they are acked and dropped (their state was resynced by bootstrap).
var errStaleGeneration = errors.New("synapse: stale generation message")

// enterGeneration counts a decoded job's message into its generation
// (planned), running the flush barrier if it moves the generation
// forward. It never blocks: while older messages are in flight, j is held
// on the barrier's list (barrier). A message from an older generation
// comes back done, for its caller to end.
func (a *App) enterGeneration(j *job) jobState {
	gen := j.msg.Generation
	gs := a.genStateFor(j.msg.App)
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gen > gs.cur {
		for g := range gs.inflight {
			if g < gen {
				a.to(j, stateDecoded, stateBarrier) // under gs.mu: a release finds it held
				gs.waiting = append(gs.waiting, j)
				return stateBarrier
			}
		}
		// Barrier reached: flush and advance (§4.4). The flush clears
		// this app's whole version store; counters for the new
		// generation restart from zero on both sides.
		a.store.Flush()
		gs.cur = gen
		a.releaseWaiting(gs)
	}
	if gen < gs.cur {
		return stateDone
	}
	gs.inflight[gen]++
	a.to(j, stateDecoded, statePlanned)
	return statePlanned
}

func (a *App) exitGeneration(origin string, gen uint64) {
	gs := a.genStateFor(origin)
	gs.mu.Lock()
	gs.inflight[gen]--
	if gs.inflight[gen] <= 0 {
		delete(gs.inflight, gen)
		a.releaseWaiting(gs)
	}
	gs.mu.Unlock()
}

// releaseWaiting lets every message parked on the barrier try again;
// called with gs.mu held whenever a generation empties or cur moves.
func (a *App) releaseWaiting(gs *genState) {
	for _, j := range gs.waiting {
		a.release(j)
	}
	gs.waiting = nil
}

// job is one delivery on its way through the subscriber: where it stands
// (its state, DESIGN §2j), and what a message that is not ready keeps
// while parked — the decoded message, its dependency plan — so that
// parking frees its window slot, dispatch mask and lane. A job with no
// queue is ProcessMessage's: its caller waits out each release.
type job struct {
	app   *App
	state atomic.Uint32 // a jobState, moved only by App.to
	trip
}

// trip is one delivery's pass through a job, what recycle resets. The
// state stays out: a release still on its way from the last pass may
// compare-and-swap it, but reads nothing here.
type trip struct {
	q     *broker.Queue
	d     broker.Delivery
	msg   *wire.Message
	mask  uint64 // applyMask: the objects it writes
	needs uint64 // needsMask: the objects its dependencies name
	id    uint64 // its dispatch in its worker's window: its lane's results carry it
	lane  *lane  // the lane running it; nil for ProcessMessage

	// at is when its stage began: decode, barrier (the first try), dep-wait
	// (the plan; DepTimeout counts from it too) or apply (the claim).
	// blockedAt is its first unmet probe.
	at, blockedAt time.Time

	// The dependency plan: what must be reached before the message
	// applies, and what it increments after; the usual handful inline.
	reqs    []vstore.WaitReq
	incr    []vstore.Key
	reqBuf  [jobKeys]vstore.WaitReq
	incrBuf [jobKeys]vstore.Key

	// What releases it while parked on dependencies: the latest probe's
	// registration, or its one DepTimeout timer.
	wait  *vstore.Parked
	timer *time.Timer

	applied uint64 // bit i: operation i (of the first 64) went to applyOp

	scratch applyScratch
}

// jobState is the step of the subscriber algorithm a job stands at. Those
// from planned through applied count it in its generation.
type jobState uint32

const (
	stateFetched jobState = iota // off the queue
	stateDecoded                 // next: the generation barrier
	stateBarrier                 // held there: an older generation is in flight
	statePlanned                 // in its generation, plan built: next, probe and claim
	stateParked                  // a requirement unmet: waits for a release
	stateReady                   // released: probes again
	stateClaimed                 // its claims taken under its apply locks: applying
	stateApplied                 // next: its increments
	stateDone                    // over: acked or queued to be, increments with it
	stateFailed                  // over: returned, nacked as a failed attempt, or handed back
	stateStalled                 // over: taken by the watchdog (see lane)
	numJobStates
)

var jobStateNames = [numJobStates]string{"fetched", "decoded", "barrier", "planned", "parked", "ready", "claimed", "applied", "done", "failed", "stalled"}

func (s jobState) String() string { return jobStateNames[s] }

func (s jobState) entered() bool { return s >= statePlanned && s <= stateApplied }

// jobEdges is DESIGN §2j's table: bit t of jobEdges[s] allows s -> t.
var jobEdges = [numJobStates]uint16{
	stateFetched: edges(stateDecoded, stateDone),
	stateDecoded: edges(stateBarrier, statePlanned, stateDone, stateFailed),
	stateBarrier: edges(stateDecoded, stateFailed),
	statePlanned: edges(stateParked, stateReady, stateClaimed, stateFailed, stateStalled),
	stateParked:  edges(stateReady, stateFailed),
	stateReady:   edges(statePlanned, stateClaimed, stateFailed, stateStalled),
	stateClaimed: edges(stateApplied, stateFailed, stateStalled),
	stateApplied: edges(stateDone, stateFailed),
}

func edges[S jobState | pubState](to ...S) (set uint16) {
	for _, s := range to {
		set |= 1 << s
	}
	return set
}

func (j *job) load() jobState { return jobState(j.state.Load()) }

// to moves j from one state to the next: the one place a job changes
// state. A move outside the table panics, like releasing a
// storage.LockTable key nobody holds. The move is a compare-and-swap:
// false, and nothing moved, when j is no longer in from. It goes to the
// stream (moved) while j is whole; then a job that is over is retired:
// what could still release it goes, its generation count returns, and so
// does its message, unless ProcessMessage lent it (the watchdog's
// stalled job is its straggler's to retire).
func (a *App) to(j *job, from, next jobState) bool {
	if jobEdges[from]&(1<<next) == 0 {
		panic(fmt.Sprintf("synapse: subscriber job moved %v -> %v", from, next))
	}
	if !j.state.CompareAndSwap(uint32(from), uint32(next)) {
		return false
	}
	a.moved(j, nil, uint32(from), uint32(next))
	if next == stateDone || next == stateFailed {
		a.retire(j, from.entered())
	}
	return true
}

// move takes j to next from whatever state it stands in — again, if a
// release moved it first.
func (a *App) move(j *job, next jobState) {
	for !a.to(j, j.load(), next) {
	}
}

func (a *App) retire(j *job, entered bool) {
	if j.wait != nil {
		j.wait.Cancel()
	}
	if j.timer != nil {
		j.timer.Stop()
	}
	if entered {
		a.exitGeneration(j.msg.App, j.msg.Generation)
	}
	if j.q != nil {
		wire.ReleaseMessage(j.msg)
	}
}

// recycle hands jobs that are over back to App.jobs, reset and at fetched
// (a second recycle panics, like App.to off jobEdges). A late release is
// one extra look for the next delivery. A stalled job is its straggler's.
func (a *App) recycle(jobs ...*job) {
	for _, j := range jobs {
		switch st := j.load(); {
		case st < stateDone:
			panic(fmt.Sprintf("synapse: subscriber job recycled at %v", st))
		case st != stateStalled:
			j.trip = trip{}
			j.state.Store(uint32(stateFetched))
			a.jobs.Put(j)
		}
	}
}

// fetched takes a job from App.jobs for a delivery off q.
func (a *App) fetched(q *broker.Queue, d broker.Delivery) *job {
	j := a.jobs.Get().(*job)
	j.q, j.d = q, d
	return j
}

// decode readies a fetch for the window: a job fresh off the queue is
// decoded and given its masks; a poison message is acked and dropped.
func (a *App) decode(batch []*job) []*job {
	kept := batch[:0]
	for _, j := range batch {
		if j.load() == stateFetched {
			j.at = time.Now()
			msg, err := wire.UnmarshalProjected(j.d.Payload, a.resolve)
			if err != nil {
				a.to(j, stateFetched, stateDone)
				a.commits.Add(j)
				a.commits.Flush()
				continue
			}
			j.msg, j.mask, j.needs = msg, a.applyMask(msg), a.needsMask(msg)
			a.to(j, stateFetched, stateDecoded)
		}
		kept = append(kept, j)
	}
	clear(batch[len(kept):])
	return kept
}

// applyMask folds every operation object in the message into a 64-bit
// dispatch mask, one bit per object (maskBit): two messages with disjoint
// masks cannot touch the same guarded object.
func (a *App) applyMask(msg *wire.Message) uint64 {
	var mask uint64
	for i := range msg.Operations {
		mask |= maskBit(a.objectKey(&msg.Operations[i]))
	}
	return mask
}

// needsMask folds the objects the message's dependencies name into the
// same bits, for the window's chain clause. A weak subscriber needs
// nothing.
func (a *App) needsMask(msg *wire.Message) uint64 {
	if a.originMode(msg.App) == Weak {
		return 0
	}
	var mask uint64
	for _, d := range msg.Deps {
		mask |= maskBit(a.tracker.Resolve(d.Token))
	}
	return mask
}

// maskBit is an object's dispatch-mask bit: the top six bits of a
// multiplicative (Fibonacci) hash of its key.
func maskBit(k vstore.Key) uint64 { return 1 << (uint64(k) * 0x9E3779B97F4A7C15 >> 58) }

// applyScratch is what applying one operation needs and nothing keeps:
// the record handed to Mapper.Save or to an observer's callbacks, and
// those callbacks' context. It lives in the job, one operation after the
// other, which is why a subscriber's CallbackCtx.Record is valid for the
// duration of the callback only (Clone to keep).
type applyScratch struct {
	rec model.Record
	ctx model.CallbackCtx
}

// Wake implements vstore.Waker: the job itself is what a dependency wait
// leaves registered, so a probe that finds everything met — nearly all
// of them — allocates nothing for a wake-up it never needs.
func (j *job) Wake() { j.app.release(j) }

// jobKeys is the fixed capacity of a job's inline dependency plan.
const jobKeys = 6

// park leaves j — held at the barrier, or probed with a requirement
// unmet — to wait for a release: a queue job on the parked set, unless
// its release already came and it goes straight on to the ready list.
// ProcessMessage's job never enters the parked set, where a worker could
// take it: its caller waits under parkMu for a release to move it, and
// park reports true once one has.
func (a *App) park(j *job) bool {
	a.parkMu.Lock()
	held := j.load() == stateBarrier || a.to(j, statePlanned, stateParked)
	if j.q == nil {
		for st := j.load(); st == stateBarrier || st == stateParked; st = j.load() {
			a.released.Wait()
		}
		a.parkMu.Unlock()
		return true
	}
	if held {
		a.parked[j] = struct{}{}
	} else {
		a.ready = append(a.ready, j)
		// j.q is read now, under the lock: on the ready list j is whoever
		// takes it. The idle consumer is woken once the lock is dropped.
		defer a.readied(j.q)
	}
	a.parkMu.Unlock()
	return false
}

// release is every waiting job's wake action — a counter reached its
// threshold, the deadline passed, a generation emptied: a job held at the
// barrier goes back to try it, a parked one is ready, and one still
// probing is ready for its park to find. A parked job moves to the ready
// list and an idle worker is woken to take it and look again (a release
// is a reason to look, not a promise); a caller waiting in park looks at
// its own job. To a job in any other state the release came late.
func (a *App) release(j *job) {
	a.parkMu.Lock()
	_ = a.to(j, stateBarrier, stateDecoded) || a.to(j, stateParked, stateReady) || a.to(j, statePlanned, stateReady)
	if _, held := a.parked[j]; held {
		delete(a.parked, j)
		a.ready = append(a.ready, j)
		defer a.readied(j.q) // j.q read under the lock, as in park
	}
	a.parkMu.Unlock()
	a.released.Broadcast()
}

// readied wakes a worker for a job put on the ready list: one blocked
// in q, or one whose window has a free slot.
func (a *App) readied(q *broker.Queue) {
	q.CancelWaiters()
	a.nudge()
}

// takeReady moves up to max jobs from the head of the ready list onto
// batch.
func (a *App) takeReady(batch []*job, max int) []*job {
	a.parkMu.Lock()
	defer a.parkMu.Unlock()
	n := min(len(a.ready), max)
	batch = append(batch, a.ready[:n]...)
	a.ready = slices.Delete(a.ready, 0, n)
	return batch
}

// retireParked hands back every parked and ready job delivered on q (any
// queue handle when nil), oldest first: each fails. A stop then nacks
// them back; those of a dead handle are only recycled — their tags died
// with it: a restarted broker redelivers them, RecoverQueue resyncs a
// decommissioned queue's content.
func (a *App) retireParked(q *broker.Queue) []*job {
	var out []*job
	take := func(j *job) bool {
		if q == nil || j.q == q {
			out = append(out, j)
			return true
		}
		return false
	}
	a.parkMu.Lock()
	for j := range a.parked {
		if take(j) {
			delete(a.parked, j)
		}
	}
	a.ready = slices.DeleteFunc(a.ready, take)
	a.parkMu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].d.Tag < out[k].d.Tag })
	for _, j := range out {
		a.move(j, stateFailed)
	}
	return out
}

// ProcessMessage applies one write message with the delivery semantics
// configured for its origin, on its caller's goroutine (tests, the
// benchmark's layer replay): a message stopped at the generation barrier
// or on an unmet dependency blocks its caller until a release — a
// counter reaching its threshold, the DepTimeout timer — lets it try
// again. Its increments apply inline (see commit). msg stays the
// caller's; the job is recycled.
func (a *App) ProcessMessage(msg *wire.Message) error {
	j := a.jobs.Get().(*job)
	j.msg, j.at = msg, time.Now()
	j.state.Store(uint32(stateDecoded))
	_, err := a.drive(j)
	a.recycle(j)
	return err
}

// drive is the subscriber algorithm of §4.2 — wait for the dependencies,
// claim, apply, increment — for every mode and every entry: it runs the
// step of the state j stands in until j is parked — a queue job, which
// the parked set owns from then on — or over. ProcessMessage's job waits
// out each release in park and goes on. drive returns the state it left
// j in, and a failed job's error (or errStaleGeneration).
func (a *App) drive(j *job) (st jobState, err error) {
	for st = j.load(); ; {
		switch st {
		case stateDecoded:
			st, err = a.enter(j)
		case statePlanned, stateReady:
			st, err = a.probe(j)
		case stateApplied:
			st, err = a.commit(j)
		case stateBarrier, stateParked:
			if !a.park(j) {
				return st, nil
			}
			st = j.load()
		default:
			return st, err
		}
	}
}

// enter is a decoded job's step. A message from an older generation is
// done; one whose generation is ahead waits at the barrier; the rest are
// counted in their generation and planned.
func (a *App) enter(j *job) (jobState, error) {
	msg := j.msg
	switch st := a.enterGeneration(j); st {
	case stateDone:
		a.to(j, stateDecoded, stateDone)
		return st, errStaleGeneration
	case stateBarrier:
		return st, nil
	}
	a.planDeps(j, a.originMode(msg.App))
	return statePlanned, nil
}

// probe is a planned or released job's step, ONE version-store window:
// under its per-object apply locks the store probes the plan and, if it
// is met, claims the object versions in the same script, and the
// operations apply (claimAndApply). The modes differ only in the plan
// (planDeps): global mode also waits on the global-object dependency,
// causal mode skips it, and weak mode plans nothing (§6.5: "weak and
// causal … timeout set to 0 s and ∞"). While bootstrapping, delivery
// degrades to weak (§4.4): the message waits for nothing but keeps its
// increments.
//
// A job whose plan is unmet comes back parked — the driver parks it —
// until a counter it needs moves, and once a finite DepTimeout has run
// out it is processed anyway, which costs it a second window for the
// claims.
func (a *App) probe(j *job) (jobState, error) {
	if j.load() == stateReady {
		a.to(j, stateReady, statePlanned)
		if j.wait != nil {
			j.wait.Cancel() // released; the timer may have done it
		}
	}
	msg, booting := j.msg, a.Bootstrapping()
	if booting {
		j.reqs = nil
	}
	timeout := a.cfg.DepTimeout
	deadline := j.at.Add(timeout)
	var wake vstore.Waker
	if timeout < 0 || time.Now().Before(deadline) {
		wake = j
	}
	var (
		cbuf [guardWidth]vstore.Claim
		obuf [guardWidth]int
	)
	claims, claimOp := a.messageClaims(msg, cbuf[:0], obuf[:0])
	w, err := a.claimAndApply(msg, claims, claimOp, j.reqs, j, wake)
	if err == nil && w != nil {
		if j.blockedAt.IsZero() {
			// Counted when found, not when resolved: a subscriber stuck on a
			// dependency that never arrives must not report 0.
			j.blockedAt = time.Now()
			a.tel.depWaitsBlocked.Add(1)
		}
		if wake != nil {
			j.wait = w
			if timeout > 0 && j.timer == nil {
				j.timer = time.AfterFunc(time.Until(deadline), j.Wake)
			}
			return stateParked, nil
		}
		// §6.5 — give up waiting for late or lost messages and process
		// anyway, trading consistency for availability; the per-object
		// guard in the apply discards stale versions, weak-style.
		a.noteDepTimeout(a.describeDepTimeout(&vstore.WaitError{Unmet: w.Unmet}))
		_, err = a.claimAndApply(msg, claims, claimOp, nil, j, nil)
	}
	switch {
	case err == errStalled:
		return stateStalled, nil
	case err != nil:
		a.move(j, stateFailed)
		return stateFailed, err
	}
	a.to(j, stateClaimed, stateApplied)
	if len(j.reqs) > 0 && a.hashedDeps {
		if w == nil && !j.blockedAt.IsZero() {
			a.noteFalseDeps(msg, j.reqs)
		}
		a.recordDepWriters(msg)
	}
	return stateApplied, nil
}

// commit is an applied job's step: the increments its message owes. The
// bootstrap Seq boundary outlives Bootstrapping(): a message published
// before the version snapshot has its bumps bulk-loaded already, and
// re-incrementing (e.g. backlog fetched during the bootstrap but
// processed after it) would push this store's counters past the
// publisher's, making every later guarded apply look stale. A queue job
// leaves its keys in j.incr — resolved values with no reference into the
// message — for the group-commit flusher, which merges them across
// messages into one IncrOpsMulti round trip and acks after. A job with
// no queue has nothing to redeliver it and returns its error to its
// caller, so its increments apply inline, a second window: the one way
// an applied job fails.
func (a *App) commit(j *job) (jobState, error) {
	msg := j.msg
	switch {
	case len(j.incr) == 0 || msg.Seq <= a.bootSeqFor(msg.App):
		j.incr = nil
	case j.q != nil:
		// The flusher counts each message's DISTINCT keys once (IncrOps
		// semantics), so dedup here, where the set is small and hot in
		// cache.
		j.incr = dedupKeys(j.incr)
	default:
		err := a.store.IncrOps(j.incr)
		j.incr = nil
		if err != nil {
			a.to(j, stateApplied, stateFailed)
			return stateFailed, err
		}
	}
	a.to(j, stateApplied, stateDone)
	return stateDone, nil
}

// originMode returns the strongest delivery mode among this app's
// subscriptions from the origin.
func (a *App) originMode(origin string) DeliveryMode {
	if o := (*a.compiled.Load())[origin]; o != nil {
		return o.mode
	}
	return Weak
}

// planDeps builds j's dependency plan from its message: one requirement
// list for the whole message — dependency versions (resolved through
// this app's tracker — a hash subscriber folds a DVV publisher's names
// into its own key space, a DVV subscriber interns them), and external
// dependency minimums (decorator cross-app causality — waited, never
// incremented). Requirements landing on the
// same key are max-merged by the store, which is equivalent to waiting
// on each entry in turn. A weak subscriber's plan is empty: it waits for
// nothing and maintains no counters.
func (a *App) planDeps(j *job, mode DeliveryMode) {
	msg := j.msg
	j.reqs, j.incr = j.reqBuf[:0], j.incrBuf[:0]
	if mode == Weak {
		return
	}
	var globalKey vstore.Key
	skipGlobal := mode < Global && msg.GlobalDep != nil
	if skipGlobal {
		globalKey = a.tracker.Resolve(*msg.GlobalDep)
	}
	for _, d := range msg.Deps {
		if key := a.tracker.Resolve(d.Token); !skipGlobal || key != globalKey {
			j.reqs = append(j.reqs, vstore.WaitReq{Key: key, Need: d.Version})
			j.incr = append(j.incr, key)
		}
	}
	for _, d := range msg.External {
		j.reqs = append(j.reqs, vstore.WaitReq{Key: a.tracker.Resolve(d.Token), Need: d.Version})
	}
}

// dedupKeys returns keys with duplicates removed (order preserved);
// small-n quadratic scan, cheaper than a map for per-message key sets.
func dedupKeys(keys []vstore.Key) []vstore.Key {
	out := keys[:0:len(keys)]
	for _, k := range keys {
		if !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// objectKey resolves an operation's object token into this app's
// version-store key space.
func (a *App) objectKey(op *wire.Operation) vstore.Key { return a.tracker.Resolve(op.Object) }

// guardWidth is how many guarded operations a message can carry before
// its claim lists leave the stack.
const guardWidth = 4

// messageClaims appends one claim per operation whose object version the
// message carries, and the index of the operation it guards.
func (a *App) messageClaims(msg *wire.Message, claims []vstore.Claim, claimOp []int) ([]vstore.Claim, []int) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		if v, guarded := msg.ObjectVersion(op); guarded {
			claims = append(claims, vstore.Claim{Key: a.objectKey(op), Version: v})
			claimOp = append(claimOp, i)
		}
	}
	return claims, claimOp
}

// claimAndApply is the one way an operation reaches applyOp, for a live
// message and a bootstrap chunk alike. Under the per-object apply locks
// of every claimed object, held from the claim through the last DB
// write, it asks the store to take the claims — claims[c] guards
// msg.Operations[claimOp[c]] — if every requirement in reqs is met, and
// then applies the operations in order. A claim and its DB write must
// be atomic per object: a worker preempted between winning the claim
// and persisting the row could otherwise write stale data after a newer
// version landed, and since the guard recorded the newer version, no
// redelivery would repair it. The locks are taken in ascending key
// order, so concurrent multi-object messages cannot deadlock; two
// deliveries wait on each other only when they claim the same object.
//
// A claim that loses (stale version) skips its operation: weak-mode
// last-writer-wins and duplicate redelivery. A chunk row (the one
// caller without a job) also applies at the version already stored:
// the row is the publisher's state at that version, and the live
// message that stored it may have been applied under a narrower
// subscription than the one the bootstrap fills (a Subscribe for more
// of the model, §4.3). If the requirements are unmet nothing is claimed
// or applied and the store's wait comes back (registered for wake, if
// one is given) with the locks released.
//
// A live message's job is claimed once the window took its claims. The
// watchdog of the lane running it (see lane) times the wait for the
// locks and the apply, and errStalled means it took the job.
//
// If a DB apply fails midway, every fresh claim from the failed
// operation onward is rolled back so a retry re-applies exactly the
// unapplied operations — operations already persisted keep their claims
// and are skipped as stale on redelivery (no double-apply).
func (a *App) claimAndApply(msg *wire.Message, claims []vstore.Claim, claimOp []int, reqs []vstore.WaitReq, j *job, wake vstore.Waker) (w *vstore.Parked, err error) {
	var (
		rbuf [guardWidth]vstore.ClaimResult
		kbuf [guardWidth]vstore.Key
		l    *lane
		sc   *applyScratch
	)
	if j != nil {
		l, sc = j.lane, &j.scratch
	} else {
		sc = new(applyScratch)
	}
	results, keys := rbuf[:], kbuf[:0]
	if len(claims) > guardWidth {
		results = make([]vstore.ClaimResult, len(claims))
	}
	results = results[:len(claims)]
	for _, c := range claims {
		keys = append(keys, c.Key) // a copy: AcquireAll sorts it, claimOp follows claims' order
	}

	l.arm(j)
	keys = a.applyLocks.AcquireAll(keys, cmp.Compare[vstore.Key])
	defer a.applyLocks.ReleaseAll(keys)
	if !l.disarm(j) {
		return nil, errStalled
	}
	if w, err = a.store.ClaimIfMet(reqs, claims, results, wake); err != nil || w != nil {
		return w, err
	}
	if j != nil {
		a.move(j, stateClaimed) // from ready if a release came mid-probe
		l.arm(j)
	}
	c := 0 // the first claim not yet passed
	for i := range msg.Operations {
		mine := c // the claim guarding operation i, if it has one
		if c < len(claims) && claimOp[c] == i {
			c++
			if r := results[mine]; !r.Applied && (j != nil || r.Prev != claims[mine].Version) {
				continue // stale update: skip to the latest version
			}
		}
		if j != nil && i < 64 {
			j.applied |= 1 << i
		}
		if err = a.applyOp(msg.App, &msg.Operations[i], sc); err != nil {
			for ; mine < len(claims); mine++ {
				if results[mine].Applied {
					_ = a.store.RestoreVersion(claims[mine].Key, claims[mine].Version, results[mine].Prev)
				}
			}
			break
		}
	}
	if !l.disarm(j) {
		return nil, errStalled
	}
	return nil, err
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

// describeParked renders every parked message for Stats.Parked: which
// message, and what it waits for, in describeDepTimeout's words. It
// copies what it renders under parkMu and formats after: park and
// release take that lock on the delivery path.
func (a *App) describeParked() []string {
	type parkedJob struct {
		origin   string
		seq, gen uint64
		unmet    []vstore.WaitReq // nil: held at the generation barrier
	}
	a.parkMu.Lock()
	jobs := make([]parkedJob, 0, len(a.parked))
	for j := range a.parked {
		p := parkedJob{origin: j.msg.App, seq: j.msg.Seq, gen: j.msg.Generation}
		if j.load() == stateParked {
			p.unmet = j.wait.Unmet
		}
		jobs = append(jobs, p)
	}
	a.parkMu.Unlock()
	out := make([]string, 0, len(jobs))
	for _, p := range jobs {
		reason := fmt.Sprintf("generation %d is ahead of the barrier", p.gen)
		if p.unmet != nil {
			reason = a.describeDepTimeout(&vstore.WaitError{Unmet: p.unmet}).Error()
		}
		out = append(out, fmt.Sprintf("%s seq=%d: %s", p.origin, p.seq, reason))
	}
	sort.Strings(out)
	return out
}

// noteDepTimeout records a dependency wait that gave up (§6.5), keeping
// the rendered error for Stats.LastDepTimeout.
func (a *App) noteDepTimeout(err error) {
	a.tel.depTimeouts.Add(1)
	a.tel.lastDepTimeoutMu.Lock()
	a.tel.lastDepTimeout = err.Error()
	a.tel.lastDepTimeoutMu.Unlock()
}

// noteFalseDeps runs after a wait that blocked and then resolved: for
// each of this message's own objects whose dependency key was actually
// waited on, if the last write recorded under that key came from a
// DIFFERENT (origin, model, id), the block was at least partly a false
// dependency — an unrelated name hashing onto the same key. Under the
// DVV tracker and on unhashed keys names do not share a key, so neither
// this nor recordDepWriters runs there.
func (a *App) noteFalseDeps(msg *wire.Message, reqs []vstore.WaitReq) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		k := a.objectKey(op)
		if !slices.ContainsFunc(reqs, func(r vstore.WaitReq) bool { return r.Key == k && r.Need > 0 }) {
			continue
		}
		if last, ok := a.lastDepWriter(k); ok && last != opFingerprint(msg.App, op.Model(), op.ID) {
			a.tel.falseDeps.Add(1)
		}
	}
}

// recordDepWriters notes each applied operation as the last writer of
// its object key — the evidence noteFalseDeps compares future blocked
// waits against.
func (a *App) recordDepWriters(msg *wire.Message) {
	for i := range msg.Operations {
		op := &msg.Operations[i]
		a.recordDepWriter(a.objectKey(op), opFingerprint(msg.App, op.Model(), op.ID))
	}
}

// errStaleProjection fails a delivery whose attributes were decoded for
// a projection that skipped some of what the subscription's current one
// names (a Subscribe for more of the model came between decode and
// apply): the redelivery decodes it again.
var errStaleProjection = errors.New("synapse: subscription changed since the message was decoded")

// applyOp persists (or observes) a single operation if this app
// subscribes to its model from the message's origin. Irrelevant
// operations are skipped — but the message's dependency counters are
// still maintained by the caller, since later messages may depend on
// them.
//
// The received attributes are lent, not copied, when they can be the
// record's own as they are: decoded through the subscription's current
// projection, and no virtual setter to run. The engine's copy-in is then
// the only copy (package storage's row-ownership rule). Otherwise — a
// message decoded in full or built by hand — the projection lands the
// subscribed ones, coerced, on a map of the record's own; for create,
// update and destroy alike.
func (a *App) applyOp(origin string, op *wire.Operation, sc *applyScratch) error {
	if err := a.faults.Fire(FaultApply); err != nil {
		return err
	}
	p := a.projectionFor(origin, op.Types)
	if p == nil {
		return nil
	}
	before, after := model.BeforeCreate, model.AfterCreate
	switch op.Operation {
	case wire.OpUpdate:
		before, after = model.BeforeUpdate, model.AfterUpdate
	case wire.OpDestroy:
		if !p.observer {
			err := a.mapper.Delete(p.Desc.Name, op.ID)
			if errors.Is(err, storage.ErrNotFound) {
				return nil // deletes are idempotent on subscribers
			}
			return err
		}
		before, after = model.BeforeDestroy, model.AfterDestroy
	}
	sink, projected := op.Sink()
	if projected && sink != wire.Sink(p) {
		// Decoded for an earlier compile of the subscriptions. What it kept
		// still serves if it kept everything p names: p then filters it
		// like a message decoded in full.
		if was, _ := sink.(*projection); was == nil || !was.Wants(op.Operation) || !p.Within(was.Projection) {
			return errStaleProjection
		}
		projected = false
	}
	rec := &sc.rec
	*rec = model.Record{Model: p.Desc.Name, ID: op.ID, Attrs: op.Attributes}
	if p.Virtual() || !projected {
		rec.Attrs = make(map[string]any, len(op.Attributes))
		if err := p.Apply(rec, op.Attributes); err != nil {
			return err
		}
	} else if rec.Attrs == nil {
		rec.Attrs = make(map[string]any)
	}
	if !p.observer {
		return a.mapper.Save(rec)
	}
	// A DB-less observer: the callbacks are all there is.
	sc.ctx = model.CallbackCtx{Record: rec, Bootstrapping: a.Bootstrapping(), Env: a.Env()}
	if err := p.Desc.Callbacks.Run(before, &sc.ctx); err != nil {
		return err
	}
	return p.Desc.Callbacks.Run(after, &sc.ctx)
}
