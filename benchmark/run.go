package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"synapse"
)

// Shape of one run. A run is message-count-bound: every count below is
// fixed from the workload's constants and --seconds before the first
// message is sent, so two runs retain the same state and their heaps are
// comparable (a time-bound run made the live heap vary 44 %).
const (
	// pacedShare of --seconds goes to the open-loop phase; the rest sizes
	// the closed-loop saturation phase at the workload's nominal rate.
	pacedShare = 0.4
	// satSegments are measured; one more runs first and is discarded,
	// because filling the in-flight window lets the publishers run ahead
	// of the subscribers for one window's worth of messages.
	satSegments = 12
	// warmSeconds of nominal-rate traffic is sent and discarded first.
	warmSeconds = 1.0
	// The in-flight window: publishers stop while the deepest subscriber
	// queue (pending + unacked, i.e. published − applied) is at windowHigh
	// and resume at windowLow. An unbounded closed loop lets the publisher
	// outrun the subscribers and measures heap growth, not the pipeline.
	windowHigh = 1024
	windowLow  = 896
	// pacedWindow is the length of the windows the paced-phase quantiles
	// are taken over (see finishPaced); a window with fewer than
	// pacedWindowMin samples is ignored.
	pacedWindow    = 250 * time.Millisecond
	pacedWindowMin = 50
)

// limits are the deadlines of one run: every wait has one, so a wedged
// subscriber (ROADMAP item 1) costs failed operations, not a hang.
type limits struct {
	setup, drain time.Duration
	// stall bounds how long a publisher waits on a full window that does
	// not move — the subscriber-wedge signature.
	stall time.Duration
	// total caps all waits of one run together, so that even a run that
	// wedges in every phase ends well inside the contract's 180 s.
	total time.Duration
}

var defaultLimits = limits{setup: 60 * time.Second, drain: 60 * time.Second, stall: 20 * time.Second, total: 150 * time.Second}

// sizes are the fixed message counts of one run.
type sizes struct {
	warm, paced, seg int
}

// sizesFor derives the counts from the workload's constants and
// --seconds.
func sizesFor(spec workloadSpec, seconds float64) sizes {
	return sizes{
		warm:  int(spec.nominal * warmSeconds),
		paced: int(spec.pacedRate * seconds * pacedShare),
		seg:   int(spec.nominal * seconds * (1 - pacedShare) / satSegments),
	}
}

// subscriber is one subscribing app plus the probes the benchmark hangs
// off its model callbacks.
type subscriber struct {
	name   string
	engine engine
	app    *synapse.App
	// seenRev[p] is the highest revision of post p this subscriber has
	// applied — the table the causal check reads.
	seenRev    []atomic.Uint32
	violations atomic.Int64
}

// fabric is one built ecosystem.
type fabric struct {
	f        *synapse.Fabric
	pub      *synapse.App
	subs     []*subscriber
	sessions []*synapse.Session
}

func (fb *fabric) stop() {
	for _, s := range fb.subs {
		s.app.StopWorkers()
	}
}

// segmentMark is taken when the saturation phase completes each multiple
// of the segment size.
type segmentMark struct {
	at  time.Time
	cpu time.Duration
}

// run is one execution of one workload.
type run struct {
	spec   workloadSpec
	seed   int64
	sizes  sizes
	pop    population
	limits limits
	setups int
	tr     *tracer // nil: untraced
	log    io.Writer

	epoch    time.Time
	deadline time.Time
	ref      *reference
	gen      *generator
	fab      *fabric

	// returnedRev[p] is the highest revision of post p whose Update has
	// returned; a comment generated afterwards carries it as post_rev.
	returnedRev []atomic.Uint32
	// destroyDue[c] is the send stamp of comment c's destroy (destroy
	// deliveries carry no attributes to read it from).
	destroyDue []atomic.Int64

	pacedOn    atomic.Bool
	pacedStart int64 // ns since epoch of the paced clock's zero
	lagSamples []sample
	lagN       atomic.Int64
	pubSamples []sample
	refSamples []sample
	pacedSpans [][2]time.Time
	maxLate    atomic.Int64

	aborted   atomic.Bool
	attempted atomic.Int64
	failed    atomic.Int64

	// snap0 and snap1 bracket the measured phases of a traced run.
	snap0, snap1 statSnap

	// afterSetup, when set, runs between set-up and warm-up (tests stop
	// the subscribers there to provoke the deadlines).
	afterSetup func()

	res result
}

// result is everything one run measured.
type result struct {
	endToEnd map[string]float64
	harness  map[string]float64 // harness-side per-layer metrics
	// Per measured saturation segment, as measured (not converted):
	// msgs/s, CPU µs per message, and the host's factor.
	segments, segCPU, segFactor []float64
	// Per set-up: wall seconds as measured, and the host's factor.
	setupRaw, setupFactor []float64
	fingerprint           string
	attempted             int64
	failed                int64
}

func newRun(spec workloadSpec, seed int64, seconds float64, setups int, tr *tracer, log io.Writer) *run {
	return &run{spec: spec, seed: seed, sizes: sizesFor(spec, seconds), pop: fullPopulation,
		limits: defaultLimits, setups: setups, tr: tr, log: log}
}

func (r *run) failf(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed.Add(n)
	fmt.Fprintf(r.log, "benchmark: %s: FAILED x%d: %s\n", r.spec.name, n, fmt.Sprintf(format, args...))
}

// execute runs every phase and fills r.res. It never blocks past
// limits.total; a phase whose deadline expires counts what is missing as
// failed operations, dumps diagnostics, and the remaining phases are
// skipped with whatever was measured still reported.
func (r *run) execute() result {
	r.epoch = time.Now()
	r.deadline = r.epoch.Add(r.limits.total)
	r.ref = newReference()
	r.res = result{endToEnd: map[string]float64{}, harness: map[string]float64{}}
	warmN, pacedN, segN := r.sizes.warm, r.sizes.paced, r.sizes.seg
	// Comment sequence numbers never exceed the preload plus one per op.
	r.returnedRev = make([]atomic.Uint32, r.pop.posts)
	r.destroyDue = make([]atomic.Int64, r.pop.comments+warmN+pacedN+(satSegments+1)*segN)

	r.phaseSetup()
	if r.afterSetup != nil {
		r.afterSetup()
	}
	if !r.aborted.Load() {
		r.phaseWarm(warmN)
	}
	half := time.Duration(float64(pacedN/2) / r.spec.pacedRate * float64(time.Second))
	if !r.aborted.Load() {
		r.phasePaced(pacedN/2, 0)
	}
	if !r.aborted.Load() {
		r.phaseSaturation(segN)
	}
	if !r.aborted.Load() {
		r.phasePaced(pacedN-pacedN/2, half)
	}
	r.finishPaced()
	r.phaseVerify()
	if r.fab != nil {
		r.fab.stop()
	}
	r.res.fingerprint = r.gen.fingerprint()
	r.res.attempted = r.attempted.Load()
	r.res.failed = r.failed.Load()
	return r.res
}

// busyFactorOver is the host's factor over [from, to] as a closed loop
// feels it (see busyExponent).
func (r *run) busyFactorOver(from, to time.Time) float64 {
	return busyFactor(r.ref.factor(from, to))
}

// cpuFactorOver is the factor the CPU time of a closed-loop interval is
// divided by. A workload that sleeps in injected round trips does its
// work the way the reference operation does, on a processor that has just
// woken up with cold caches, and its CPU time follows the factor itself
// (as the paced phase's latencies do): at the exponent of a busy loop its
// CPU per message read 74 µs on a quiet host and 87 µs on a busy one.
func (r *run) cpuFactorOver(from, to time.Time) float64 {
	if r.spec.sleeps() {
		return r.ref.factor(from, to)
	}
	return r.busyFactorOver(from, to)
}

// onReference converts the wall time of a measured closed-loop interval
// into what it would have been on the reference host (see reference).
// Only the share of the interval the process spent on a CPU scales with
// the host's speed; the rest (an idle pipeline, a full window, a sleep in
// an injected round trip) does not. That share is the interval's CPU
// utilisation, which is measured.
func (r *run) onReference(from, to time.Time, cpu time.Duration) time.Duration {
	wall := to.Sub(from)
	if wall <= 0 {
		return wall
	}
	util := min(cpu.Seconds()/wall.Seconds()/float64(runtime.GOMAXPROCS(0)), 1)
	return time.Duration(float64(wall) * (util/r.busyFactorOver(from, to) + 1 - util))
}

// ---------------------------------------------------------------------
// Phase 0: set-up.
// ---------------------------------------------------------------------

// phaseSetup builds the fabric and preloads the bounded population,
// r.setups times over, keeping the last; setup_s is the median.
func (r *run) phaseSetup() {
	var times []float64
	for i := 0; i < r.setups; i++ {
		if r.fab != nil {
			r.fab.stop()
			r.fab = nil
			// Start every set-up from a collected heap so the previous
			// fabric's garbage is not charged to this one.
			runtime.GC()
		}
		for p := range r.returnedRev {
			r.returnedRev[p].Store(0)
		}
		last := i == r.setups-1
		start, cpu0 := time.Now(), cpuTime()
		r.gen = newGenerator(r.seed, r.spec.zipfHot, r.pop)
		fb, err := r.buildFabric(last)
		if err != nil {
			r.failf(1, "build fabric: %v", err)
			r.aborted.Store(true)
			return
		}
		r.fab = fb
		r.closedLoop(r.gen.preload(), nil)
		if !r.drain(r.limits.setup, "set-up") {
			return
		}
		r.failf(r.checkConvergence(), "set-up: subscribers differ from the publisher after preload")
		end := time.Now()
		times = append(times, r.onReference(start, end, cpuTime()-cpu0).Seconds())
		r.res.setupRaw = append(r.res.setupRaw, end.Sub(start).Seconds())
		r.res.setupFactor = append(r.res.setupFactor, r.ref.factor(start, end))
	}
	r.res.endToEnd["setup_s"] = median(times)
}

// buildFabric builds publisher, subscribers and sessions. With a tracer,
// the last set-up's fabric (the one the measured phases use) is wrapped
// in the timing proxies.
func (r *run) buildFabric(measured bool) (*fabric, error) {
	tr := r.tr
	if !measured {
		tr = nil
	}
	spec := r.spec
	fb := &fabric{f: synapse.NewFabric()}
	tr.wrapBus(fb.f)
	if tr != nil {
		// The isolated replays run on what this fabric's preload and
		// warm-up put on the wire.
		tr.epoch = r.epoch
		tr.capture.Store(true)
	}
	cfg := synapse.Config{Mode: spec.mode, VStoreRTT: spec.vstoreRTT}
	pub, err := synapse.NewApp(fb.f, "pub", tr.wrapMapper("pub", adapterOf[spec.pubEngine], newMapper(spec.pubEngine)), cfg)
	if err != nil {
		return nil, err
	}
	fb.pub = pub
	post, comment := newModels()
	if err := pub.Publish(post, synapse.PubSpec{Attrs: postAttrs}); err != nil {
		return nil, err
	}
	if err := pub.Publish(comment, synapse.PubSpec{Attrs: commentAttrs}); err != nil {
		return nil, err
	}
	for i, e := range spec.subEngines {
		s := &subscriber{name: subName(i, e), engine: e, seenRev: make([]atomic.Uint32, r.pop.posts)}
		scfg := cfg
		scfg.Workers = spec.workers
		app, err := synapse.NewApp(fb.f, s.name, tr.wrapMapper(s.name, adapterOf[e], newMapper(e)), scfg)
		if err != nil {
			return nil, err
		}
		s.app = app
		sp, sc := newModels()
		r.hookSubscriber(s, sp, sc)
		if err := app.Subscribe(sp, synapse.SubSpec{From: "pub", Attrs: postAttrs, Mode: spec.mode}); err != nil {
			return nil, err
		}
		if err := app.Subscribe(sc, synapse.SubSpec{From: "pub", Attrs: commentAttrs, Mode: spec.mode}); err != nil {
			return nil, err
		}
		app.StartWorkers(0)
		fb.subs = append(fb.subs, s)
	}
	fb.sessions = make([]*synapse.Session, numUsers)
	for u := range fb.sessions {
		fb.sessions[u] = pub.NewSession("User", fmt.Sprintf("u%03d", u))
	}
	return fb, nil
}

// hookSubscriber installs the benchmark's probes on a subscriber's model
// callbacks: replication lag (paced phase only), the per-subscriber
// post-revision table, and the causal check against it.
func (r *run) hookSubscriber(s *subscriber, post, comment *synapse.Model) {
	causal := r.spec.mode >= synapse.Causal
	notePost := func(ctx *synapse.CallbackCtx) error {
		rec := ctx.Record
		p, ok := seqOf(rec.ID)
		if !ok || p >= len(s.seenRev) {
			return fmt.Errorf("benchmark: unexpected post id %q", rec.ID)
		}
		rev := uint32(rec.Int("rev"))
		for {
			cur := s.seenRev[p].Load()
			if rev <= cur || s.seenRev[p].CompareAndSwap(cur, rev) {
				break
			}
		}
		r.observeLag(rec.Get("t"))
		return nil
	}
	post.Callbacks.On(synapse.AfterCreate, notePost)
	post.Callbacks.On(synapse.AfterUpdate, notePost)
	comment.Callbacks.On(synapse.AfterCreate, func(ctx *synapse.CallbackCtx) error {
		rec := ctx.Record
		if causal {
			p, ok := seqOf(rec.String("post_id"))
			if !ok || p >= len(s.seenRev) {
				return fmt.Errorf("benchmark: comment %s has post_id %q", rec.ID, rec.String("post_id"))
			}
			// The comment was generated after Update(rev) had returned and
			// carries a read dependency on its post, so a causal subscriber
			// must have applied that revision already.
			if uint32(rec.Int("post_rev")) > s.seenRev[p].Load() {
				s.violations.Add(1)
			}
		}
		r.observeLag(rec.Get("t"))
		return nil
	})
	comment.Callbacks.On(synapse.AfterDestroy, func(ctx *synapse.CallbackCtx) error {
		if !r.pacedOn.Load() {
			return nil
		}
		if c, ok := seqOf(ctx.Record.ID); ok && c < len(r.destroyDue) {
			r.observeLag(float64(r.destroyDue[c].Load()))
		}
		return nil
	})
}

// seqOf returns the number in a generated id ("p0042", "c0000123").
func seqOf(id string) (int, bool) {
	if len(id) < 2 {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil && n >= 0
}

// observeLag records intended-send-time → now for one delivery of the
// paced phase.
func (r *run) observeLag(t any) {
	if !r.pacedOn.Load() {
		return
	}
	stamp, ok := t.(float64)
	if !ok {
		return
	}
	due := int64(stamp) - r.pacedStart
	if due < 0 {
		return // a warm-up or preload message
	}
	now := time.Since(r.epoch).Nanoseconds()
	if i := r.lagN.Add(1) - 1; int(i) < len(r.lagSamples) {
		r.lagSamples[i] = sample{due: due, val: now - int64(stamp)}
	}
}

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

// publish performs one generated op through a fresh controller, the way
// a request handler would, and returns how long the controller call
// took. stamp is the op's send time in ns since the run's epoch.
func (r *run) publish(o *op, stamp int64) (time.Duration, error) {
	fb := r.fab
	ctl := fb.pub.NewController(fb.sessions[o.user])
	var postRev uint32
	switch o.kind {
	case opCreateComment:
		ctl.AddReadDeps("Post", r.gen.postIDs[o.post])
		postRev = r.returnedRev[o.post].Load()
	case opDestroyComment:
		r.destroyDue[o.comment].Store(stamp)
	}
	rec := r.gen.record(o, stamp, postRev)
	span := r.tr.beginPublish(o)
	start := time.Now()
	var err error
	switch o.kind {
	case opCreatePost, opCreateComment:
		_, err = ctl.Create(rec)
	case opUpdatePost:
		_, err = ctl.Update(rec)
	case opDestroyComment:
		err = ctl.Destroy("Comment", o.id)
	}
	took := time.Since(start)
	r.tr.endPublish(span, start, took)
	r.attempted.Add(1)
	if err != nil {
		r.failf(1, "publish %s: %v", o.id, err)
		return took, err
	}
	if o.kind == opUpdatePost {
		for {
			cur := r.returnedRev[o.post].Load()
			if o.rev <= cur || r.returnedRev[o.post].CompareAndSwap(cur, o.rev) {
				break
			}
		}
	}
	return took, nil
}

func (r *run) maxDepth() int {
	m := 0
	for _, s := range r.fab.subs {
		if q := s.app.Queue(); q != nil {
			if d := q.Depth(); d > m {
				m = d
			}
		}
	}
	return m
}

func (r *run) totalDepth() int64 {
	var n int64
	for _, s := range r.fab.subs {
		if q := s.app.Queue(); q != nil {
			n += int64(q.Depth())
		}
	}
	return n
}

// admit blocks while the in-flight window is full. It reports false when
// the window has not moved for limits.stall (or the run is over), after
// counting what is stuck as failed.
func (r *run) admit() bool {
	if r.aborted.Load() {
		return false
	}
	if r.maxDepth() < windowHigh {
		return true
	}
	limit := time.Now().Add(r.limits.stall)
	if limit.After(r.deadline) {
		limit = r.deadline
	}
	for r.maxDepth() > windowLow {
		if r.aborted.Load() {
			return false
		}
		if time.Now().After(limit) {
			if r.aborted.CompareAndSwap(false, true) {
				r.failf(r.totalDepth(), "in-flight window full and not draining for %s", r.limits.stall)
				r.dumpDiagnostics()
			}
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// closedLoop publishes ops from spec.satPubs goroutines, each taking the
// next op as soon as its previous publish returned and the window admits
// it. onDone, when non-nil, is called with the running count of completed
// publishes.
func (r *run) closedLoop(ops []op, onDone func(k int64)) {
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < r.spec.satPubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				i := next.Add(1) - 1
				if int(i) >= len(ops) || !r.admit() {
					return
				}
				if _, err := r.publish(&ops[i], time.Since(r.epoch).Nanoseconds()); err != nil {
					continue
				}
				if k := done.Add(1); onDone != nil {
					onDone(k)
				}
				if n%refEvery == 0 {
					r.ref.sample()
				}
			}
		}()
	}
	wg.Wait()
}

// drain waits until every subscriber queue is empty (nothing pending,
// nothing unacked). On expiry the undelivered messages count as failed
// and the run is aborted.
func (r *run) drain(limit time.Duration, phase string) bool {
	if r.aborted.Load() {
		return false
	}
	until := time.Now().Add(limit)
	if until.After(r.deadline) {
		until = r.deadline
	}
	for r.totalDepth() > 0 {
		if time.Now().After(until) {
			r.aborted.Store(true)
			r.failf(r.totalDepth(), "%s: deliveries not applied within %s", phase, limit)
			r.dumpDiagnostics()
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// dumpDiagnostics prints what an operator needs to see a wedge: each
// app's counters and queue depths.
func (r *run) dumpDiagnostics() {
	if r.fab == nil {
		return
	}
	st := r.fab.pub.Stats()
	fmt.Fprintf(r.log, "  pub: published=%d journal_depth=%d deferred=%d\n", st.Published, st.JournalDepth, st.Deferred)
	for _, s := range r.fab.subs {
		st := s.app.Stats()
		pending, unacked := 0, 0
		if q := s.app.Queue(); q != nil {
			pending, unacked = q.Len(), q.Unacked()
		}
		fmt.Fprintf(r.log, "  %s: processed=%d pending=%d unacked=%d max_depth=%d dep_waits_blocked=%d dep_timeouts=%d retries=%d redelivered=%d dead_letters=%d last_dep_timeout=%q\n",
			s.name, st.Processed, pending, unacked, st.QueueMaxDepth, st.DepWaitsBlocked, st.DepTimeouts, st.Retries, st.Redelivered, st.DeadLetters, st.LastDepTimeout)
	}
}

// ---------------------------------------------------------------------
// Phases 1–4.
// ---------------------------------------------------------------------

func (r *run) phaseWarm(n int) {
	r.closedLoop(r.gen.stream(n), nil)
	r.drain(r.limits.drain, "warm-up")
	if r.tr != nil {
		r.tr.capture.Store(false)
		r.snap0 = r.snapshotStats()
		r.tr.on.Store(true)
	}
}

// phasePaced is one half of the open loop (the halves run before and
// after the saturation phase, so the paced samples span the whole run and
// a slow stretch of the host is less likely to cover all of them). Op i is
// due at i/rate, is stamped with that intended time, and latency is
// charged from it, so a stall delays the ops behind it instead of hiding
// them. n ops are sent; base is the due time of the first, continuing the
// previous half's clock.
func (r *run) phasePaced(n int, base time.Duration) {
	spec := r.spec
	ops := r.gen.stream(n)
	if r.lagSamples == nil {
		r.lagSamples = make([]sample, r.sizes.paced*len(spec.subEngines))
	}
	pubSamples := make([][]sample, spec.pacedSenders)
	refSamples := make([][]sample, spec.pacedSenders)
	interval := float64(time.Second) / spec.pacedRate

	start := time.Now()
	r.pacedStart = start.Sub(r.epoch).Nanoseconds() - int64(base)
	r.pacedOn.Store(true)
	var wg sync.WaitGroup
	// Not for a workload that sleeps in injected round trips: with every
	// processor kept busy, 30–55 % of its deliveries (the share moved
	// with the host's speed) took up to 3.7 ms longer than the rest and
	// the median jumped between the two groups from run to run; left to
	// idle, the same phase gives one narrow peak.
	stopAwake := func() {}
	if !r.spec.sleeps() {
		stopAwake = keepAwake()
	}
	for s := 0; s < spec.pacedSenders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < len(ops); i += spec.pacedSenders {
				if r.aborted.Load() || time.Now().After(r.deadline) {
					return
				}
				due := time.Duration(float64(i) * interval)
				waitUntil(start.Add(due))
				if late := int64(time.Since(start) - due); late > r.maxLate.Load() {
					r.maxLate.Store(late) // racy max between senders; diagnostic only
				}
				took, err := r.publish(&ops[i], r.pacedStart+int64(base+due))
				if err == nil {
					pubSamples[s] = append(pubSamples[s], sample{due: int64(base + due), val: int64(took)})
				}
				// The reference operation, right after the publish, on the
				// same processor: what this moment costs on this host.
				if ref, ok := r.ref.sample(); ok {
					refSamples[s] = append(refSamples[s], sample{due: int64(base + due), val: int64(ref)})
				}
			}
		}()
	}
	wg.Wait()
	stopAwake()
	r.drain(r.limits.drain, "paced phase")
	r.pacedOn.Store(false)
	for s := range pubSamples {
		r.pubSamples = append(r.pubSamples, pubSamples[s]...)
		r.refSamples = append(r.refSamples, refSamples[s]...)
	}
	r.pacedSpans = append(r.pacedSpans, [2]time.Time{start, time.Now()})
}

// finishPaced turns the paced samples of both halves into metrics.
//
// Per 250 ms window: the median publish latency and the median lag, each
// over the median reference operation of the same window (times the
// reference's nominal duration, which restores the unit). The reported
// figure is the median over the windows. A workload with injected round
// trips is left in wall-clock time: its latencies are sleeps, which do
// not scale with the host's speed.
func (r *run) finishPaced() {
	pubs, lags := r.pubSamples, r.lagSamples
	if n := int(r.lagN.Load()); n < len(lags) {
		lags = lags[:n]
	}
	scale := r.refSamples
	if r.spec.sleeps() {
		scale = nil
	}
	e, h := r.res.endToEnd, r.res.harness
	e["publish_p50_us"] = median(windowRatios(pubs, scale, pacedWindow, 0.50, pacedWindowMin)) / 1e3
	e["lag_p50_ms"] = median(windowRatios(lags, scale, pacedWindow, 0.50, pacedWindowMin)) / 1e6
	h["paced.publish_p50_raw_us"] = windowQuantile(pubs, pacedWindow, 0.50, pacedWindowMin) / 1e3
	h["paced.lag_p50_raw_ms"] = windowQuantile(lags, pacedWindow, 0.50, pacedWindowMin) / 1e6
	h["paced.publish_p99_us"] = windowQuantile(pubs, time.Second, 0.99, 100) / 1e3
	h["paced.lag_p90_ms"] = windowQuantile(lags, time.Second, 0.90, 100) / 1e6
	h["paced.lag_p99_ms"] = windowQuantile(lags, time.Second, 0.99, 100) / 1e6
	h["paced.lag_samples"] = float64(len(lags))
	h["gen.max_late_ms"] = float64(r.maxLate.Load()) / 1e6
	var factors []float64
	for _, sp := range r.pacedSpans {
		factors = append(factors, r.ref.factor(sp[0], sp[1]))
	}
	h["host.paced_factor"] = mean(factors)
	// The samples are the harness's, not the program's: release them
	// before the live heap is read.
	r.pubSamples, r.lagSamples, r.refSamples = nil, nil, nil
}

// keepAwake keeps every processor of the Go scheduler busy with a
// goroutine that only yields, until the returned function is called.
// At a few thousand sends a second the pipeline is idle between
// messages; an idle processor parks its thread, the vCPU halts, and the
// next message pays the hypervisor's wake-up of a halted vCPU — tens of
// microseconds that vary with the neighbours and moved lag_p50 by up to
// 50 % between runs of the same code. Yielding goroutines run only when
// nothing else is runnable, so the program's own path is what is timed.
func keepAwake() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-quit:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	return func() {
		close(quit)
		wg.Wait()
	}
}

// waitUntil sleeps to shortly before t and yields through the rest:
// time.Sleep alone overshoots by tens of microseconds, which at 4,000
// sends a second would be charged to every sample as generator lateness.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 300*time.Microsecond {
			time.Sleep(d - 200*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// readGCCPU returns the runtime's estimate of the CPU seconds spent in
// the collector and in total.
func readGCCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// phaseSaturation is the closed loop: (satSegments+1)·segN messages, a
// mark each time another segN publishes have completed. The window keeps
// published − applied ≤ windowHigh, so a segment's publish rate is the
// rate at which every subscriber applied it.
func (r *run) phaseSaturation(segN int) {
	n := (satSegments + 1) * segN
	ops := r.gen.stream(n)
	marks := make([]segmentMark, satSegments+2)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc0, tot0 := readGCCPU()
	ref0 := r.ref.ops.Load()
	marks[0] = segmentMark{at: time.Now(), cpu: cpuTime()}
	r.closedLoop(ops, func(k int64) {
		if k%int64(segN) == 0 {
			marks[k/int64(segN)] = segmentMark{at: time.Now(), cpu: cpuTime()}
		}
	})
	if !r.drain(r.limits.drain, "saturation phase") {
		return
	}
	gc1, tot1 := readGCCPU()
	runtime.ReadMemStats(&m1)
	refOps := float64(r.ref.ops.Load() - ref0)

	// Per segment: throughput and CPU per message, converted to the
	// reference host. The reported figures are the better quartile of the
	// segments — what disturbs a segment (a neighbour the reference
	// operation does not feel the same way, a processor taken away) only
	// ever makes it slower, and a quartile, unlike the best segment, does
	// not rest on the luck of one. The raw best segment and the
	// whole-phase figures are kept per layer so the estimators can be
	// audited.
	var rates, cpus, rawRates []float64
	for i := 2; i <= satSegments+1; i++ {
		a, b := marks[i-1], marks[i]
		if b.at.IsZero() || !b.at.After(a.at) {
			continue
		}
		rawCPU := float64(b.cpu-a.cpu) / 1e3 / float64(segN)
		rawRates = append(rawRates, float64(segN)/b.at.Sub(a.at).Seconds())
		rates = append(rates, float64(segN)/r.onReference(a.at, b.at, b.cpu-a.cpu).Seconds())
		cpus = append(cpus, rawCPU/r.cpuFactorOver(a.at, b.at))
		r.res.segCPU = append(r.res.segCPU, rawCPU)
		r.res.segFactor = append(r.res.segFactor, r.ref.factor(a.at, b.at))
	}
	if len(rates) == 0 {
		return
	}
	e, h := r.res.endToEnd, r.res.harness
	e["capacity_msgs_per_s"] = quantile(rates, 0.75)
	e["cpu_us_per_msg"] = quantile(cpus, 0.25)
	// The reference operations' own garbage is the harness's.
	e["allocs_per_msg"] = (float64(m1.Mallocs-m0.Mallocs) - refOps*r.ref.allocsPerOp) / float64(n)
	e["bytes_per_msg"] = (float64(m1.TotalAlloc-m0.TotalAlloc) - refOps*r.ref.bytesPerOp) / float64(n)
	r.res.segments = rawRates

	first, last := marks[1], marks[satSegments+1]
	h["sat.capacity_best_raw_msgs_per_s"] = maxOf(rawRates)
	h["sat.capacity_total_msgs_per_s"] = float64(satSegments*segN) / last.at.Sub(first.at).Seconds()
	h["sat.cpu_total_us_per_msg"] = float64(last.cpu-first.cpu) / 1e3 / float64(satSegments*segN)
	h["sat.cpu_utilisation"] = (last.cpu - first.cpu).Seconds() / last.at.Sub(first.at).Seconds() / float64(runtime.GOMAXPROCS(0))
	h["host.noise_ratio"] = maxOf(rawRates) / median(rawRates)
	h["host.sat_factor"] = r.ref.factor(first.at, last.at)
	if tot1 > tot0 {
		h["process.gc_cpu_share"] = (gc1 - gc0) / (tot1 - tot0)
	}
	h["process.gc_cycles_per_kmsg"] = float64(m1.NumGC-m0.NumGC) / float64(n) * 1e3
}

// phaseVerify drains, runs the correctness oracle and reads the live
// heap. It runs even after an aborted phase, so a wedge is still
// accounted for message by message.
func (r *run) phaseVerify() {
	if r.fab == nil {
		return
	}
	if r.tr != nil {
		r.tr.on.Store(false)
		r.snap1 = r.snapshotStats()
	}
	if !r.aborted.Load() {
		r.failf(r.checkConvergence(), "subscribers differ from the publisher after the final drain")
	}
	for _, s := range r.fab.subs {
		r.failf(s.violations.Load(), "%s applied a comment before the post revision it was written after", s.name)
		r.failf(int64(len(s.app.DeadLetters())), "%s has dead letters", s.name)
	}
	// What is left is the program's retained state (and the generator's
	// small tables): the harness's own arrays are released first.
	r.destroyDue, r.returnedRev, r.ref = nil, nil, nil
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.res.endToEnd["heap_live_mb"] = float64(m.HeapAlloc) / (1 << 20)
}
