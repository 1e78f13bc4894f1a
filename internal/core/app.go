package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/broker"
	"synapse/internal/deptrack"
	"synapse/internal/faultinject"
	"synapse/internal/groupcommit"
	"synapse/internal/hdr"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm"
	"synapse/internal/storage"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// PubSpec declares what an app publishes for a model (Table 2:
// Publisher, Ephemeral, Decorator).
type PubSpec struct {
	// Attrs are the published attributes (persisted fields or virtual
	// attributes of the model).
	Attrs []string
	// Ephemeral marks a DB-less published model: instances are shipped
	// to subscribers but never persisted locally.
	Ephemeral bool
}

// SubSpec declares a subscription to another app's model (Table 2:
// Subscriber, Observer).
type SubSpec struct {
	// From names the origin app (the model's owner or a decorator).
	From string
	// Attrs are the attributes to incorporate.
	Attrs []string
	// Mode is the delivery mode for updates from this origin; it must
	// not exceed the origin's publisher mode. Zero selects the strongest
	// mode the origin supports, capped at Causal (the paper's
	// recommended subscriber default).
	Mode DeliveryMode
	// Observer marks a DB-less subscribed model: updates trigger
	// callbacks but are not persisted.
	Observer bool
}

// pubSpec is one publication. It is never changed once it is in
// App.pubs — another Publish of the model, or a schema change, puts a new
// one there — so that a publish reads it without holding the app's lock.
type pubSpec struct {
	desc      *model.Descriptor
	attrs     map[string]struct{}
	ephemeral bool
	// owner marks the model's originator: the app published the model
	// before subscribing to it from anywhere. Decorators (which
	// subscribe first) are not owners; an owner that later subscribes
	// to decorations of its own model (the Fig 9a Diaspora pattern)
	// remains the owner.
	owner bool
	// What every message of the model needs, compiled once: the type
	// chain every operation shares, and the published attributes with
	// their getters.
	chain []string
	lens  *model.Projection
}

// compile derives the publication's compiled half from its attributes.
func (ps *pubSpec) compile() *pubSpec {
	ps.chain, ps.lens = ps.desc.TypeChain(), ps.desc.Project(slices.Collect(maps.Keys(ps.attrs)))
	return ps
}

type subSpec struct {
	origin   string
	attrs    map[string]struct{}
	mode     DeliveryMode
	observer bool
}

// projection is one subscription compiled (see compileSubs): everything
// between bytes off the queue and Mapper.Save that Subscribe already
// knows. It is the decoder's sink and applyOp's plan.
type projection struct {
	*model.Projection
	observer bool
}

// Wants implements wire.Sink: a persisted model's destroy is a delete by
// id, only an observer's callbacks see the object's last attributes.
func (p *projection) Wants(verb wire.OpKind) bool { return p.observer || verb != wire.OpDestroy }

// subTable is the app's subscriptions compiled, by origin: swapped whole,
// read without a lock.
type subTable map[string]*originSubs

type originSubs struct {
	mode   DeliveryMode // the strongest among the origin's subscriptions
	models map[string]*projection
}

// App is one Synapse service: a publisher, subscriber, decorator, or any
// mix. Every app has its own database (via its ORM mapper), its own
// version store, and — when it subscribes — its own broker queue.
type App struct {
	fabric  *Fabric
	name    string
	mapper  orm.Mapper
	cfg     Config
	store   *vstore.Store
	tracker deptrack.Tracker
	queue   *broker.Queue

	mu       sync.RWMutex
	pubs     map[string]*pubSpec            // model -> publication
	subs     map[string]map[string]*subSpec // model -> origin -> subscription
	descs    map[string]*model.Descriptor   // all models this app knows
	gens     map[string]*genState           // origin -> generation barrier state
	bootSeqs map[string]uint64              // origin -> bootstrap snapshot seq
	// compiled is subs as the delivery path reads it (see compileSubs);
	// resolve is resolveSink, bound once.
	compiled atomic.Pointer[subTable]
	resolve  wire.Resolver

	bootDepth  atomic.Int64  // >0 while any bootstrap runs
	generation atomic.Uint64 // this app's publisher generation
	seq        atomic.Uint64
	env        map[string]any
	envMu      sync.Mutex
	recoverMu  sync.Mutex // serializes queue recovery
	journalMu  sync.Mutex // serializes journal drains and cuts

	// recoverPending is the set of origins RecoverQueue still owes a
	// bootstrap (guarded by recoverMu): a multi-origin recovery that
	// fails partway resumes from the failed origin on the next call
	// instead of re-bootstrapping origins that already converged.
	recoverPending []string

	// faults is the app's fault-injection registry (see faultinject).
	// Always non-nil; inert unless a test arms a site.
	faults *faultinject.Registry
	// journalEpoch stamps this app instance's journal entry IDs so a
	// restarted instance (same name, same database) can never collide
	// with entries a crashed predecessor left behind. outbox indexes
	// this instance's entries (see journal.go).
	journalEpoch int64
	outbox       *outbox
	drainWork    chan struct{} // one token for the journal drain (wakeDrain)

	// tel is every number Stats reports that the app counts itself.
	tel telemetry

	// depWriters records, per resolved object key, a fingerprint of the
	// last (origin, model, id) applied under it — the evidence the
	// false-dependency estimate compares against. Striped to keep the
	// hot-path record cheap under concurrent workers. Kept only when
	// collisions can happen (hashedDeps): a hash tracker with a bounded
	// DepCardinality.
	depWriters [16]depWriterStripe
	hashedDeps bool

	// Overload-control state: the last subscriber pressure observed over
	// the network (served from cache while the probe's link is faulty)
	// and the drain flag quiescing publishes.
	lastPressure atomic.Int32
	draining     atomic.Bool

	// Per-endpoint resilient callers and the parked-ack retry list
	// (see netlink.go).
	brokerCall  *netsim.Caller
	vstoreCall  *netsim.Caller
	coordCall   *netsim.Caller
	ackMu       sync.Mutex
	pendingAcks []pendingAck

	workersMu sync.Mutex
	stopCh    chan struct{}
	workersWG sync.WaitGroup
	poolSize  atomic.Int32 // workers started and not yet stopped

	// Park/ready state (see job in subscribe.go): the parked deliveries
	// (for hand-back, drop and Stats; the version store's table alone says
	// who waits on which counter), the FIFO of released ones that workers
	// drain before fetching, and what wakes ProcessMessage's callers in park.
	parkMu   sync.Mutex
	parked   map[*job]struct{}
	ready    []*job
	released sync.Cond     // on parkMu, broadcast by every release
	nudged   chan struct{} // one token for a worker whose refill came up short (nudge)
	jobs     sync.Pool     // every entry's jobs, each handed back once it is over (see recycle)

	// sinks see every transition after the telemetry (see moved). Tests
	// add them before the app runs; production has none.
	sinks []func(transition)

	// The subscriber's group commit (see flushBatch in lanes.go):
	// completed pipeline deliveries queue their jobs here, and whichever
	// worker leads the flusher drains their counter increments and broker
	// acks in IncrOpsMulti + AckMulti batches. flushCounts and flushTags
	// are the leader's scratch, reused from one batch to the next.
	commits     *groupcommit.Flusher[*job]
	flushCounts map[vstore.Key]uint64
	flushTags   []uint64

	// applyLocks are the per-object apply locks making a version claim
	// and its DB write atomic (see claimAndApply in subscribe.go).
	applyLocks *storage.LockTable[vstore.Key]
}

// telemetry is an app's instruments, written lock-free (a job's moves in
// moved, the rest where things happen) and read only by Stats. Each feeds
// the Stats field named after it, whose comment says what it counts.
type telemetry struct {
	processed, retries, redelivered, stalled atomic.Int64
	republished, deferred                    atomic.Int64
	publishTime                              atomic.Int64 // ns

	bootstrapChunks, bootstrapResumes atomic.Int64

	depWaitsBlocked, depTimeouts, falseDeps atomic.Int64
	lastDepTimeoutMu                        sync.Mutex
	lastDepTimeout                          string

	stages                   [numStages]hdr.Recorder
	depWaitBlocked           hdr.Recorder // from the first unmet probe to the one that admitted
	bootstrapStall           hdr.Recorder // MaxPublishStall: one sample per chunk read's lock hold
	pipelineFill, flushBatch hdr.Recorder // counts, not durations
}

// stage indexes the subscriber pipeline timers: payload decode,
// generation barrier (§4.4), dependency wait (§4.2), version claim + DB
// apply (§4.2), group-commit flush, and broker ack. moved observes decode
// once per delivery fetched from the queue, barrier and apply once per
// delivery from any entry, dep-wait once per delivery with a non-empty
// plan (weak and bootstrapping deliveries have none); flushBatch observes
// flush and ack once per group commit. Deliveries overlap, so the totals
// can exceed wall clock.
type stage uint8

const (
	stageDecode stage = iota
	stageBarrier
	stageDepWait
	stageApply
	stageFlush
	stageAck
	numStages
)

// stageNames are the Stats.Stages keys.
var stageNames = [numStages]string{"decode", "barrier", "dep-wait", "apply", "flush", "ack"}

// observe records one sample of a stage.
func (t *telemetry) observe(s stage, d time.Duration) { t.stages[s].Record(int64(d)) }

// transition is one event on an app's stream: a job's (pub nil) or a
// publication's (job nil) move from one jobState or pubState to the next.
type transition struct {
	app      *App
	job      *job
	pub      *publication
	from, to uint32
	t        time.Time
}

// moved sees every move App.to (j) or App.advance (p) makes: a job's
// feeds the stage timers (j.at is when its stage began; DepTimeout counts
// from the plan's) and the processed and redelivered counts, then each
// sink sees it (emit). Four words, not a transition: an argument that
// size would grow the frames of to and advance on the lanes' stacks.
func (a *App) moved(j *job, p *publication, from, next uint32) {
	ev := transition{app: a, job: j, pub: p, from: from, to: next}
	if j != nil {
		switch from, next := jobState(from), jobState(next); {
		case from == stateFetched:
			if j.d.Redelivered {
				a.tel.redelivered.Add(1)
			}
			ev.t = time.Now()
			a.tel.observe(stageDecode, ev.t.Sub(j.at))
			j.at = ev.t
		case from == stateDecoded && next == statePlanned:
			ev.t = time.Now()
			a.tel.observe(stageBarrier, ev.t.Sub(j.at))
			j.at = ev.t
		case next == stateClaimed:
			ev.t = time.Now()
			if !j.blockedAt.IsZero() {
				a.tel.depWaitBlocked.Record(int64(ev.t.Sub(j.blockedAt)))
			}
			if len(j.reqs) > 0 {
				a.tel.observe(stageDepWait, ev.t.Sub(j.at))
			}
			j.at = ev.t
		case from == stateApplied && next == stateDone:
			ev.t = time.Now()
			a.tel.observe(stageApply, ev.t.Sub(j.at))
			a.tel.processed.Add(1)
		}
	}
	if len(a.sinks) > 0 {
		a.emit(ev)
	}
}

// emit stamps ev, unless a timer read the clock, for each sink. A sink
// may run under parkMu or a generation's mu: it takes only its own lock
// and calls nothing on the app.
func (a *App) emit(ev transition) {
	if ev.t.IsZero() {
		ev.t = time.Now()
	}
	for _, sink := range a.sinks {
		sink(ev)
	}
}

// depWriterStripe is one stripe of the last-writer fingerprint table.
type depWriterStripe struct {
	mu sync.Mutex
	m  map[vstore.Key]uint64
}

// NewApp registers a service on the fabric. mapper may be nil only for
// apps whose models are all ephemeral or observed (DB-less services).
func NewApp(f *Fabric, name string, mapper orm.Mapper, cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	store := vstore.New(vstore.Config{
		Shards:      cfg.VStoreShards,
		Cardinality: cfg.DepCardinality,
		RTT:         cfg.VStoreRTT,
		PerKey:      cfg.VStorePerKey,
		Precise:     cfg.VStorePrecise,
	})
	tracker, err := deptrack.New(cfg.DepTracker, store, false)
	if err != nil {
		return nil, err
	}
	a := &App{
		fabric:       f,
		name:         name,
		mapper:       mapper,
		cfg:          cfg,
		store:        store,
		tracker:      tracker,
		pubs:         make(map[string]*pubSpec),
		subs:         make(map[string]map[string]*subSpec),
		descs:        make(map[string]*model.Descriptor),
		gens:         make(map[string]*genState),
		env:          make(map[string]any),
		faults:       faultinject.New(),
		journalEpoch: time.Now().UnixNano(),
		parked:       make(map[*job]struct{}),
		nudged:       make(chan struct{}, 1),
		drainWork:    make(chan struct{}, 1),
		applyLocks:   storage.NewLockTable[vstore.Key](),
	}
	a.hashedDeps = tracker.Policy() == deptrack.PolicyHash && cfg.DepCardinality > 0
	a.compiled.Store(&subTable{})
	a.resolve = a.resolveSink
	a.released.L = &a.parkMu
	a.jobs.New = func() any { return &job{app: a} }
	a.outbox = newOutbox(&a.seq)
	a.commits = groupcommit.New(flushBatchCap, 0, a.flushBatch)
	a.flushCounts = make(map[vstore.Key]uint64)
	if err := f.registerApp(a); err != nil {
		return nil, err
	}
	a.initCallers()
	if mapper != nil {
		mapper.SetHost(a)
		if err := a.registerJournal(); err != nil {
			return nil, err
		}
		// The bootstrap cursor journal is independent of the publish
		// journal: any app with a database can resume an interrupted
		// bootstrap.
		if err := a.registerCursorJournal(); err != nil {
			return nil, err
		}
	}
	// The publisher generation starts at whatever the coordinator
	// remembers (a restarted app resumes its generation).
	a.generation.Store(a.coordGet(genCounterName(name)))
	return a, nil
}

func genCounterName(app string) string { return "generation/" + app }

// Stats is a point-in-time summary of an app's hot-path activity:
// message counts, version-store round-trip windows, and the subscriber
// stage timers.
type Stats struct {
	// Published is the number of messages this app has published.
	Published uint64
	// PublishTime is the time its publishes spent outside the database,
	// summed: the "Synapse time" of Fig 12(a).
	PublishTime time.Duration
	// Processed is the number of subscribed messages fully applied.
	Processed int64
	// VStoreRoundTrips counts version-store round-trip windows (pipelined
	// multi-shard scripts count once) across both roles of this app's
	// store.
	VStoreRoundTrips uint64
	// RoundTripsPerMessage is VStoreRoundTrips over the total messages
	// published and processed (0 when no messages have flowed).
	RoundTripsPerMessage float64
	// JournalDepth is the publish-journal entries awaiting a broker send
	// (nonzero only mid-publish, while sends are deferred, or after a
	// crash). JournalTruncated counts the journal rows removed by range
	// deletes — the journal's engine work that Mapper().Stats() leaves
	// out because when a cut happens depends on the schedule.
	JournalDepth     int
	JournalTruncated int64
	// Republished counts journal entries resent by RecoverJournal.
	Republished int64
	// Retries counts failed deliveries requeued for another attempt.
	Retries int64
	// Redelivered counts deliveries consumed with the redelivered flag
	// set (a prior delivery went unacked — broker restart, worker crash,
	// or a lost ack).
	Redelivered int64
	// Deferred counts publishes degraded to journal-and-defer: their
	// broker send failed after retries, or admission found a subscriber
	// queue pressured. The journal drain StartWorkers runs republishes
	// them once the endpoint heals or the pressure clears.
	Deferred int64
	// DeadLetters is the messages currently set aside on the queue's
	// dead-letter list; DeadLettered is the total ever set aside
	// (replayed messages leave the list but stay counted).
	DeadLetters  int
	DeadLettered int64
	// Stalled counts deliveries abandoned by the apply watchdog
	// (callback still running past its escalating ApplyTimeout budget).
	Stalled int64
	// DepWaitsBlocked counts causal dependency waits that found at least
	// one dependency unmet on the first check, as soon as they find it;
	// DepWaitBlockedMean and DepWaitBlockedMax summarize how long those
	// that have resolved (or given up) took.
	DepWaitsBlocked    int64
	DepWaitBlockedMean time.Duration
	DepWaitBlockedMax  time.Duration
	// Parked describes each delivery currently parked — fetched, unacked,
	// waiting for a dependency counter or a generation — as "origin
	// seq=N: what it waits for", the first unmet dependency rendered
	// like LastDepTimeout. Its length is the gauge; a subscriber making
	// no progress with entries here waits for a late or lost message.
	Parked []string
	// FalseDepsSuspected estimates the blocked waits released by a write
	// to a DIFFERENT name hashing onto the same dependency key — the
	// false-dependency cost of the fixed-cardinality hash tracker
	// (§4.2). Zero under the DVV tracker and under unhashed keys
	// (DepCardinality 0), which record no evidence.
	FalseDepsSuspected int64
	// DepTimeouts counts dependency waits that gave up (§6.5 degraded
	// processing); LastDepTimeout renders the most recent one, naming
	// the blocking dependency through the app's tracker.
	DepTimeouts    int64
	LastDepTimeout string
	// QueueDepth is the subscriber queue's current pending+unacked
	// depth; QueueMaxDepth the deepest it has ever been.
	QueueDepth    int
	QueueMaxDepth int
	// PipelineFillMean/Max summarize in-flight pipeline occupancy (slots
	// busy when a worker dispatched a delivery; ≥ 1 by construction).
	// Flushes counts group-commit flushes; FlushBatchMean/Max summarize
	// how many completed messages merged per flush — Processed/Flushes
	// is the ack+incr round-trip amortization factor.
	PipelineFillMean float64
	PipelineFillMax  int64
	Flushes          int64
	FlushBatchMean   float64
	FlushBatchMax    int64
	// BootstrapChunks counts chunks fully applied by the chunked
	// bootstrap; BootstrapResumes counts bootstraps that resumed from a
	// journaled chunk cursor instead of scanning from the start.
	BootstrapChunks  int64
	BootstrapResumes int64
	// MaxPublishStall is the longest bounded publisher-lock hold any
	// chunk read inflicted on this app's store — the worst-case publish
	// stall a subscriber join caused (zero when nothing bootstrapped
	// from this app).
	MaxPublishStall time.Duration
	// Stages summarizes the subscriber pipeline timers by stage name:
	// decode, barrier, dep-wait, apply, flush and ack.
	Stages map[string]StageStat
}

// StageStat is one stage's summary in Stats.Stages. Count, Mean and
// Total are exact; P95 carries the recorder's bucketing error (at most
// 1/32 of the value).
type StageStat struct {
	Count int
	Mean  time.Duration
	P95   time.Duration
	Total time.Duration
}

// Stats snapshots the app's hot-path counters and stage timers.
func (a *App) Stats() Stats {
	t := &a.tel
	_, _, truncated := a.outbox.counts()
	st := Stats{
		JournalTruncated:   truncated,
		Published:          a.seq.Load(),
		PublishTime:        time.Duration(t.publishTime.Load()),
		Processed:          t.processed.Load(),
		VStoreRoundTrips:   a.store.RoundTrips(),
		JournalDepth:       a.JournalDepth(),
		Republished:        t.republished.Load(),
		Retries:            t.retries.Load(),
		Redelivered:        t.redelivered.Load(),
		Deferred:           t.deferred.Load(),
		Stalled:            t.stalled.Load(),
		DepWaitsBlocked:    t.depWaitsBlocked.Load(),
		DepWaitBlockedMean: time.Duration(t.depWaitBlocked.Mean()),
		DepWaitBlockedMax:  time.Duration(t.depWaitBlocked.Max()),
		FalseDepsSuspected: t.falseDeps.Load(),
		DepTimeouts:        t.depTimeouts.Load(),
		PipelineFillMean:   t.pipelineFill.Mean(),
		PipelineFillMax:    t.pipelineFill.Max(),
		Flushes:            int64(t.flushBatch.Count()),
		FlushBatchMean:     t.flushBatch.Mean(),
		FlushBatchMax:      t.flushBatch.Max(),
		BootstrapChunks:    t.bootstrapChunks.Load(),
		BootstrapResumes:   t.bootstrapResumes.Load(),
		MaxPublishStall:    time.Duration(t.bootstrapStall.Max()),
		Parked:             a.describeParked(),
		Stages:             make(map[string]StageStat, numStages),
	}
	for s, name := range stageNames {
		r := &t.stages[s]
		st.Stages[name] = StageStat{
			Count: int(r.Count()),
			Mean:  time.Duration(r.Mean()),
			P95:   time.Duration(r.Quantile(0.95)),
			Total: time.Duration(r.Sum()),
		}
	}
	t.lastDepTimeoutMu.Lock()
	st.LastDepTimeout = t.lastDepTimeout
	t.lastDepTimeoutMu.Unlock()
	if q := a.Queue(); q != nil {
		st.DeadLetters = q.DeadLetterCount()
		st.DeadLettered = q.DeadLettered()
		st.QueueDepth = q.Depth()
		st.QueueMaxDepth = q.MaxDepthSeen()
	}
	if n := float64(st.Published) + float64(st.Processed); n > 0 {
		st.RoundTripsPerMessage = float64(st.VStoreRoundTrips) / n
	}
	return st
}

// Faults returns the app's fault-injection registry; tests arm named
// sites on it (see the Fault* constants in journal.go and the broker's
// FaultBrokerDrop). Inert unless armed.
func (a *App) Faults() *faultinject.Registry { return a.faults }

// DeadLetters returns copies of the messages set aside after exceeding
// Config.MaxDeliveryAttempts, oldest first (inspection).
func (a *App) DeadLetters() []broker.Delivery {
	if q := a.Queue(); q != nil {
		return q.DeadLetters()
	}
	return nil
}

// ReplayDeadLetters requeues every set-aside message for another round
// of delivery attempts (after the operator clears the underlying
// fault), reporting how many were replayed.
func (a *App) ReplayDeadLetters() int {
	if q := a.Queue(); q != nil {
		return q.ReplayDeadLetters()
	}
	return 0
}

// Name returns the app name (also its broker exchange name).
func (a *App) Name() string { return a.name }

// Mapper returns the app's ORM mapper.
func (a *App) Mapper() orm.Mapper { return a.mapper }

// Store returns the app's version store (benchmarks and tests).
func (a *App) Store() *vstore.Store { return a.store }

// Tracker returns the app's dependency tracker (see Config.DepTracker).
func (a *App) Tracker() deptrack.Tracker { return a.tracker }

// Config returns the app's configuration.
func (a *App) Config() Config { return a.cfg }

// Bootstrapping implements orm.Host and the Bootstrap? predicate of
// Table 2: callbacks consult it to skip side effects (e.g. emails)
// while the app is catching up.
func (a *App) Bootstrapping() bool { return a.bootDepth.Load() > 0 }

// Env implements orm.Host: shared state threaded into callbacks.
func (a *App) Env() map[string]any { return a.env }

// SetEnv stores a value visible to callbacks via CallbackCtx.Env.
func (a *App) SetEnv(key string, v any) {
	a.envMu.Lock()
	a.env[key] = v
	a.envMu.Unlock()
}

// Descriptor returns the descriptor for a model known to this app.
func (a *App) Descriptor(modelName string) (*model.Descriptor, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	d, ok := a.descs[modelName]
	return d, ok
}

// Publish declares a published model (Fig 1 top). For persisted models
// the descriptor is registered with the app's mapper; ephemerals are
// DB-less. Publishing attributes of a model the app also subscribes to
// makes the app a decorator for that model, subject to the decorator
// restrictions of §3.1.
func (a *App) Publish(d *model.Descriptor, spec PubSpec) error {
	if len(spec.Attrs) == 0 {
		return fmt.Errorf("synapse: publish %s/%s with no attributes", a.name, d.Name)
	}
	if !spec.Ephemeral && a.mapper == nil {
		return fmt.Errorf("synapse: app %s has no database; only ephemeral models can be published", a.name)
	}
	for _, attr := range spec.Attrs {
		if !d.HasAttr(attr) {
			return fmt.Errorf("synapse: publish %s/%s: model has no attribute %q", a.name, d.Name, attr)
		}
	}

	a.mu.Lock()
	if existing, ok := a.descs[d.Name]; ok && existing != d {
		a.mu.Unlock()
		return fmt.Errorf("synapse: model %s declared with a different descriptor", d.Name)
	}
	subOrigins := a.subs[d.Name]
	if len(subOrigins) > 0 {
		// Decorator: published attributes must not overlap subscribed
		// ones ("decorators cannot publish attributes that they
		// subscribe to").
		for _, sub := range subOrigins {
			for _, attr := range spec.Attrs {
				if _, ok := sub.attrs[attr]; ok {
					a.mu.Unlock()
					return fmt.Errorf("%w: %s.%s (subscribed from %s)", ErrDecoratorAttr, d.Name, attr, sub.origin)
				}
			}
		}
		if spec.Ephemeral {
			a.mu.Unlock()
			return fmt.Errorf("synapse: decorated model %s cannot be ephemeral", d.Name)
		}
	}
	ps := &pubSpec{desc: d, attrs: make(map[string]struct{}), ephemeral: spec.Ephemeral, owner: len(subOrigins) == 0}
	if old := a.pubs[d.Name]; old != nil {
		ps.ephemeral, ps.owner = old.ephemeral, old.owner
		maps.Copy(ps.attrs, old.attrs)
	}
	for _, attr := range spec.Attrs {
		ps.attrs[attr] = struct{}{}
	}
	a.pubs[d.Name] = ps.compile()
	a.descs[d.Name] = d
	needRegister := !spec.Ephemeral && a.mapper != nil
	if needRegister {
		if _, ok := a.mapper.Descriptor(d.Name); ok {
			needRegister = false
		}
	}
	a.mu.Unlock()

	if needRegister {
		if err := a.mapper.Register(d); err != nil {
			return err
		}
	}
	return a.fabric.declarePublished(a.name, d.Name, spec.Attrs)
}

// Subscribe declares a subscription (Fig 1 bottom). The static check of
// §4.5 rejects subscribing to anything the origin does not publish; the
// requested mode must not exceed the origin's publisher mode.
func (a *App) Subscribe(d *model.Descriptor, spec SubSpec) error {
	if spec.From == "" {
		return fmt.Errorf("synapse: subscribe %s/%s without origin", a.name, d.Name)
	}
	if len(spec.Attrs) == 0 {
		return fmt.Errorf("synapse: subscribe %s/%s with no attributes", a.name, d.Name)
	}
	if !spec.Observer && a.mapper == nil {
		return fmt.Errorf("synapse: app %s has no database; only observer models can be subscribed", a.name)
	}
	if err := a.fabric.checkSubscribable(spec.From, d.Name, spec.Attrs); err != nil {
		return err
	}
	pubMode, ok := a.fabric.publisherMode(spec.From)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownApp, spec.From)
	}
	mode := spec.Mode
	if mode == modeUnset {
		mode = pubMode
		if mode > Causal {
			mode = Causal
		}
	}
	if mode > pubMode {
		return fmt.Errorf("%w: %s is %s, requested %s", ErrModeTooStrong, spec.From, pubMode, mode)
	}
	for _, attr := range spec.Attrs {
		if !d.HasAttr(attr) {
			return fmt.Errorf("synapse: subscribe %s/%s: model has no attribute %q", a.name, d.Name, attr)
		}
	}

	a.mu.Lock()
	if existing, ok := a.descs[d.Name]; ok && existing != d {
		a.mu.Unlock()
		return fmt.Errorf("synapse: model %s declared with a different descriptor", d.Name)
	}
	// Decorator restriction in the other declaration order: if already
	// published, the published attrs must not be re-subscribed.
	if ps := a.pubs[d.Name]; ps != nil {
		for _, attr := range spec.Attrs {
			if _, ok := ps.attrs[attr]; ok {
				a.mu.Unlock()
				return fmt.Errorf("%w: %s.%s", ErrDecoratorAttr, d.Name, attr)
			}
		}
	}
	origins := a.subs[d.Name]
	if origins == nil {
		origins = make(map[string]*subSpec)
		a.subs[d.Name] = origins
	}
	ss := origins[spec.From]
	if ss == nil {
		ss = &subSpec{origin: spec.From, attrs: make(map[string]struct{}), mode: mode, observer: spec.Observer}
		origins[spec.From] = ss
	}
	ss.mode = mode
	ss.observer = spec.Observer
	for _, attr := range spec.Attrs {
		ss.attrs[attr] = struct{}{}
	}
	a.descs[d.Name] = d
	a.compileSubs()
	needRegister := !spec.Observer && a.mapper != nil
	if needRegister {
		if _, ok := a.mapper.Descriptor(d.Name); ok {
			needRegister = false
		}
	}
	a.mu.Unlock()

	if needRegister {
		if err := a.mapper.Register(d); err != nil {
			return err
		}
	}
	// Ensure the queue exists and is bound to the origin's exchange.
	a.ensureQueue()
	return a.fabric.bus().Bind(a.queueName(), spec.From)
}

// compileSubs rebuilds the compiled subscription table from subs, with
// a.mu held: by Subscribe, and by the delivery that finds a projection
// stale — AddField, RemoveField and DefineVirtual after Subscribe are a
// supported flow (live schema migration, §4.3).
func (a *App) compileSubs() {
	t := make(subTable)
	for modelName, origins := range a.subs {
		for origin, ss := range origins {
			o := t[origin]
			if o == nil {
				o = &originSubs{mode: Weak, models: make(map[string]*projection)}
				t[origin] = o
			}
			o.mode = max(o.mode, ss.mode)
			attrs := slices.Collect(maps.Keys(ss.attrs))
			o.models[modelName] = &projection{a.descs[modelName].Project(attrs), ss.observer}
		}
	}
	a.compiled.Store(&t)
}

// projectionFor resolves the most-derived subscribed model of an
// operation's type chain (polymorphic consumption, §4.1) to its current
// projection; nil when this app does not subscribe to it from origin.
func (a *App) projectionFor(origin string, types []string) *projection {
	for {
		t := a.compiled.Load()
		var p *projection
		if o := (*t)[origin]; o != nil {
			for _, name := range types {
				if p = o.models[name]; p != nil {
					break
				}
			}
		}
		if p == nil || !p.Stale() {
			return p
		}
		a.mu.Lock()
		if a.compiled.Load() == t {
			a.compileSubs()
		}
		a.mu.Unlock()
	}
}

// resolveSink is the wire.Resolver of this app's deliveries.
func (a *App) resolveSink(origin string, types []string) wire.Sink {
	if p := a.projectionFor(origin, types); p != nil {
		return p
	}
	return nil
}

func (a *App) queueName() string { return a.name }

func (a *App) ensureQueue() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.queue == nil || a.queue.Dead() {
		// DeclareQueue fails while the broker is crashed; keep the old
		// handle (the worker loop reattaches after the restart).
		if q, err := a.fabric.bus().DeclareQueue(a.queueName(), a.cfg.QueueMaxLen); err == nil {
			a.tuneQueue(q)
			a.queue = q
		}
	}
}

// tuneQueue applies this app's consumer policy — delivery-attempt
// bound, soft watermarks, credit window — to a queue handle. Watermarks
// and credits belong to the consumers attached now, not to the cursor
// state the broker's log keeps, so this runs on every declare/reattach,
// like re-sending basic.qos after an AMQP reconnect.
func (a *App) tuneQueue(q *broker.Queue) {
	q.SetMaxAttempts(a.cfg.MaxDeliveryAttempts)
	q.SetWatermarks(a.cfg.QueueHighWatermark)
	// Every in-flight pipeline slot holds an unacked delivery until its
	// group-commit flush lands, and so does every parked message — the
	// window is what bounds the parked set. A failed delivery nacked to
	// the queue front gives its credit back, so its retry can always be
	// fetched ahead of the dependants parked behind it. The window is
	// creditWindowFactor windows' worth of the pool's slots.
	slots := max(a.cfg.Workers, int(a.poolSize.Load())) * a.cfg.PipelineDepth
	q.SetCredits(creditWindowFactor * slots)
}

// creditWindowFactor sizes the derived credit window in pipeline slots:
// every slot busy plus three times as many parked or awaiting their flush.
const creditWindowFactor = 4

// Queue returns the app's subscriber queue (nil when it subscribes to
// nothing).
func (a *App) Queue() *broker.Queue {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.queue
}

// owned reports whether this app is the model's owner (its originator:
// only owners create and delete instances, §3.1). Decorators, which
// subscribe to the model before publishing decorations for it, are not
// owners.
func (a *App) owned(modelName string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ps, pub := a.pubs[modelName]
	return pub && ps.owner
}

// publication returns what this app publishes of a model, compiled
// against the descriptor's current schema; nil when it publishes nothing
// of it.
func (a *App) publication(modelName string) *pubSpec {
	a.mu.RLock()
	ps := a.pubs[modelName]
	a.mu.RUnlock()
	if ps != nil && ps.lens.Stale() {
		a.mu.Lock()
		if ps = a.pubs[modelName]; ps.lens.Stale() {
			fresh := *ps
			ps = fresh.compile()
			a.pubs[modelName] = ps
		}
		a.mu.Unlock()
	}
	return ps
}

// subscription returns the subscription spec for (model, origin).
func (a *App) subscription(modelName, origin string) (*subSpec, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ss, ok := a.subs[modelName][origin]
	return ss, ok
}

// subscribedOrigins returns the origins this app subscribes to, sorted.
func (a *App) subscribedOrigins() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	set := make(map[string]struct{})
	for _, origins := range a.subs {
		for origin := range origins {
			set[origin] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for origin := range set {
		out = append(out, origin)
	}
	sort.Strings(out)
	return out
}

// modelsFrom returns the models this app subscribes to from origin,
// sorted.
func (a *App) modelsFrom(origin string) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []string
	for modelName, origins := range a.subs {
		if _, ok := origins[origin]; ok {
			out = append(out, modelName)
		}
	}
	sort.Strings(out)
	return out
}

// isEphemeral reports whether the model is published DB-less.
func (a *App) isEphemeral(modelName string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ps, ok := a.pubs[modelName]
	return ok && ps.ephemeral
}

// depName builds the canonical dependency name for an object owned by
// an app, matching the paper's "pub3/users/id/100" form.
func depName(app, modelName, id string) string {
	return app + "/" + orm.Tableize(modelName) + "/id/" + id
}

// globalDepName is the synthetic object serializing all writes in
// global mode.
func globalDepName(app string) string { return app + "/global" }

// opFingerprint hashes an operation's identity — origin app, model, id
// — without allocating (incremental FNV-1a over the components), so
// the last-writer table can be maintained on the apply hot path without
// rebuilding the dependency-name string.
func opFingerprint(origin, model, id string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= '/'
		h *= 1099511628211
	}
	mix(origin)
	mix(model)
	mix(id)
	return h
}

// recordDepWriter notes that an operation with fingerprint fp was the
// last write applied under key k.
func (a *App) recordDepWriter(k vstore.Key, fp uint64) {
	s := &a.depWriters[uint64(k)%uint64(len(a.depWriters))]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[vstore.Key]uint64)
	}
	s.m[k] = fp
	s.mu.Unlock()
}

// lastDepWriter reports the fingerprint of the last write applied under
// key k, if any write was recorded.
func (a *App) lastDepWriter(k vstore.Key) (uint64, bool) {
	s := &a.depWriters[uint64(k)%uint64(len(a.depWriters))]
	s.mu.Lock()
	fp, ok := s.m[k]
	s.mu.Unlock()
	return fp, ok
}
