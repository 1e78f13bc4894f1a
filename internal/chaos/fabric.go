package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/documentorm"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/reldb"
	"synapse/internal/vstore"
)

// settleTimeout bounds how long convergence may take once a script has
// healed its last fault.
const settleTimeout = 15 * time.Second

// turbulent is the fabric every script runs on: a seeded simulated
// network under a core fabric, and the one configuration the scripts'
// apps are built from.
type turbulent struct {
	net  *netsim.Network
	f    *core.Fabric
	logs logWatch
	cfg  core.Config
}

func newTurbulent(seed int64, tracker string) *turbulent {
	t := &turbulent{net: netsim.New(seed), f: core.NewFabric()}
	// Version-store and coordinator links: latency only. A persistent
	// subscriber<->vstore fault would silently strand claim rollbacks,
	// which is a different failure class than this harness asserts on;
	// broker links carry the loss (lossy), where the journal, parked
	// acks, and redelivery heal it.
	t.net.SetDefaultProfile(netsim.Profile{
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 80 * time.Microsecond,
	})
	t.f.Net = t.net
	t.f.Broker.SetTruncateHook(t.logs.hook)
	t.cfg = core.Config{
		Mode:       core.Causal,
		DepTracker: tracker,
		DepTimeout: 50 * time.Millisecond,
		Workers:    2,
	}
	return t
}

// The engines behind the scripts' apps: a document publisher, a
// document subscriber and a SQL subscriber.
func mongo() orm.Mapper    { return documentorm.New(docdb.New(docdb.MongoDB)) }
func rethink() orm.Mapper  { return documentorm.New(docdb.New(docdb.RethinkDB)) }
func postgres() orm.Mapper { return activerecord.New(reldb.New(reldb.Postgres)) }

// app adds an app built from the shared configuration; tune, when set,
// adjusts the copy first.
func (t *turbulent) app(name string, m orm.Mapper, tune func(*core.Config)) (*core.App, error) {
	cfg := t.cfg
	if tune != nil {
		tune(&cfg)
	}
	return core.NewApp(t.f, name, m, cfg)
}

// lossy puts baseline turbulence on the apps' broker links, even while
// "healthy": a few percent of calls drop (visible RPC failures, healed
// by retry/journal/parked acks) and duplicate (absorbed by the version
// guard and ErrBadTag).
func (t *turbulent) lossy(apps ...*core.App) {
	for _, a := range apps {
		t.net.SetProfile(a.Name(), core.EndpointBroker, netsim.Profile{
			LatencyMin: 10 * time.Microsecond,
			LatencyMax: 150 * time.Microsecond,
			DropRate:   0.03,
			DupRate:    0.02,
		})
	}
}

// publisher adds the MongoDB app that owns the chaos model and the
// writer that drives it. StartWorkers on it runs no consumer (it
// subscribes to nothing) but does run the periodic journal drain, which
// is what republishes journal-and-defer sends once the broker heals.
func (t *turbulent) publisher(name string) (*writer, error) {
	pub, err := t.app(name, mongo(), nil)
	if err != nil {
		return nil, err
	}
	return &writer{pub: pub}, pub.Publish(chaosDesc(), core.PubSpec{Attrs: chaosAttrs})
}

// subscribe subscribes sub to the publisher's chaos model with cb run
// after every applied create and update.
func subscribe(sub, pub *core.App, cb model.Callback) error {
	d := chaosDesc()
	d.Callbacks.On(model.AfterCreate, cb)
	d.Callbacks.On(model.AfterUpdate, cb)
	return sub.Subscribe(d, core.SubSpec{From: pub.Name(), Attrs: chaosAttrs})
}

// writer publishes globally monotonic values through the publisher, so
// any value regression a subscriber observes is a stale re-apply.
type writer struct {
	pub      *core.App
	next     int64 // last value written
	genBumps int   // dead version stores healed in place
}

// put publishes the next value to the object — a create or an update by
// whether the publisher already holds it — healing a dead version store
// in place (§4.4: bump the generation, revive empty, resume).
func (w *writer) put(id string) error {
	w.next++
	for {
		rec := model.NewRecord(chaosModel, id)
		rec.Set("name", fmt.Sprintf("v%d", w.next))
		rec.Set("likes", w.next)
		ctl := w.pub.NewController(nil)
		var err error
		if _, ferr := w.pub.Mapper().Find(chaosModel, id); ferr == nil {
			_, err = ctl.Update(rec)
		} else {
			_, err = ctl.Create(rec)
		}
		if !errors.Is(err, vstore.ErrDead) {
			return err
		}
		w.pub.RecoverVersionStore()
		w.genBumps++
	}
}

// steady starts the turbulent-phase writer: n writes to random objects
// on a 1-3ms cadence, in its own rng space (seed+1) so a fault script
// seeded with seed is independent of write placement. The returned wait
// blocks until the writer is done and yields its error; nothing else
// may use w before then.
func (w *writer) steady(seed int64, objs []string, n int) (wait func() error) {
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < n && err == nil; i++ {
			err = w.put(objs[rng.Intn(len(objs))])
			time.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
		}
	}()
	return func() error { <-done; return err }
}

// ecosystem is the three-app fabric of Run: the publisher with a
// document and a SQL subscriber, all on lossy broker links, workers
// running.
type ecosystem struct {
	*turbulent
	*writer
	subs   []*core.App
	probes []*subProbe
	objs   []string
}

func (t *turbulent) ecosystem(objects int) (*ecosystem, error) {
	w, err := t.publisher("chaos-pub")
	if err != nil {
		return nil, err
	}
	e := &ecosystem{turbulent: t, writer: w}
	for _, s := range []struct {
		name string
		m    orm.Mapper
	}{{"chaos-doc", rethink()}, {"chaos-sql", postgres()}} {
		sub, err := t.app(s.name, s.m, nil)
		if err != nil {
			return nil, err
		}
		p := &subProbe{name: s.name}
		if err := subscribe(sub, w.pub, p.watch); err != nil {
			return nil, err
		}
		e.subs, e.probes = append(e.subs, sub), append(e.probes, p)
	}
	t.lossy(e.apps()...)
	for i := 0; i < objects; i++ {
		e.objs = append(e.objs, fmt.Sprintf("u%d", i))
	}
	w.pub.StartWorkers(1)
	for _, s := range e.subs {
		s.StartWorkers(0)
	}
	return e, nil
}

func (e *ecosystem) apps() []*core.App { return append([]*core.App{e.pub}, e.subs...) }

func (e *ecosystem) stop() {
	for _, s := range e.subs {
		s.StopWorkers()
	}
	e.pub.StopWorkers()
}

// finish runs a healed script to its verdict: one settle write per
// object — full-state messages under the final generation, so
// convergence never needs a Bootstrap even when a generation flush
// dropped earlier updates — then core.Settle, then what the run
// observed.
func (e *ecosystem) finish(res *Result) error {
	healed := time.Now()
	for _, id := range e.objs {
		if err := e.put(id); err != nil {
			return err
		}
	}
	res.judge(healed, e.pub, e.subs...)
	for _, p := range e.probes {
		res.RegressionDetail = append(res.RegressionDetail, p.regressions()...)
	}
	res.Regressions = len(res.RegressionDetail)
	res.GenBumps = e.genBumps
	res.Net = e.net.Stats()
	ps := e.pub.Stats()
	res.Deferred = ps.Deferred
	res.Republished = ps.Republished
	for _, s := range e.subs {
		res.Redelivered += s.Stats().Redelivered
	}
	e.quiesce(time.Now().Add(settleTimeout))
	res.LogCheck = e.logs.verdict(e.f.Broker.LogSegments())
	return res.logErr(res.Converged)
}
