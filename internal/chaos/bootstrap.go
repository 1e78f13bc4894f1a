package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"synapse/internal/core"
	"synapse/internal/faultinject"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm/documentorm"
	"synapse/internal/storage/docdb"
)

// BootstrapConfig parameterizes one seeded bootstrap-race run: a
// subscriber joins a pre-populated publisher through the chunked live
// bootstrap while a writer keeps publishing and a seeded fault script
// crashes the bootstrap at its named fault sites, partitions the
// subscriber from the broker, and bounces the broker mid-join.
type BootstrapConfig struct {
	// Seed drives the fault script, the writer, and every network
	// decision.
	Seed int64
	// Objects is the publisher's pre-existing population (default 300).
	Objects int
	// Writes is how many live publisher writes race the bootstrap
	// (default 60).
	Writes int
	// Steps is how many fault-script steps the scheduler runs
	// (default 4).
	Steps int
	// StepHold is the nominal held duration of each injected fault
	// (default 10ms; the script jitters around it).
	StepHold time.Duration
	// ChunkSize is the subscriber's BootstrapChunkSize (default 16, so
	// a default run walks ~19 chunks — plenty of cursor writes and
	// watermark windows for the script to land faults in).
	ChunkSize int
	// SettleTimeout bounds how long convergence may take after the final
	// heal (default 10s).
	SettleTimeout time.Duration
	// Tracker selects the dependency-tracking policy (default hash).
	Tracker string
}

func (c BootstrapConfig) withDefaults() BootstrapConfig {
	if c.Objects <= 0 {
		c.Objects = 300
	}
	if c.Writes <= 0 {
		c.Writes = 60
	}
	if c.Steps <= 0 {
		c.Steps = 4
	}
	if c.StepHold <= 0 {
		c.StepHold = 10 * time.Millisecond
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 16
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 10 * time.Second
	}
	return c
}

// BootstrapResult is what one bootstrap-race run observed.
type BootstrapResult struct {
	Seed    int64
	Objects int
	Writes  int
	Tracker string

	// Fault script composition.
	CursorFails   int // one-shot failures armed at bootstrap/cursor-journal
	ChunkFails    int // one-shot failures armed at chunk-low/chunk-high
	Partitions    int // subscriber<->broker partitions held mid-join
	BrokerBounces int // broker crash/restart cycles mid-join

	// Join behaviour.
	Attempts     int           // Bootstrap calls until one succeeded
	Resumes      int64         // attempts that resumed from the journaled cursor
	Chunks       int64         // chunks sealed across all attempts
	ChunkRetries int64         // high-watermark waits that timed out
	Deduped      int64         // chunk rows skipped by the watermark window
	JoinTime     time.Duration // first Bootstrap call -> success

	// Convergence.
	Converged        bool
	RecoveryTime     time.Duration // join success -> exact convergence
	Mismatch         string
	Regressions      int
	RegressionDetail []string
	MaxPublishStall  time.Duration // worst chunk-read lock hold on the publisher
}

// RunBootstrap executes one seeded bootstrap-race script: the invariants
// are exact convergence of the subscriber's database with the
// publisher's (zero lost objects, zero lost live writes) and zero value
// regressions (no chunk row applied over newer live state), no matter
// where the script crashed or partitioned the join.
func RunBootstrap(cfg BootstrapConfig) (BootstrapResult, error) {
	cfg = cfg.withDefaults()
	tracker := cfg.Tracker
	if tracker == "" {
		tracker = core.TrackerHash
	}
	res := BootstrapResult{Seed: cfg.Seed, Objects: cfg.Objects, Writes: cfg.Writes, Tracker: tracker}

	net := netsim.New(cfg.Seed)
	net.SetDefaultProfile(netsim.Profile{
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 80 * time.Microsecond,
	})
	f := core.NewFabric()
	f.Net = net

	rpc := core.Config{
		Mode:                 core.Causal,
		DepTracker:           tracker,
		DepTimeout:           50 * time.Millisecond,
		RPCAttempts:          2,
		RPCDeadline:          4 * time.Millisecond,
		RPCBackoffBase:       200 * time.Microsecond,
		RPCBackoffMax:        time.Millisecond,
		BreakerThreshold:     3,
		BreakerCooldown:      5 * time.Millisecond,
		JournalRetryInterval: 5 * time.Millisecond,
		Workers:              2,
	}

	pub, err := core.NewApp(f, "boot-pub", documentorm.New(docdb.New(docdb.MongoDB)), rpc)
	if err != nil {
		return res, err
	}
	if err := pub.Publish(chaosDesc(), core.PubSpec{Attrs: []string{"name", "likes"}}); err != nil {
		return res, err
	}

	// Seed the publisher BEFORE the subscriber exists: the pre-join
	// population only ever reaches the subscriber through the chunked
	// bootstrap, never the live stream.
	objs := make([]string, cfg.Objects)
	var nextValue int64
	ctl := pub.NewController(nil)
	for i := range objs {
		objs[i] = fmt.Sprintf("u%03d", i)
		nextValue++
		rec := model.NewRecord(chaosModel, objs[i])
		rec.Set("name", fmt.Sprintf("v%d", nextValue))
		rec.Set("likes", nextValue)
		if _, err := ctl.Create(rec); err != nil {
			return res, err
		}
	}

	subCfg := rpc
	subCfg.BootstrapChunkSize = cfg.ChunkSize
	subCfg.BootstrapChunkWait = 200 * time.Millisecond
	sub, err := core.NewApp(f, "boot-sub", documentorm.New(docdb.New(docdb.RethinkDB)), subCfg)
	if err != nil {
		return res, err
	}
	probe := &subProbe{name: sub.Name()}
	d := chaosDesc()
	watch := func(ctx *model.CallbackCtx) error {
		probe.observe(ctx.Record.ID, ctx.Record.Int("likes"))
		return nil
	}
	d.Callbacks.On(model.AfterCreate, watch)
	d.Callbacks.On(model.AfterUpdate, watch)
	if err := sub.Subscribe(d, core.SubSpec{From: pub.Name(), Attrs: []string{"name", "likes"}}); err != nil {
		return res, err
	}

	// Baseline turbulence on the broker links, like the main chaos
	// harness: a few percent of calls drop and duplicate even while
	// "healthy".
	brokerLink := netsim.Profile{
		LatencyMin: 10 * time.Microsecond,
		LatencyMax: 150 * time.Microsecond,
		DropRate:   0.03,
		DupRate:    0.02,
	}
	net.SetProfile(pub.Name(), core.EndpointBroker, brokerLink)
	net.SetProfile(sub.Name(), core.EndpointBroker, brokerLink)

	// The publisher's worker loop exits immediately (it subscribes to
	// nothing) but its periodic journal drain heals sends deferred while
	// the broker was down or partitioned.
	pub.StartWorkers(1)
	defer pub.StopWorkers()

	// Live writer racing the join (its own rng space, Seed+1, so the
	// fault script is independent of write placement).
	var writerErr error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(cfg.Seed + 1))
		v := nextValue
		for w := 0; w < cfg.Writes; w++ {
			v++
			rec := model.NewRecord(chaosModel, objs[wrng.Intn(len(objs))])
			rec.Set("name", fmt.Sprintf("v%d", v))
			rec.Set("likes", v)
			if _, err := pub.NewController(nil).Update(rec); err != nil {
				writerErr = err
				return
			}
			time.Sleep(time.Duration(1+wrng.Intn(3)) * time.Millisecond)
		}
	}()

	// Seeded network script racing the join: partitions and broker
	// bounces. These degrade the watermark round-trip (waits time out,
	// publishes defer to the subscriber's journal) but must never break
	// the join — chunks fall back to guarded-only applies.
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		srng := rand.New(rand.NewSource(cfg.Seed))
		hold := func() time.Duration {
			return cfg.StepHold/2 + time.Duration(srng.Int63n(int64(cfg.StepHold)))
		}
		for step := 0; step < cfg.Steps; step++ {
			switch srng.Intn(2) {
			case 0: // subscriber cut off from the broker mid-join
				net.Partition(sub.Name(), core.EndpointBroker)
				res.Partitions++
				time.Sleep(hold())
				net.Heal(sub.Name(), core.EndpointBroker)
			case 1: // broker crash + restart (log and cursor states survive)
				f.Broker.Crash()
				res.BrokerBounces++
				time.Sleep(hold())
				f.Broker.Restart()
			}
			time.Sleep(hold())
		}
		net.Heal(sub.Name(), core.EndpointBroker)
		if f.Broker.Down() {
			f.Broker.Restart()
		}
	}()

	// The join itself: retry until it sticks, resuming each time from
	// the journaled chunk cursor. The crash plan is seeded separately
	// from the network script: the first crashPlan attempts each arm a
	// one-shot failure at one of the bootstrap's named fault sites, so
	// every seed actually dies mid-walk (the sites only fire while a
	// Bootstrap call is executing — a wall-clock script would usually
	// miss the walk entirely, since all chunks seal within milliseconds).
	arng := rand.New(rand.NewSource(cfg.Seed + 7))
	crashPlan := 1 + arng.Intn(3)
	joinStart := time.Now()
	maxAttempts := crashPlan + 8*cfg.Steps + 16 // a broker outage fails an attempt at once, every 2ms
	for {
		if res.Attempts < crashPlan {
			switch arng.Intn(3) {
			case 0: // between a chunk's high watermark and its cursor write
				sub.Faults().ArmN(core.FaultBootstrapCursor, arng.Intn(3), 1,
					faultinject.Fail(errors.New("chaos: injected cursor-journal crash")))
				res.CursorFails++
			case 1: // before a chunk's low watermark
				sub.Faults().ArmN(core.FaultBootstrapChunkLow, arng.Intn(3), 1,
					faultinject.Fail(errors.New("chaos: injected chunk crash")))
				res.ChunkFails++
			case 2: // after a chunk's locked read, before its high watermark
				sub.Faults().ArmN(core.FaultBootstrapChunkHigh, arng.Intn(3), 1,
					faultinject.Fail(errors.New("chaos: injected chunk crash")))
				res.ChunkFails++
			}
		}
		res.Attempts++
		err := sub.Bootstrap(pub.Name())
		if err == nil {
			break
		}
		if res.Attempts >= maxAttempts {
			<-schedDone
			<-writerDone
			return res, fmt.Errorf("bootstrap never converged after %d attempts: %w", res.Attempts, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Drop any planned crash that never fired (its skip outlived the
	// resumed walk's remaining chunks).
	sub.Faults().Reset()
	res.JoinTime = time.Since(joinStart)
	joined := time.Now()

	<-schedDone
	<-writerDone
	if writerErr != nil {
		return res, writerErr
	}

	// Post-join the subscriber runs like any live replica: workers drain
	// whatever live traffic is still queued.
	sub.StartWorkers(0)
	defer sub.StopWorkers()

	deadline := time.Now().Add(cfg.SettleTimeout)
	for {
		mismatch := diverged(pub, []*core.App{sub}, objs)
		if mismatch == "" {
			res.Converged = true
			res.RecoveryTime = time.Since(joined)
			break
		}
		if time.Now().After(deadline) {
			res.Mismatch = mismatch
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	res.Regressions = probe.count()
	res.RegressionDetail = append(res.RegressionDetail, probe.detail...)
	st := sub.Stats()
	res.Resumes = st.BootstrapResumes
	res.Chunks = st.BootstrapChunks
	res.ChunkRetries = st.ChunkRetries
	res.Deduped = st.ChunkRowsDeduped
	res.MaxPublishStall = pub.Stats().MaxPublishStall
	return res, nil
}
