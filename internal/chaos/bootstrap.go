package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"synapse/internal/core"
	"synapse/internal/faultinject"
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
}

// bootstrapChunkSize makes a default run walk ~19 chunks — plenty of
// chunk reads and cursor writes for the script to land faults in.
const bootstrapChunkSize = 16

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
	Attempts int           // Bootstrap calls until one succeeded
	Resumes  int64         // attempts that resumed from the journaled cursor
	Chunks   int64         // chunks sealed across all attempts
	JoinTime time.Duration // first Bootstrap call -> success

	Verdict          // RecoveryTime runs from the join's success
	Regressions      int
	RegressionDetail []string
	MaxPublishStall  time.Duration // worst chunk-read lock hold on the publisher
}

// RunBootstrap executes one seeded bootstrap-race script: the invariants
// are core.Converged (zero lost objects, zero lost live writes) and zero
// value regressions (no chunk row applied over newer live state), no
// matter where the script crashed or partitioned the join.
func RunBootstrap(cfg BootstrapConfig) (BootstrapResult, error) {
	cfg = cfg.withDefaults()
	res := BootstrapResult{Seed: cfg.Seed, Objects: cfg.Objects, Writes: cfg.Writes, Tracker: core.TrackerHash}
	t := newTurbulent(cfg.Seed, core.TrackerHash)
	net, brk := t.net, t.f.Broker
	w, err := t.publisher("boot-pub")
	if err != nil {
		return res, err
	}
	pub := w.pub

	// Seed the publisher BEFORE the subscriber exists: the pre-join
	// population only ever reaches the subscriber through the chunked
	// bootstrap, never the live stream.
	objs := make([]string, cfg.Objects)
	for i := range objs {
		objs[i] = fmt.Sprintf("u%03d", i)
		if err := w.put(objs[i]); err != nil {
			return res, err
		}
	}

	sub, err := t.app("boot-sub", rethink(), func(c *core.Config) {
		c.BootstrapChunkSize = bootstrapChunkSize
	})
	if err != nil {
		return res, err
	}
	probe := &subProbe{name: sub.Name()}
	if err := subscribe(sub, pub, probe.watch); err != nil {
		return res, err
	}
	t.lossy(pub, sub)
	pub.StartWorkers(1)
	defer pub.StopWorkers()

	// Live writer racing the join.
	written := w.steady(cfg.Seed, objs, cfg.Writes)

	// Seeded network script racing the join: partitions and broker
	// bounces. These cut a chunk's drain short or fail a whole attempt,
	// and defer publishes to the subscriber's journal, but must never
	// break the join — each attempt resumes from the journaled cursor.
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		srng := rand.New(rand.NewSource(cfg.Seed))
		for step := 0; step < cfg.Steps; step++ {
			switch srng.Intn(2) {
			case 0: // subscriber cut off from the broker mid-join
				net.Partition(sub.Name(), core.EndpointBroker)
				res.Partitions++
				time.Sleep(hold(srng))
				net.Heal(sub.Name(), core.EndpointBroker)
			case 1: // broker crash + restart (log and cursor states survive)
				brk.Crash()
				res.BrokerBounces++
				time.Sleep(hold(srng))
				brk.Restart()
			}
			time.Sleep(hold(srng))
		}
		net.Heal(sub.Name(), core.EndpointBroker)
		if brk.Down() {
			brk.Restart()
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
			s := []struct {
				site  string
				fails *int
			}{
				{core.FaultBootstrapCursor, &res.CursorFails},   // between a chunk's drain and its cursor write
				{core.FaultBootstrapChunkLow, &res.ChunkFails},  // before a chunk's read
				{core.FaultBootstrapChunkHigh, &res.ChunkFails}, // after a chunk's locked read, before its apply
			}[arng.Intn(3)]
			sub.Faults().ArmN(s.site, arng.Intn(3), 1, faultinject.Fail(errors.New("chaos: injected crash at "+s.site)))
			*s.fails++
		}
		res.Attempts++
		err := sub.Bootstrap(pub.Name())
		if err == nil {
			break
		}
		if res.Attempts >= maxAttempts {
			<-schedDone
			_ = written() // the join's failure is the one to report
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
	if err := written(); err != nil {
		return res, err
	}

	// Post-join the subscriber runs like any live replica: workers drain
	// whatever live traffic is still queued.
	sub.StartWorkers(0)
	defer sub.StopWorkers()

	res.judge(joined, pub, sub)

	res.RegressionDetail = probe.regressions()
	res.Regressions = len(res.RegressionDetail)
	st := sub.Stats()
	res.Resumes = st.BootstrapResumes
	res.Chunks = st.BootstrapChunks
	res.MaxPublishStall = pub.Stats().MaxPublishStall
	return res, nil
}
