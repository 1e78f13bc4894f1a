package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"synapse/internal/core"
	"synapse/internal/faultinject"
	"synapse/internal/model"
)

// ---------------------------------------------------------------------
// Bootstrap: chunked live sync of a new subscriber against publisher
// populations spanning three orders of magnitude, under sustained write
// load — join time, publisher stall bound (the longest per-chunk lock
// hold, which replaces the old whole-table pause), live-dedup activity,
// and the crash-resume cost of the journaled chunk cursor vs a full
// re-walk.
// ---------------------------------------------------------------------

// BootstrapConfig parameterizes the join sweep and the resume section.
type BootstrapConfig struct {
	// Sizes is the publisher populations to sweep.
	Sizes []int
	// ResumeSize is the population for the crash-resume section: a full
	// join is timed, then a second subscriber is crashed at the
	// mid-point cursor write and resumed.
	ResumeSize int
}

// bootstrapConfig sweeps 10k/100k/1M objects (the 1M point is the
// acceptance anchor: a join of a million-object publisher under write
// load with a bounded stall). The gate-compared metrics (exact
// convergence, stall bound, resumed walk < full walk) are
// config-invariant; quick only shrinks the populations.
func bootstrapConfig(quick bool) BootstrapConfig {
	if quick {
		return BootstrapConfig{Sizes: []int{2_000, 20_000}, ResumeSize: 4_000}
	}
	return BootstrapConfig{Sizes: []int{10_000, 100_000, 1_000_000}, ResumeSize: 50_000}
}

const (
	// bootstrapWriteEvery is the cadence of the sustained live writes
	// racing each join.
	bootstrapWriteEvery = 500 * time.Microsecond
	// bootstrapSettle bounds the post-join convergence wait per point.
	bootstrapSettle = time.Minute
)

// BootstrapPoint is one publisher size's measured join.
type BootstrapPoint struct {
	Objects          int     `json:"objects"`
	JoinMs           float64 `json:"join_ms"`
	ObjsPerSec       float64 `json:"objs_per_sec"`
	WritesDuringJoin int     `json:"writes_during_join"`
	// MaxPublishStallMs is the longest single chunk-read lock hold on
	// the publisher — the whole write pause a joining subscriber ever
	// imposes.
	MaxPublishStallMs float64 `json:"max_publish_stall_ms"`
	Chunks            int64   `json:"chunks"`
	ChunkRowsDeduped  int64   `json:"chunk_rows_deduped"`
	ChunkRetries      int64   `json:"chunk_retries"`
	Converged         bool    `json:"converged"`
}

// BootstrapResume is the crash-resume section: the same population
// joined once fully, then once crashed at the mid-point cursor write and
// resumed from the journal.
type BootstrapResume struct {
	Objects       int     `json:"objects"`
	ChunksTotal   int64   `json:"chunks_total"`
	ChunksResumed int64   `json:"chunks_resumed"`
	FullMs        float64 `json:"full_ms"`
	ResumeMs      float64 `json:"resume_ms"`
	Converged     bool    `json:"converged"`
}

// BootstrapDoc is BENCH_bootstrap.json.
type BootstrapDoc struct {
	Experiment  string           `json:"experiment"`
	Description string           `json:"description"`
	Points      []BootstrapPoint `json:"points"`
	// Converged holds when every join and the crash-resume converged;
	// MaxPublishStallMs is the worst stall any point saw.
	Converged         bool            `json:"converged"`
	MaxPublishStallMs float64         `json:"max_publish_stall_ms"`
	Resume            BootstrapResume `json:"resume"`
}

// RunBootstrap runs the join sweep and the resume section.
func RunBootstrap(cfg BootstrapConfig) (BootstrapDoc, error) {
	r := BootstrapDoc{
		Experiment:  "bootstrap",
		Description: "watermark-based chunked live bootstrap: join time vs publisher size under sustained write load (zero publish pause, stall bounded by one chunk's lock hold), plus crash-resume from the journaled chunk cursor; pass = every point exactly converged, worst stall bounded, resumed walk strictly shorter than the full walk",
		Converged:   true,
	}
	for _, n := range cfg.Sizes {
		p, err := runBootstrapPoint(n)
		if err != nil {
			return r, fmt.Errorf("%d objects: %w", n, err)
		}
		r.Points = append(r.Points, p)
		r.Converged = r.Converged && p.Converged
		r.MaxPublishStallMs = max(r.MaxPublishStallMs, p.MaxPublishStallMs)
	}
	var err error
	if r.Resume, err = runBootstrapResume(cfg.ResumeSize); err != nil {
		return r, fmt.Errorf("resume section: %w", err)
	}
	r.Converged = r.Converged && r.Resume.Converged
	return r, nil
}

// bootstrapPair builds a RethinkDB subscriber joining a MongoDB publisher
// that already holds n objects, written through the mapper directly:
// the pre-join population reaches a subscriber only through the chunked
// walk, and seeding does not pay n controller publishes.
func bootstrapPair(n int) (*pairApps, error) {
	app := core.Config{Mode: core.Causal, BootstrapChunkSize: 256}
	p := pair(pairSpec{Pub: app, SubEngine: RethinkDB, Sub: app, Models: itemModel("v", model.Int)})
	for i := 0; i < n; i++ {
		rec := model.NewRecord("Item", bootstrapID(i))
		rec.Set("v", 1)
		if err := p.pub.Mapper().Save(rec); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func bootstrapID(i int) string { return fmt.Sprintf("it-%08d", i) }

func runBootstrapPoint(n int) (BootstrapPoint, error) {
	p := BootstrapPoint{Objects: n}
	apps, err := bootstrapPair(n)
	if err != nil {
		return p, err
	}
	pub, sub := apps.pub, apps.sub

	// Sustained write load for the whole duration of the join: every
	// bootstrapWriteEvery, one random object is republished with a fresh value.
	// Monotonic values make the final expectation per object exact.
	var written []string
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var writerErr error
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(42))
		v := int64(1 << 20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v++
			id := bootstrapID(rng.Intn(n))
			rec := model.NewRecord("Item", id)
			rec.Set("v", v)
			if _, err := pub.NewController(nil).Update(rec); err != nil {
				writerErr = err
				return
			}
			written = append(written, id)
			time.Sleep(bootstrapWriteEvery)
		}
	}()

	start := time.Now()
	err = sub.Bootstrap("pub")
	join := time.Since(start)
	close(stop)
	<-writerDone
	if err != nil {
		return p, err
	}
	if writerErr != nil {
		return p, writerErr
	}

	// Whatever live traffic is still queued drains like any replica's,
	// until the subscriber holds exactly the publisher's final state: the
	// full population plus the last raced write per touched object.
	sub.StartWorkers(2)
	defer sub.StopWorkers()
	p.Converged = settle(time.Now().Add(bootstrapSettle), pub, []*core.App{sub}, "Item", written) == nil &&
		sub.Mapper().Len("Item") == n

	p.JoinMs = float64(join.Microseconds()) / 1000
	p.ObjsPerSec = float64(n) / join.Seconds()
	p.WritesDuringJoin = len(written)
	st := sub.Stats()
	p.Chunks = st.BootstrapChunks
	p.ChunkRowsDeduped = st.ChunkRowsDeduped
	p.ChunkRetries = st.ChunkRetries
	p.MaxPublishStallMs = float64(pub.Stats().MaxPublishStall.Microseconds()) / 1000
	return p, nil
}

func runBootstrapResume(n int) (BootstrapResume, error) {
	r := BootstrapResume{Objects: n}
	apps, err := bootstrapPair(n)
	if err != nil {
		return r, err
	}
	pub, full := apps.pub, apps.sub

	// Reference: an uninterrupted full join.
	start := time.Now()
	if err := full.Bootstrap("pub"); err != nil {
		return r, err
	}
	r.FullMs = float64(time.Since(start).Microseconds()) / 1000
	r.ChunksTotal = full.Stats().BootstrapChunks

	// Crash a second subscriber at the mid-point cursor write, then
	// resume: the journaled cursor must make the second walk strictly
	// shorter than the first.
	crashed := apps.join("sub-crash")
	boom := errors.New("bench: injected mid-bootstrap crash")
	crashed.Faults().ArmN(core.FaultBootstrapCursor, int(r.ChunksTotal/2), 1, faultinject.Fail(boom))
	if err := crashed.Bootstrap("pub"); !errors.Is(err, boom) {
		return r, fmt.Errorf("crash injection did not fire: %v", err)
	}
	sealed := crashed.Stats().BootstrapChunks
	start = time.Now()
	if err := crashed.Bootstrap("pub"); err != nil {
		return r, err
	}
	r.ResumeMs = float64(time.Since(start).Microseconds()) / 1000
	r.ChunksResumed = crashed.Stats().BootstrapChunks - sealed
	r.Converged = pub.Mapper().Len("Item") == n &&
		full.Mapper().Len("Item") == n &&
		crashed.Mapper().Len("Item") == n
	return r, nil
}

// FormatBootstrap renders the sweep and the resume section.
func FormatBootstrap(r BootstrapDoc) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Bootstrap: chunked live join under sustained write load (stall = longest")
	fmt.Fprintln(&b, "per-chunk publisher lock hold; the publisher is never paused for the walk)")
	fmt.Fprintf(&b, "%9s %10s %10s %7s %8s %7s %7s %8s %9s\n",
		"objects", "join_ms", "objs/s", "writes", "stall_ms", "chunks", "dedup", "retries", "converged")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%9d %10.1f %10.0f %7d %8.2f %7d %7d %8d %9v\n",
			p.Objects, p.JoinMs, p.ObjsPerSec, p.WritesDuringJoin,
			p.MaxPublishStallMs, p.Chunks, p.ChunkRowsDeduped, p.ChunkRetries, p.Converged)
	}
	fmt.Fprintf(&b, "resume (%d objects): full walk %d chunks in %.1fms; crashed at the mid-point\n",
		r.Resume.Objects, r.Resume.ChunksTotal, r.Resume.FullMs)
	fmt.Fprintf(&b, "cursor write, resumed walk %d chunks in %.1fms (converged %v)\n",
		r.Resume.ChunksResumed, r.Resume.ResumeMs, r.Resume.Converged)
	return b.String()
}

// gateBootstrap: every join, including the crash-resume, converged
// exactly; the worst stall any live publish saw while a subscriber
// bootstrapped stays under an absolute 250ms ceiling (the zero-pause
// claim — per-chunk lock holds are bounded by the chunk size, identical
// in quick and full runs); and the journaled cursor made the resumed
// join strictly cheaper than the full join it crashed out of.
func gateBootstrap(_, fresh BootstrapDoc, v *Verdict) {
	const stallCap = 250
	if !fresh.Converged {
		v.breachf("a join or the crash-resume failed to converge")
	}
	if ms := fresh.MaxPublishStallMs; ms >= stallCap {
		v.breachf("max publish stall %gms at/above the %dms ceiling", ms, stallCap)
	}
	if r := fresh.Resume; !r.Converged || r.ChunksResumed >= r.ChunksTotal {
		v.breachf("resume replayed %d/%d chunks (cursor journal not saving work)", r.ChunksResumed, r.ChunksTotal)
	}
}
