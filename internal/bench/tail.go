package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/core"
	"synapse/internal/hdr"
	"synapse/internal/model"
	"synapse/internal/storage"
	"synapse/internal/workload"
)

// ---------------------------------------------------------------------
// Tail-latency rate sweep: open-loop arrivals, publish→deliver
// latency measured from the INTENDED send time (no coordinated
// omission), p50/p99/p999 per rate point, knee detection.
// ---------------------------------------------------------------------

// TailConfig parameterizes the open-loop tail sweep.
type TailConfig struct {
	// Seed drives the open-loop generator; same seed + same config ⇒
	// identical op stream (checkable via the per-point fingerprint).
	Seed int64
	// Rates are the base arrival rates (ops/sec) swept.
	Rates []float64
	// Duration is each point's stream horizon; Warmup drops samples
	// whose intended send time falls before it.
	Duration time.Duration
	Warmup   time.Duration
	// Shape is the arrival-rate profile (ShapeBurst by default: hot-key
	// bursts are exactly what exposes vstore lock contention).
	Shape workload.RateShape

	Users int
	// ActiveSessions / SessionMean enable session arrival/churn in the
	// generator: ~ActiveSessions users browse concurrently, each for a
	// seeded exponential lifetime with mean SessionMean, with arrivals
	// drawn from the whole Users population — large-population key
	// shapes without a proportional live set. 0 keeps the legacy
	// uniform draw (the committed-baseline workload).
	ActiveSessions int
	SessionMean    time.Duration
	Shards         int
	PubWorkers     int
	SubWorkers     int
	// PipelineDepth is the subscriber's per-worker in-flight pipeline
	// bound (0 = the core default; 1 = the window-of-one ablation).
	PipelineDepth int
	// Callback is the subscriber's per-message application work.
	Callback time.Duration
	// VStoreRTT is the injected version-store round trip; it is what
	// makes hot-key lock-hold time observable.
	VStoreRTT time.Duration
	// HotPosts / ZipfS shape comment-target popularity (see workload).
	HotPosts int
	ZipfS    float64
	// Burst knobs (ShapeBurst): every BurstEvery the rate becomes
	// BurstFactor × base for BurstLen, with comments biased to the hot
	// set with probability HotFraction.
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64
	HotFraction float64
	// KneeFactor: the knee is the lowest rate whose p99 exceeds
	// KneeFactor × the lowest rate's p99 (default 3).
	KneeFactor float64
	// DrainTimeout bounds the wait for the subscriber to finish the
	// backlog after the stream ends.
	DrainTimeout time.Duration
}

// DefaultTail is the committed-baseline configuration: a social mix at
// 25/75 post/comment, zipf-skewed targets with a pinned 16-post hot
// set, 4x hot-key bursts 200ms out of every second, 16 subscriber
// workers with 2ms of application work (≈8k msg/s nominal capacity),
// and a 500µs version-store round trip.
func DefaultTail() TailConfig {
	return TailConfig{
		Seed:         1,
		Rates:        []float64{250, 500, 1000, 1500, 2000, 2400, 3200, 4000, 4800, 5600},
		Duration:     2500 * time.Millisecond,
		Warmup:       500 * time.Millisecond,
		Shape:        workload.ShapeBurst,
		Users:        256,
		Shards:       8,
		PubWorkers:   64,
		SubWorkers:   16,
		Callback:     2 * time.Millisecond,
		VStoreRTT:    500 * time.Microsecond,
		HotPosts:     16,
		ZipfS:        1.2,
		BurstEvery:   time.Second,
		BurstLen:     200 * time.Millisecond,
		BurstFactor:  4,
		HotFraction:  0.8,
		KneeFactor:   3,
		DrainTimeout: 30 * time.Second,
	}
}

// TailStage is one pipeline stage's summary at a rate point.
type TailStage struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P95Ms  float64 `json:"p95_ms"`
}

// TailPoint is one measured rate point.
type TailPoint struct {
	Rate  float64 `json:"rate_ops_per_sec"`
	Shape string  `json:"shape"`
	// Fingerprint hashes the generated op stream (kinds, ids, intended
	// send times). It is a pure function of seed+config: two runs with
	// the same seed produce the same fingerprint, so workload identity
	// across runs is checkable even though measured latencies are not
	// bit-stable.
	Fingerprint string `json:"workload_fingerprint"`
	Sent        int    `json:"sent_ops"`
	Delivered   int64  `json:"delivered_msgs"`
	// Samples counts latencies recorded after warmup.
	Samples      uint64  `json:"latency_samples"`
	AchievedRate float64 `json:"achieved_rate_msgs_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P90Ms        float64 `json:"p90_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p999_ms"`
	MaxMs        float64 `json:"max_ms"`
	MeanMs       float64 `json:"mean_ms"`
	// MaxSendLagMs is the worst lag between an op's intended and actual
	// send time — how far the open-loop publishers fell behind schedule
	// (that lag is charged to latency, never silently dropped).
	MaxSendLagMs    float64 `json:"max_send_lag_ms"`
	DepWaitsBlocked int64   `json:"dep_waits_blocked"`
	QueueMaxDepth   int     `json:"queue_max_depth"`
	// PipelineDepth echoes the subscriber's in-flight bound for the
	// point; PipelineFillMean/Max and FlushBatchMean/Max summarize the
	// occupancy and group-commit histograms — where the saved round
	// trips went.
	PipelineDepth    int     `json:"pipeline_depth"`
	PipelineFillMean float64 `json:"pipeline_fill_mean"`
	PipelineFillMax  int64   `json:"pipeline_fill_max"`
	Flushes          int64   `json:"flushes"`
	FlushBatchMean   float64 `json:"flush_batch_mean"`
	FlushBatchMax    int64   `json:"flush_batch_max"`
	// Stages breaks the subscriber pipeline down per stage (decode,
	// barrier, dep-wait, apply, flush, ack) from the App.Stats timers.
	// Under the overlapped pipeline the per-message stage times are
	// wall-clock per stage, not additive.
	Stages map[string]TailStage `json:"stages"`
}

// TailResult is the whole sweep plus the detected knee and the
// delivered-capacity summary.
type TailResult struct {
	Seed   int64       `json:"seed"`
	Points []TailPoint `json:"points"`
	// KneeRate is the lowest swept rate whose p99 exceeded KneeFactor ×
	// the lowest rate's p99 (0 when no rate did).
	KneeRate   float64 `json:"knee_rate_ops_per_sec"`
	KneeFactor float64 `json:"knee_factor"`
	// DeliveredCapacity is the highest sustained delivery rate any
	// swept point achieved — the fabric's measured msg/s ceiling.
	DeliveredCapacity float64 `json:"delivered_capacity_msgs_per_sec"`
	// SerialCapacity re-measures the top swept rate with PipelineDepth
	// 1 (one message at a time per worker); PipelineSpeedup is
	// DeliveredCapacity over it. The bench gate holds the speedup
	// floor, so the window's win over the one-at-a-time ceiling is
	// re-proven, not assumed, on every gated run.
	SerialCapacity  float64    `json:"serial_capacity_msgs_per_sec"`
	PipelineSpeedup float64    `json:"pipeline_speedup"`
	SerialPoint     *TailPoint `json:"serial_ablation_point,omitempty"`
}

// RunTail sweeps the arrival rates, each on a fresh fabric, then runs
// the depth-1 ablation at the top rate for the capacity ratio.
func RunTail(cfg TailConfig) TailResult {
	res := TailResult{Seed: cfg.Seed, KneeFactor: cfg.KneeFactor}
	for _, rate := range cfg.Rates {
		p := runTailPoint(cfg, rate)
		if p.AchievedRate > res.DeliveredCapacity {
			res.DeliveredCapacity = p.AchievedRate
		}
		res.Points = append(res.Points, p)
	}
	if len(res.Points) > 0 {
		base := res.Points[0].P99Ms
		for _, p := range res.Points {
			if base > 0 && p.P99Ms > cfg.KneeFactor*base {
				res.KneeRate = p.Rate
				break
			}
		}
	}
	if n := len(cfg.Rates); n > 0 && cfg.PipelineDepth != 1 {
		serial := cfg
		serial.PipelineDepth = 1
		sp := runTailPoint(serial, cfg.Rates[n-1])
		res.SerialPoint = &sp
		res.SerialCapacity = sp.AchievedRate
		if res.SerialCapacity > 0 {
			res.PipelineSpeedup = res.DeliveredCapacity / res.SerialCapacity
		}
	}
	return res
}

func runTailPoint(cfg TailConfig, rate float64) TailPoint {
	f := core.NewFabric()
	pub := mustApp(f, "pub", NewMapper(MongoDB, storage.Profile{}), core.Config{
		Mode:         core.Causal,
		VStoreShards: cfg.Shards,
		VStoreRTT:    cfg.VStoreRTT,
	})
	sub := mustApp(f, "sub", NewMapper(MongoDB, storage.Profile{}), core.Config{
		Mode:          core.Causal,
		VStoreShards:  cfg.Shards,
		VStoreRTT:     cfg.VStoreRTT,
		PipelineDepth: cfg.PipelineDepth,
	})

	post, comment := tailModels()
	must(pub.Publish(post, core.PubSpec{Attrs: []string{"author", "body", "t"}}))
	must(pub.Publish(comment, core.PubSpec{Attrs: []string{"post", "author", "body", "t"}}))

	rec := hdr.New()
	var start time.Time // set right before the publishers launch
	warmupNs := cfg.Warmup.Nanoseconds()
	subPost, subComment := tailModels()
	measure := func(ctx *model.CallbackCtx) error {
		if cfg.Callback > 0 {
			time.Sleep(cfg.Callback)
		}
		sendAt, ok := ctx.Record.Get("t").(float64)
		if !ok {
			return fmt.Errorf("tail: record %s/%s missing send stamp", ctx.Record.Model, ctx.Record.ID)
		}
		if int64(sendAt) >= warmupNs {
			rec.Record(time.Since(start).Nanoseconds() - int64(sendAt))
		}
		return nil
	}
	for _, d := range []*model.Descriptor{subPost, subComment} {
		d.Callbacks.On(model.AfterCreate, measure)
		d.Callbacks.On(model.AfterUpdate, measure)
	}
	must(sub.Subscribe(subPost, core.SubSpec{From: "pub", Attrs: []string{"author", "body", "t"}}))
	must(sub.Subscribe(subComment, core.SubSpec{From: "pub", Attrs: []string{"post", "author", "body", "t"}}))
	sub.StartWorkers(cfg.SubWorkers)
	defer sub.StopWorkers()

	gen := workload.NewOpenLoopGen(workload.OpenLoopConfig{
		Seed:           cfg.Seed,
		Users:          cfg.Users,
		Rate:           rate,
		Horizon:        cfg.Duration,
		Shape:          cfg.Shape,
		HotPosts:       cfg.HotPosts,
		ZipfS:          cfg.ZipfS,
		BurstEvery:     cfg.BurstEvery,
		BurstLen:       cfg.BurstLen,
		BurstFactor:    cfg.BurstFactor,
		HotFraction:    cfg.HotFraction,
		ActiveSessions: cfg.ActiveSessions,
		SessionMean:    cfg.SessionMean,
	})

	var sessions sync.Map // userID -> *core.Session
	var maxLag atomic.Int64
	var wg sync.WaitGroup
	startProcessed := sub.Processed.Count()
	start = time.Now()
	for w := 0; w < cfg.PubWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op, ok := gen.Next()
				if !ok {
					return
				}
				// Open loop: wait for the op's scheduled time, then send.
				// If the pipeline is saturated the send happens late; the
				// lag is charged to the op's latency because the
				// subscriber measures from the intended time.
				if d := time.Until(start.Add(op.SendAt)); d > 0 {
					time.Sleep(d)
				}
				lag := time.Since(start.Add(op.SendAt)).Nanoseconds()
				for {
					cur := maxLag.Load()
					if lag <= cur || maxLag.CompareAndSwap(cur, lag) {
						break
					}
				}
				sv, _ := sessions.LoadOrStore(op.UserID, pub.NewSession("User", op.UserID))
				ctl := pub.NewController(sv.(*core.Session))
				r := model.NewRecord(kindModel(op.Kind), op.ID)
				if op.Kind == workload.OpComment {
					ctl.AddReadDeps("Post", op.PostID)
					r.Set("post", op.PostID)
				}
				r.Set("author", op.UserID)
				r.Set("body", "b")
				r.Set("t", float64(op.SendAt.Nanoseconds()))
				if _, err := ctl.Create(r); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	sent := gen.Emitted()

	// Drain: the tail of the backlog still counts — dropping it would
	// be coordinated omission through the back door.
	deadline := time.Now().Add(cfg.DrainTimeout)
	for sub.Processed.Count()-startProcessed < int64(sent) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(start)
	delivered := sub.Processed.Count() - startProcessed
	st := sub.Stats()

	depth := cfg.PipelineDepth
	if depth == 0 {
		depth = 4 // echo the core default (see core.Config.withDefaults)
	}
	p := TailPoint{
		Rate:             rate,
		Shape:            cfg.Shape.String(),
		Fingerprint:      fmt.Sprintf("%016x", gen.Fingerprint()),
		Sent:             sent,
		Delivered:        delivered,
		Samples:          rec.Count(),
		AchievedRate:     float64(delivered) / elapsed.Seconds(),
		P50Ms:            nsToMs(rec.Quantile(0.50)),
		P90Ms:            nsToMs(rec.Quantile(0.90)),
		P99Ms:            nsToMs(rec.Quantile(0.99)),
		P999Ms:           nsToMs(rec.Quantile(0.999)),
		MaxMs:            nsToMs(rec.Max()),
		MeanMs:           rec.Mean() / 1e6,
		MaxSendLagMs:     float64(maxLag.Load()) / 1e6,
		DepWaitsBlocked:  st.DepWaitsBlocked,
		QueueMaxDepth:    st.QueueMaxDepth,
		PipelineDepth:    depth,
		PipelineFillMean: st.PipelineFillMean,
		PipelineFillMax:  st.PipelineFillMax,
		Flushes:          st.Flushes,
		FlushBatchMean:   st.FlushBatchMean,
		FlushBatchMax:    st.FlushBatchMax,
		Stages:           map[string]TailStage{},
	}
	for name, ss := range st.Stages {
		p.Stages[name] = TailStage{
			Count:  ss.Count,
			MeanMs: float64(ss.Mean.Nanoseconds()) / 1e6,
			P95Ms:  float64(ss.P95.Nanoseconds()) / 1e6,
		}
	}
	return p
}

// tailModels is the §6.3 social pair plus the intended-send-time stamp
// "t" (ns offset from stream start): posts and comments both carry it
// so the subscriber can charge latency from the moment the op was
// SCHEDULED, not the moment a free publisher worker got to it.
func tailModels() (post, comment *model.Descriptor) {
	post = model.NewDescriptor("Post",
		model.Field{Name: "author", Type: model.Ref, RefModel: "User"},
		model.Field{Name: "body", Type: model.String},
		model.Field{Name: "t", Type: model.Float},
	)
	comment = model.NewDescriptor("Comment",
		model.Field{Name: "post", Type: model.Ref, RefModel: "Post"},
		model.Field{Name: "author", Type: model.Ref, RefModel: "User"},
		model.Field{Name: "body", Type: model.String},
		model.Field{Name: "t", Type: model.Float},
	)
	return post, comment
}

func kindModel(k workload.SocialOpKind) string {
	if k == workload.OpComment {
		return "Comment"
	}
	return "Post"
}

func nsToMs(v int64) float64 { return float64(v) / 1e6 }

// FormatTail renders the sweep as a table plus the knee verdict.
func FormatTail(r TailResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Tail: open-loop publish→deliver latency vs arrival rate (measured from intended send time)")
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s %9s %9s %10s %12s\n",
		"rate", "sent", "rate'", "p50ms", "p90ms", "p99ms", "p999ms", "maxms", "depblocks", "fingerprint")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.0f %9d %9.0f %9.2f %9.2f %9.2f %9.2f %9.1f %10d %12.12s\n",
			p.Rate, p.Sent, p.AchievedRate, p.P50Ms, p.P90Ms, p.P99Ms, p.P999Ms, p.MaxMs,
			p.DepWaitsBlocked, p.Fingerprint)
	}
	if r.KneeRate > 0 {
		fmt.Fprintf(&b, "knee: p99 departs (>%gx lowest-rate p99) at %.0f ops/s\n", r.KneeFactor, r.KneeRate)
	} else {
		fmt.Fprintf(&b, "knee: p99 never exceeded %gx the lowest-rate p99 within the sweep\n", r.KneeFactor)
	}
	fmt.Fprintf(&b, "delivered capacity: %.0f msg/s", r.DeliveredCapacity)
	if r.SerialCapacity > 0 {
		fmt.Fprintf(&b, " (serial ablation %.0f msg/s, pipeline speedup %.2fx)", r.SerialCapacity, r.PipelineSpeedup)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// MarshalTail renders BENCH_tail.json.
func MarshalTail(r TailResult) ([]byte, error) {
	doc := struct {
		Experiment  string `json:"experiment"`
		Description string `json:"description"`
		TailResult
	}{
		Experiment:  "tail",
		Description: "open-loop rate sweep over the zipf/burst social mix: publish→deliver p50/p99/p999 measured from INTENDED send times (no coordinated omission), per-stage breakdown, knee where p99 departs, delivered_capacity = best sustained delivery rate with pipeline occupancy / group-commit batch histograms, plus a PipelineDepth=1 serial ablation at the top rate; workload_fingerprint is deterministic per seed+config — latencies are wall-clock measurements",
		TailResult:  r,
	}
	return json.MarshalIndent(doc, "", "  ")
}
