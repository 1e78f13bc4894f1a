package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/core"
	"synapse/internal/hdr"
	"synapse/internal/model"
	"synapse/internal/workload"
)

// ---------------------------------------------------------------------
// Tail-latency rate sweep: open-loop arrivals, publish→deliver
// latency measured from the INTENDED send time (no coordinated
// omission), p50/p99/p999 per rate point, knee detection.
// ---------------------------------------------------------------------

// TailConfig parameterizes the open-loop tail sweep.
type TailConfig struct {
	// Rates are the base arrival rates (ops/sec) swept.
	Rates []float64
	// Duration is each point's stream horizon; Warmup drops samples
	// whose intended send time falls before it.
	Duration time.Duration
	Warmup   time.Duration
}

// tailConfig is the committed-baseline sweep. Quick keeps the 1000 ops/s
// anchor point so the gate can compare its p99 against the baseline, and
// the saturating top rate so delivered_capacity (and the serial ablation
// the capacity rule ratios against) is still measured; only the sweep
// breadth and horizon shrink — every capacity knob is a constant below.
func tailConfig(quick bool) TailConfig {
	if quick {
		return TailConfig{Rates: []float64{250, 1000, 5600}, Duration: time.Second, Warmup: 250 * time.Millisecond}
	}
	return TailConfig{
		Rates:    []float64{250, 500, 1000, 1500, 2000, 2400, 3200, 4000, 4800, 5600},
		Duration: 2500 * time.Millisecond,
		Warmup:   500 * time.Millisecond,
	}
}

// The workload and capacity of every point: a social mix at 25/75
// post/comment over 256 users, zipf-skewed targets with a pinned 16-post
// hot set, 4x hot-key bursts 200ms out of every second (hot-key bursts
// are exactly what exposes vstore lock contention), 64 open-loop
// publishers, 16 subscriber workers with 2ms of application work (≈8k
// msg/s nominal capacity), and a 500µs version-store round trip — what
// makes hot-key lock-hold time observable.
const (
	tailSeed       = 1 // same seed + same config ⇒ identical op stream
	tailPubWorkers = 64
	tailSubWorkers = 16
	tailCallback   = 2 * time.Millisecond
	tailVStoreRTT  = 500 * time.Microsecond
	// The knee is the lowest rate whose p99 exceeds tailKneeFactor × the
	// lowest rate's p99.
	tailKneeFactor = 3
	// tailDrainTimeout bounds the wait for the subscriber to finish the
	// backlog after the stream ends.
	tailDrainTimeout = 30 * time.Second
	// tailSerialDepth is the window-of-one ablation; 0 is the core default.
	tailSerialDepth = 1
)

func tailWorkload(rate float64, horizon time.Duration) workload.OpenLoopConfig {
	return workload.OpenLoopConfig{
		Seed:        tailSeed,
		Users:       256,
		Rate:        rate,
		Horizon:     horizon,
		Shape:       workload.ShapeBurst,
		HotPosts:    16,
		ZipfS:       1.2,
		BurstEvery:  time.Second,
		BurstLen:    200 * time.Millisecond,
		BurstFactor: 4,
		HotFraction: 0.8,
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

// TailDoc is BENCH_tail.json: the whole sweep plus the detected knee and
// the delivered-capacity summary.
type TailDoc struct {
	Experiment  string      `json:"experiment"`
	Description string      `json:"description"`
	Seed        int64       `json:"seed"`
	Points      []TailPoint `json:"points"`
	// KneeRate is the lowest swept rate whose p99 exceeded KneeFactor ×
	// the lowest rate's p99 (0 when no rate did).
	KneeRate   float64 `json:"knee_rate_ops_per_sec"`
	KneeFactor float64 `json:"knee_factor"`
	// DeliveredCapacity is the highest sustained delivery rate any
	// swept point achieved — the fabric's measured msg/s ceiling.
	DeliveredCapacity float64 `json:"delivered_capacity_msgs_per_sec"`
	// SerialCapacity re-measures the top swept rate with PipelineDepth
	// 1 (one message at a time per worker); PipelineSpeedup is
	// DeliveredCapacity over it. The gate holds the speedup floor, so
	// the window's win over the one-at-a-time ceiling is re-proven, not
	// assumed, on every gated run.
	SerialCapacity  float64    `json:"serial_capacity_msgs_per_sec"`
	PipelineSpeedup float64    `json:"pipeline_speedup"`
	SerialPoint     *TailPoint `json:"serial_ablation_point,omitempty"`
}

// RunTail sweeps the arrival rates, each on a fresh fabric, then runs
// the depth-1 ablation at the top rate for the capacity ratio.
func RunTail(cfg TailConfig) (TailDoc, error) {
	res := TailDoc{
		Experiment:  "tail",
		Description: "open-loop rate sweep over the zipf/burst social mix: publish→deliver p50/p99/p999 measured from INTENDED send times (no coordinated omission), per-stage breakdown, knee where p99 departs, delivered_capacity = best sustained delivery rate with pipeline occupancy / group-commit batch histograms, plus a PipelineDepth=1 serial ablation at the top rate; workload_fingerprint is deterministic per seed+config — latencies are wall-clock measurements",
		Seed:        tailSeed,
		KneeFactor:  tailKneeFactor,
	}
	for _, rate := range cfg.Rates {
		p, err := runTailPoint(cfg, rate, 0)
		if err != nil {
			return res, fmt.Errorf("rate %g: %w", rate, err)
		}
		res.DeliveredCapacity = max(res.DeliveredCapacity, p.AchievedRate)
		res.Points = append(res.Points, p)
	}
	for _, p := range res.Points {
		if base := res.Points[0].P99Ms; base > 0 && p.P99Ms > tailKneeFactor*base {
			res.KneeRate = p.Rate
			break
		}
	}
	if n := len(cfg.Rates); n > 0 {
		sp, err := runTailPoint(cfg, cfg.Rates[n-1], tailSerialDepth)
		if err != nil {
			return res, fmt.Errorf("serial ablation: %w", err)
		}
		res.SerialPoint = &sp
		res.SerialCapacity = sp.AchievedRate
		if res.SerialCapacity > 0 {
			res.PipelineSpeedup = res.DeliveredCapacity / res.SerialCapacity
		}
	}
	return res, nil
}

// runTailPoint measures one rate; depth is the subscriber's per-worker
// in-flight pipeline bound (0 = the core default).
func runTailPoint(cfg TailConfig, rate float64, depth int) (TailPoint, error) {
	rec := new(hdr.Recorder)
	var start time.Time      // set right before the publishers launch
	var applied atomic.Int64 // ns from start to the latest apply
	warmupNs := cfg.Warmup.Nanoseconds()
	measure := func(ctx *model.CallbackCtx) error {
		time.Sleep(tailCallback)
		now := time.Since(start).Nanoseconds()
		applied.Store(now)
		sendAt, ok := ctx.Record.Get("t").(float64)
		if !ok {
			return fmt.Errorf("tail: record %s/%s missing send stamp", ctx.Record.Model, ctx.Record.ID)
		}
		if int64(sendAt) >= warmupNs {
			rec.Record(now - int64(sendAt))
		}
		return nil
	}
	p := pair(pairSpec{
		Pub:    core.Config{Mode: core.Causal, VStoreShards: vstoreShards, VStoreRTT: tailVStoreRTT},
		Sub:    core.Config{Mode: core.Causal, VStoreShards: vstoreShards, VStoreRTT: tailVStoreRTT, PipelineDepth: depth},
		Models: tailModels,
		OnSub:  afterWrite(measure),
	})
	pub, sub := p.pub, p.sub
	sub.StartWorkers(tailSubWorkers)
	defer sub.StopWorkers()

	gen := workload.NewOpenLoopGen(tailWorkload(rate, cfg.Duration))
	w := socialWriter{pub: pub}
	var maxLag atomic.Int64
	var wg sync.WaitGroup
	start = time.Now()
	for i := 0; i < tailPubWorkers; i++ {
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
				w.write(op.SocialOp, func(r *model.Record) { r.Set("t", float64(op.SendAt.Nanoseconds())) })
			}
		}()
	}
	wg.Wait()
	sent := gen.Emitted()

	// Drain: the tail of the backlog still counts — dropping it would
	// be coordinated omission through the back door. The window ends at
	// the last apply, so the verdict's row scan is not charged to it.
	if err := waitConverged(tailDrainTimeout, pub, sub); err != nil {
		return TailPoint{}, err
	}
	elapsed := time.Duration(applied.Load())
	st := sub.Stats()
	delivered := st.Processed

	if depth == 0 {
		depth = 4 // echo the core default (see core.Config.withDefaults)
	}
	pt := TailPoint{
		Rate:             rate,
		Shape:            workload.ShapeBurst.String(),
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
		pt.Stages[name] = TailStage{
			Count:  ss.Count,
			MeanMs: float64(ss.Mean.Nanoseconds()) / 1e6,
			P95Ms:  float64(ss.P95.Nanoseconds()) / 1e6,
		}
	}
	return pt, nil
}

// tailModels is the §6.3 social pair plus the intended-send-time stamp
// "t" (ns offset from stream start): posts and comments both carry it
// so the subscriber can charge latency from the moment the op was
// SCHEDULED, not the moment a free publisher worker got to it.
func tailModels() []*model.Descriptor {
	models := socialModels()
	for _, d := range models {
		d.AddField(model.Field{Name: "t", Type: model.Float})
	}
	return models
}

func nsToMs(v int64) float64 { return float64(v) / 1e6 }

// FormatTail renders the sweep as a table plus the knee verdict.
func FormatTail(r TailDoc) string {
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

// gateTail: p99 at the anchor rate (1000 ops/s, present in quick and
// full sweeps with identical capacity knobs) within 3x of the baseline —
// wall-clock latency is noisy in CI, so the rule catches collapses, not
// jitter. Delivered capacity, measured at the shared saturating top rate,
// must clear 1.6x the committed depth-1 ceiling — the apply window's win
// is re-proven on every run — and must not fall below 0.6x the committed
// capacity.
func gateTail(base, fresh TailDoc, v *Verdict) {
	const anchor, tol = 1000, 3
	p99 := func(d TailDoc) float64 {
		for _, p := range d.Points {
			if p.Rate == anchor {
				return p.P99Ms
			}
		}
		return 0
	}
	if b, n := p99(base), p99(fresh); b == 0 || n == 0 {
		v.breachf("anchor rate %d missing from the baseline or the fresh run", anchor)
	} else if n > tol*b {
		v.breachf("p99 at %d ops/s regressed %gms -> %gms (>%dx)", anchor, b, n, tol)
	}
	if n, s := fresh.DeliveredCapacity, base.SerialCapacity; n < 1.6*s {
		v.breachf("delivered capacity %.0f msg/s below 1.6x the committed serial ceiling (%.0f msg/s)", n, s)
	}
	if n, b := fresh.DeliveredCapacity, base.DeliveredCapacity; n < 0.6*b {
		v.breachf("delivered capacity collapsed %.0f -> %.0f msg/s (below 0.6x baseline)", b, n)
	}
}
