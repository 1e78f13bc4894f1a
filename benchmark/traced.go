package main

import (
	"fmt"
	"io"
	"runtime"

	"synapse"
)

// statSnap is what the benchmark reads from the program's public
// counters (App.Stats), summed over the subscribers where there are
// several. Two snapshots bracket the measured phases; the per-layer
// metrics are their difference.
type statSnap struct {
	published, pubRT                  float64
	processed, subRT                  float64
	blocked, retries, redelivered     float64
	flushes                           float64
	blockedMeanUs, fillMean, maxDepth float64
	stageCount, stageUs               map[string]float64
}

func (r *run) snapshotStats() statSnap {
	s := statSnap{stageCount: map[string]float64{}, stageUs: map[string]float64{}}
	ps := r.fab.pub.Stats()
	s.published = float64(ps.Published)
	s.pubRT = float64(ps.VStoreRoundTrips)
	for _, sub := range r.fab.subs {
		st := sub.app.Stats()
		s.processed += float64(st.Processed)
		s.subRT += float64(st.VStoreRoundTrips)
		s.blocked += float64(st.DepWaitsBlocked)
		s.retries += float64(st.Retries)
		s.redelivered += float64(st.Redelivered)
		s.flushes += float64(st.Flushes)
		s.blockedMeanUs = max(s.blockedMeanUs, float64(st.DepWaitBlockedMean.Microseconds()))
		s.fillMean += st.PipelineFillMean / float64(len(r.fab.subs))
		s.maxDepth = max(s.maxDepth, float64(st.QueueMaxDepth))
		for name, stage := range st.Stages {
			s.stageCount[name] += float64(stage.Count)
			s.stageUs[name] += float64(stage.Total.Nanoseconds()) / 1e3
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is one --trace 1 invocation. It runs the workload twice at
// half length — untraced for the reference capacity and CPU per message,
// then with the timing proxies installed — replays every layer in
// isolation on the stream the traced run captured, writes the span file,
// and reports the per-layer metrics. End-to-end metrics are never taken
// from here.
func runTraced(spec workloadSpec, seed int64, seconds float64, outDir string, verbose bool, log io.Writer) report {
	return tracedReport(spec, seed, outDir, verbose, log,
		func(tr *tracer) *run { return newRun(spec, seed, seconds/2, 1, tr, log) })
}

// tracedReport is runTraced over runs built by mk (tests build small
// ones): mk(nil) is the untraced reference, mk(tr) the traced run.
func tracedReport(spec workloadSpec, seed int64, outDir string, verbose bool, log io.Writer, mk func(*tracer) *run) report {
	ref := mk(nil).execute()
	runtime.GC()

	tr := newTracer()
	trun := mk(tr)
	res := trun.execute()
	if verbose {
		printVerbose(log, spec, res)
	}
	m := map[string]float64{}
	for k, v := range res.harness {
		m[k] = v
	}
	failed := ref.failed + res.failed
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(log, "benchmark: %s: traced run: %s\n", spec.name, fmt.Sprintf(format, args...))
	}

	// In-run proxies. Span times are wall-clock; the phases' factors (as
	// each phase feels them), weighted by their message counts, convert
	// them to the reference host like everything else.
	pacedMsgs, satMsgs := float64(trun.sizes.paced), float64((satSegments+1)*trun.sizes.seg)
	factor := (m["host.paced_factor"]*pacedMsgs + busyFactor(m["host.sat_factor"])*satMsgs) / (pacedMsgs + satMsgs)
	if spec.sleeps() || factor <= 0 {
		factor = 1 // spans of sleeps do not scale with the host
	}
	pubs, pubNs := tr.total(func(a *agg) bool { return a == tr.pub })
	isJournal := func(a *agg) bool { return a.name == "core.journal.write" || a.name == "core.journal.ack" }
	_, ormNs := tr.total(func(a *agg) bool { return a.app == "pub" && a != tr.pub && a.name != "broker.publish" && !isJournal(a) })
	_, journalNs := tr.total(func(a *agg) bool { return a.app == "pub" && isJournal(a) })
	_, busNs := tr.total(func(a *agg) bool { return a.name == "broker.publish" })
	m["core.publish.self_ns"] = ratio(pubNs-ormNs-journalNs-busNs, float64(pubs)) / factor
	m["core.journal.write_ns"] = ratio(journalNs, float64(pubs)) / factor
	m["core.publish.orm_share"] = ratio(ormNs, pubNs)
	m["core.publish.bus_share"] = ratio(busNs, pubNs)
	var subWrites float64
	for _, e := range allEngines {
		name := "orm." + adapterOf[e] + ".inrun_save_us"
		m[name] = 0 // engines outside this workload's fabric report 0
		for i, se := range spec.subEngines {
			if se != e {
				continue
			}
			app := subName(i, se)
			n, ns := tr.total(func(a *agg) bool {
				return a.app == app && (a.name == "orm."+adapterOf[e]+".save" || a.name == "orm."+adapterOf[e]+".delete")
			})
			m[name] = ratio(ns, float64(n)) / 1e3 / factor
			subWrites += float64(n)
		}
	}
	m["core.subscribe.applied_share"] = ratio(subWrites, float64(pubs)*float64(len(spec.subEngines)))
	m["trace.spans"] = float64(len(tr.spans))

	// The program's public counters over the measured phases.
	d0, d1 := trun.snap0, trun.snap1
	msgs := d1.published - d0.published
	m["vstore.pub_rt_per_msg"] = ratio(d1.pubRT-d0.pubRT, msgs)
	m["vstore.sub_rt_per_msg"] = ratio(d1.subRT-d0.subRT, d1.processed-d0.processed)
	m["core.subscribe.depwait_blocked_share"] = ratio(d1.blocked-d0.blocked, d1.processed-d0.processed)
	m["core.subscribe.depwait_blocked_mean_us"] = d1.blockedMeanUs
	m["core.subscribe.flush_batch_mean"] = ratio(d1.processed-d0.processed, d1.flushes-d0.flushes)
	m["core.subscribe.pipeline_fill_mean"] = d1.fillMean
	for _, st := range subscriberStages {
		m["core.subscribe.stage_"+st+"_mean_us"] = ratio(d1.stageUs[st]-d0.stageUs[st], d1.stageCount[st]-d0.stageCount[st])
	}
	m["core.subscribe.retries"] = d1.retries - d0.retries
	m["core.subscribe.redelivered"] = d1.redelivered - d0.redelivered
	m["broker.queue_max_depth"] = d1.maxDepth

	// Isolated replays on the captured stream.
	if res.failed == 0 {
		layers, err := replayLayers(spec, seed, trun, tr)
		if err != nil {
			fail("isolated replay: %v", err)
		}
		for k, v := range layers {
			m[k] = v
		}
	}

	// The ledger: one message's path, layer by layer, against what the
	// untraced run measured for a whole message.
	process := m["core.subscribe.process_ns"]
	if spec.mode == synapse.Weak {
		process = m["core.subscribe.process_weak_ns"]
	}
	busPublish := m["broker.publish_ns"] * float64(len(spec.subEngines))
	if len(spec.subEngines) == 5 {
		busPublish = m["broker.publish_fanout5_ns"]
	}
	publisher := m["model.record_build_ns"] + m["core.publish.write_ns"] + busPublish
	sum := publisher
	for _, e := range spec.subEngines {
		// process was replayed on a MongoDB subscriber; swap in this
		// engine's persistence cost.
		sum += m["broker.get_ack_ns"] + m["wire.unmarshal_ns"] + process -
			m["orm.documentorm.save_ns"] + m["orm."+adapterOf[e]+".save_ns"]
	}
	m["ledger.layer_sum_us"] = sum / 1e3
	m["ledger.publisher_share"] = ratio(publisher, sum)
	m["ledger.unexplained_share"] = 1 - ratio(sum/1e3, ref.endToEnd["cpu_us_per_msg"])
	m["trace.overhead_share"] = 1 - ratio(res.endToEnd["capacity_msgs_per_s"], ref.endToEnd["capacity_msgs_per_s"])

	if path, err := tr.write(outDir, spec.name, seed); err != nil {
		fail("write span file: %v", err)
	} else {
		fmt.Fprintf(log, "benchmark: %s: %d spans written to %s\n", spec.name, len(tr.spans), path)
	}

	rep := report{
		Correct:   failed == 0 && res.attempted > 0,
		Attempted: max(ref.attempted+res.attempted, 1),
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, def := range perLayerMetrics {
		rep.Metrics[def.name] = metricValue{Value: m[def.name], Unit: def.unit}
	}
	return rep
}
