package main

// metricDef declares one reported metric. BENCHMARK.json at the root of
// the repository repeats these tables (a test keeps them equal).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening of the median
}

// endToEndMetrics are what a user of the system sees; same names on
// every workload, always from an untraced run. Each bound is about three
// times the widest run-to-run spread measured for the metric on any
// workload (README.md, "Measured run-to-run spread").
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"capacity_msgs_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_msg", "us", "lower", 0.20},
	{"allocs_per_msg", "count", "lower", 0.03},
	{"bytes_per_msg", "B", "lower", 0.05},
	{"publish_p50_us", "us", "lower", 0.20},
	{"lag_p50_ms", "ms", "lower", 0.24},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayerMetrics are the cost ledger of a traced run (--trace 1); they
// have no bound. Names are <module>.<metric>. Three sources, all outside
// the program: isolated replays of each layer's public functions on the
// workload's own stream (layers.go), timing proxies around every Mapper
// and the Bus plus the program's public counters (proxy.go, traced.go),
// and the harness itself.
var perLayerMetrics = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name: name, unit: unit, better: better}) }
	pair := func(prefix string) {
		add(prefix+"_ns", "ns", "lower")
		add(prefix+"_allocs", "count", "lower")
	}
	// Isolated replay.
	pair("model.record_build")
	pair("orm.activerecord.create")
	pair("orm.documentorm.create")
	for _, e := range allEngines {
		pair("orm." + adapterOf[e] + ".save")
	}
	pair("deptrack.plan")
	add("vstore.bump_batch_ns", "ns", "lower")
	add("vstore.wait_multi_ns", "ns", "lower")
	add("vstore.apply_batch_ns", "ns", "lower")
	add("vstore.incr_multi_ns", "ns", "lower")
	add("vstore.allocs_per_msg", "count", "lower")
	pair("wire.marshal")
	pair("wire.unmarshal")
	add("wire.payload_bytes", "B", "lower")
	add("broker.publish_ns", "ns", "lower")
	add("broker.publish_fanout5_ns", "ns", "lower")
	add("broker.get_ack_ns", "ns", "lower")
	add("broker.allocs_per_msg", "count", "lower")
	pair("core.publish.write")
	pair("core.subscribe.process")
	add("core.subscribe.process_weak_ns", "ns", "lower")
	// In-run proxies.
	add("core.publish.self_ns", "ns", "lower")
	add("core.journal.write_ns", "ns", "lower")
	add("core.publish.orm_share", "ratio", "lower")
	add("core.publish.bus_share", "ratio", "lower")
	for _, e := range allEngines {
		add("orm."+adapterOf[e]+".inrun_save_us", "us", "lower")
	}
	add("core.subscribe.applied_share", "ratio", "higher")
	// The program's public counters (App.Stats), measured phases only.
	add("vstore.pub_rt_per_msg", "count", "lower")
	add("vstore.sub_rt_per_msg", "count", "lower")
	add("core.subscribe.depwait_blocked_share", "ratio", "lower")
	add("core.subscribe.depwait_blocked_mean_us", "us", "lower")
	add("core.subscribe.flush_batch_mean", "count", "higher")
	add("core.subscribe.pipeline_fill_mean", "count", "higher")
	for _, st := range subscriberStages {
		add("core.subscribe.stage_"+st+"_mean_us", "us", "lower")
	}
	add("core.subscribe.retries", "count", "lower")
	add("core.subscribe.redelivered", "count", "lower")
	add("broker.queue_max_depth", "count", "lower")
	// Harness side.
	add("paced.publish_p50_raw_us", "us", "lower")
	add("paced.lag_p50_raw_ms", "ms", "lower")
	add("paced.publish_p99_us", "us", "lower")
	add("paced.lag_p90_ms", "ms", "lower")
	add("paced.lag_p99_ms", "ms", "lower")
	add("paced.lag_samples", "count", "higher")
	add("gen.max_late_ms", "ms", "lower")
	add("sat.capacity_total_msgs_per_s", "1/s", "higher")
	add("sat.capacity_best_raw_msgs_per_s", "1/s", "higher")
	add("sat.cpu_total_us_per_msg", "us", "lower")
	add("sat.cpu_utilisation", "ratio", "higher")
	add("host.noise_ratio", "ratio", "lower")
	add("host.paced_factor", "ratio", "lower")
	add("host.sat_factor", "ratio", "lower")
	add("process.gc_cpu_share", "ratio", "lower")
	add("process.gc_cycles_per_kmsg", "count", "lower")
	add("ledger.layer_sum_us", "us", "lower")
	add("ledger.publisher_share", "ratio", "lower")
	add("ledger.unexplained_share", "ratio", "lower")
	add("trace.overhead_share", "ratio", "lower")
	add("trace.spans", "count", "higher")
	return out
}()

// subscriberStages are the program's subscriber pipeline timers.
var subscriberStages = []string{"decode", "barrier", "dep-wait", "apply", "flush", "ack"}
