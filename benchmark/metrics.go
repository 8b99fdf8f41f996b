package main

import "repro/internal/runstats"

// metricDef names one reported metric and the direction that is better.
// End-to-end metrics also carry the regression bound, the share of the
// baseline median by which they may worsen; BENCHMARK.json repeats all of
// it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only
}

// endToEnd are the metrics a user of the range sees. They always come
// from untraced reps; timings are scaled to the reference box's quiet
// speed (see machineSpeed).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.06},
}

// spanShares are the per-layer metrics carrying a span's self time as a
// share of the traced run, one per span the workloads open inside
// bench.run (see shareMetric).
var spanShares = []string{
	"bench.run_gap_share",
	"sim.run_until_share",
	"core.capture_merge_share",
	"core.render_report_share",
	"obs.parse_jsonl_share",
	"provenance.build_share",
	"provenance.validate_share",
	"provenance.stats_share",
	"detect.replay_share",
	"detect.write_alerts_share",
}

// perLayer lists every per-layer metric a traced run reports. Lower is
// better for a time, a share of time and an amount of work; higher for
// the pool's hit rate, the partitions' busy share and the machine's speed.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("share", "lower", spanShares...)
	for _, id := range fullScale().catalog {
		add("share", "lower", "core.exp_share."+id)
	}
	add("count", "lower",
		"sim.events", "sim.max_queue_depth",
		"host.driver_loads", "host.files_wiped", "host.doc_writes",
		"netsim.requests", "netsim.smb_copies",
		"cnc.entries",
		"obs.retained_records",
		"provenance.nodes",
		"detect.alerts",
		"users.actions", "users.ticks",
		"bench.gc_cycles")
	add("share", "higher", "sim.pool_hit_rate", "sim.partition_busy_share")
	add("share", "lower", "pki.verify_share", "cnc.seal_share")
	add("ratio", "lower", "sim.partition_imbalance", "bench.trace_overhead")
	add("ratio", "higher", "bench.machine_speed")
	add("us", "lower", "core.fleet_build_us_per_host", "pki.verify_image_us", "netsim.dispatch_us", "cnc.seal_us", "cnc.open_us")
	add("ns", "lower", "sim.schedule_fire_ns", "host.fs_read_ns", "host.fs_write_ns", "netsim.peer_at_ns",
		"obs.emit_live_ns", "obs.emit_muted_ns")
	add("s", "lower", "bench.wall_run_s")
	return defs
}

// tracedValues derives one traced rep's per-layer values from its spans,
// the program's counters it read, and the rep's runstats collector.
func tracedValues(r *rep, coll *runstats.Collector, gcs uint32) map[string]float64 {
	v := make(map[string]float64)
	self, total := r.tr.selfTimes(r.tr.rep, rootRun)
	for name, s := range self {
		v[shareMetric(name)] = s / total
	}
	for k, c := range r.counts {
		v[k] = c
	}
	k := coll.Manifest().Kernel
	v["sim.pool_hit_rate"] = k.PoolHitRate
	v["sim.max_queue_depth"] = float64(k.MaxQueueDepth)
	v["bench.gc_cycles"] = float64(gcs)
	return v
}
