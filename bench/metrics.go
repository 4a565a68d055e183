package main

import "time"

// metricDef is one row of the metric catalogue. BENCHMARK.json lists
// the same names, units and directions; the package test keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	layer  string  // per-layer only
	moves  string  // per-layer only: the end-to-end metric and workloads it should move
}

// endToEnd are the numbers a user of the system sees, measured with
// tracing off. Every value is the median over the run's timed passes.
// The timing bounds are as wide as the contract allows because the
// reference box is shared and runs 10–40% slower for minutes at a time
// (README, "Repeatability"); counts repeat to a fraction of a percent.
// State per host takes two values 4% apart depending on how the address
// plan splits hosts between the store's shards.
var endToEnd = []metricDef{
	{name: "records_per_s", unit: "records/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_record", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_record", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_bytes_per_record", unit: "bytes", better: "lower", bound: 0.05},
	{name: "window_close_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "state_bytes_per_host", unit: "bytes", better: "lower", bound: 0.08},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	rps      = "records_per_s"
	cpu      = "cpu_us_per_record"
	allocs   = "allocs_per_record"
	closeP50 = "window_close_ms_p50"
	state    = "state_bytes_per_host"
)

// perLayer are the numbers of single layers, from the traced run: the
// workload replayed with spans and a metrics registry attached, then
// each layer's public functions called on their own over the same
// records.
var perLayer = []metricDef{
	{name: "loadgen.blocked_share", unit: "ratio", better: "higher", layer: "loadgen", moves: "validity of live-v5: near 0 means the sender, not the program, is the bound"},
	{name: "loadgen.datagrams", unit: "count", better: "higher", layer: "loadgen", moves: "none: work done"},

	{name: "collector.self_share", unit: "ratio", better: "lower", layer: "collector", moves: rps + " on live-v5"},
	{name: "collector.recv_decode_ns_per_record", unit: "ns", better: "lower", layer: "collector", moves: rps + ", " + cpu + " on live-v5 only"},
	{name: "collector.decode_ns_per_record", unit: "ns", better: "lower", layer: "collector", moves: cpu + " on live-v5 only"},
	{name: "collector.decode_ipfix_ns_per_record", unit: "ns", better: "lower", layer: "collector", moves: "none yet: no workload sends IPFIX"},
	{name: "collector.decode_sflow_ns_per_record", unit: "ns", better: "lower", layer: "collector", moves: "none yet: no workload sends sFlow"},
	{name: "collector.allocs_per_record", unit: "count", better: "lower", layer: "collector", moves: allocs + " on live-v5"},
	{name: "collector.queue_high_water", unit: "count", better: "lower", layer: "collector", moves: closeP50 + " on live-v5 (queue wait)"},
	{name: "collector.drops", unit: "count", better: "lower", layer: "collector", moves: "failed on live-v5"},

	{name: "ingest.sample_ns_per_record", unit: "ns", better: "lower", layer: "ingest", moves: "none yet: no workload samples"},
	{name: "ingest.arena_cap_records", unit: "count", better: "lower", layer: "ingest", moves: state + " (fixed cost)"},

	{name: "checkpoint.self_share", unit: "ratio", better: "lower", layer: "checkpoint", moves: rps + " on live-v5; 0 elsewhere"},
	{name: "checkpoint.wal_append_ns_per_record", unit: "ns", better: "lower", layer: "checkpoint", moves: rps + " on live-v5; no other workload"},
	{name: "checkpoint.wal_bytes_per_record", unit: "bytes", better: "lower", layer: "checkpoint", moves: rps + " on live-v5"},
	{name: "checkpoint.wal_writes_per_record", unit: "count", better: "lower", layer: "checkpoint", moves: rps + ", " + cpu + " on live-v5"},
	{name: "checkpoint.wal_sync_ms_p50", unit: "ms", better: "lower", layer: "checkpoint", moves: rps + " on live-v5 (informational: the disk is not the program's)"},
	{name: "checkpoint.snapshot_ms", unit: "ms", better: "lower", layer: "checkpoint", moves: "none: checkpoints run between passes"},
	{name: "checkpoint.snapshot_bytes_per_host", unit: "bytes", better: "lower", layer: "checkpoint", moves: "none: checkpoints run between passes"},
	{name: "checkpoint.recover_ms", unit: "ms", better: "lower", layer: "checkpoint", moves: "none: recovery is not on a timed path"},

	{name: "flow.self_share", unit: "ratio", better: "lower", layer: "flow", moves: rps + " on dist-2shard (most), live-v5, batch-day"},
	{name: "flow.extract_ns_per_record", unit: "ns", better: "lower", layer: "flow", moves: rps + " on dist-2shard (most), live-v5, detect-wide"},
	{name: "flow.extract_allocs_per_record", unit: "count", better: "lower", layer: "flow", moves: allocs + " on every streaming workload"},
	{name: "flow.extract_bytes_per_record", unit: "bytes", better: "lower", layer: "flow", moves: "alloc_bytes_per_record on every streaming workload"},
	{name: "flow.batch_extract_ns_per_record", unit: "ns", better: "lower", layer: "flow", moves: rps + ", " + closeP50 + " on batch-day"},
	{name: "flow.take_pane_ms", unit: "ms", better: "lower", layer: "flow", moves: closeP50 + " on streaming workloads"},
	{name: "flow.reorder_high_water", unit: "count", better: "lower", layer: "flow", moves: state},
	{name: "flow.state_bytes_per_host", unit: "bytes", better: "lower", layer: "flow", moves: state + " everywhere"},

	{name: "engine.self_share", unit: "ratio", better: "lower", layer: "engine", moves: rps + " on streaming workloads"},
	{name: "engine.add_overhead_ns_per_record", unit: "ns", better: "lower", layer: "engine", moves: rps + " on streaming workloads"},
	{name: "engine.seal_ms_mean", unit: "ms", better: "lower", layer: "engine", moves: closeP50 + " on streaming workloads"},
	{name: "engine.windows", unit: "count", better: "higher", layer: "engine", moves: "none: work done"},
	{name: "engine.late_drops", unit: "count", better: "lower", layer: "engine", moves: "failed"},

	{name: "core.self_share", unit: "ratio", better: "lower", layer: "core", moves: rps + ", " + closeP50 + " on detect-wide"},
	{name: "core.detect_ms_p50", unit: "ms", better: "lower", layer: "core", moves: closeP50 + " and " + rps + " on detect-wide; not " + rps + " on live-v5"},
	{name: "core.local_pass_ms", unit: "ms", better: "lower", layer: "core", moves: closeP50 + " on dist-2shard"},
	{name: "core.global_pass_ms", unit: "ms", better: "lower", layer: "core", moves: closeP50 + " on dist-2shard"},
	{name: "core.findplotters_ms", unit: "ms", better: "lower", layer: "core", moves: closeP50 + " on detect-wide, batch-day"},
	{name: "core.hm_ms", unit: "ms", better: "lower", layer: "core", moves: closeP50 + ", " + rps + " on detect-wide"},
	{name: "core.hm_hosts", unit: "count", better: "higher", layer: "core", moves: "none: input size of the quadratic stage"},
	{name: "core.filters_ms", unit: "ms", better: "lower", layer: "core", moves: closeP50 + " slightly, everywhere"},

	{name: "distmatrix.self_share", unit: "ratio", better: "lower", layer: "distmatrix", moves: rps + ", " + closeP50 + " on detect-wide"},
	{name: "distmatrix.compute_ms", unit: "ms", better: "lower", layer: "distmatrix", moves: closeP50 + ", " + rps + " on detect-wide"},
	{name: "distmatrix.pairs", unit: "count", better: "lower", layer: "distmatrix", moves: "distmatrix.compute_ms"},
	{name: "distmatrix.exact_pair_ratio", unit: "ratio", better: "lower", layer: "distmatrix", moves: "distmatrix.compute_ms: exact EMD evaluations per pair"},

	{name: "cluster.self_share", unit: "ratio", better: "lower", layer: "cluster", moves: rps + ", " + closeP50 + " on detect-wide"},
	{name: "cluster.agglomerate_cut_ms", unit: "ms", better: "lower", layer: "cluster", moves: closeP50 + ", " + rps + " on detect-wide"},

	{name: "community.self_share", unit: "ratio", better: "lower", layer: "community", moves: closeP50 + " on live-v5, dist-2shard, batch-day"},
	{name: "community.detect_ms_p50", unit: "ms", better: "lower", layer: "community", moves: closeP50 + " on live-v5, dist-2shard, batch-day"},
	{name: "community.build_graph_ms", unit: "ms", better: "lower", layer: "community", moves: "community.detect_ms_p50"},
	{name: "community.propagate_ms", unit: "ms", better: "lower", layer: "community", moves: "community.detect_ms_p50"},
	{name: "community.edges", unit: "count", better: "lower", layer: "community", moves: "none: graph size"},

	{name: "dist.self_share", unit: "ratio", better: "lower", layer: "dist", moves: closeP50 + " on dist-2shard only"},
	{name: "dist.summary_encode_ms", unit: "ms", better: "lower", layer: "dist", moves: closeP50 + " on dist-2shard only"},
	{name: "dist.summary_decode_ms", unit: "ms", better: "lower", layer: "dist", moves: closeP50 + " on dist-2shard only"},
	{name: "dist.summary_bytes_per_host", unit: "bytes", better: "lower", layer: "dist", moves: closeP50 + " on dist-2shard only"},
	{name: "dist.frames", unit: "count", better: "lower", layer: "dist", moves: "none: work done"},
	{name: "dist.frames_resent", unit: "count", better: "lower", layer: "dist", moves: "failed on dist-2shard"},
	{name: "dist.drain_ms", unit: "ms", better: "lower", layer: "dist", moves: rps + " on dist-2shard"},

	{name: "flowio.self_share", unit: "ratio", better: "lower", layer: "flowio", moves: closeP50 + " on batch-day only"},
	{name: "flowio.read_ns_per_record", unit: "ns", better: "lower", layer: "flowio", moves: closeP50 + " on batch-day only"},
	{name: "flowio.read_allocs_per_record", unit: "count", better: "lower", layer: "flowio", moves: allocs + " on batch-day only"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "trace", moves: "none: untraced over traced " + rps + " in the same process"},
	{name: "trace.attributed_share", unit: "ratio", better: "higher", layer: "trace", moves: "none: sum of the self shares; the rest of the traced wall is unexplained"},
	{name: "trace.isolated_cost_ratio", unit: "ratio", better: "higher", layer: "trace", moves: "none: per-record costs measured in isolation over the per-record time spent in place"},
	{name: "trace.spans", unit: "count", better: "lower", layer: "trace", moves: "trace.overhead_ratio"},
}

// layerShares splits the traced wall between the layers. Spans give
// the benchmark's own boundaries (pass, Handler call, detector call,
// reader, batch extract); the program's stage timers split detection
// between core, distmatrix and cluster and give the seal and shard-side
// times; and the per-record time no boundary separates is divided in
// proportion to the layers' isolated per-record costs.
func layerShares(name string, tr *tracer, res *result, probe map[string]float64, m map[string]float64) {
	snap := res.snap
	self := tr.selfTimes()
	var wall time.Duration
	for _, d := range tr.durations("pass") {
		wall += d
	}
	if wall == 0 {
		return
	}
	var records float64
	for _, p := range res.passes {
		records += float64(p.records)
	}
	// The warm-up pass is traced too and fed as many records as a timed
	// one.
	records += records / float64(len(res.passes))
	share := func(d time.Duration) float64 { return float64(d) / float64(wall) }

	matrix := stageTotal(snap, "pipeline/hm/matrix")
	clustering := stageTotal(snap, "pipeline/hm/cluster")
	seal := stageTotal(snap, "engine/seal")
	m["distmatrix.self_share"] = share(matrix)
	m["cluster.self_share"] = share(clustering)
	m["community.self_share"] = share(self["community.detect"])

	// perRecord is the time spent adding records one by one, with every
	// boundary the glue or the program can see taken out.
	var perRecord time.Duration
	costs := map[string]float64{
		"flow":   probe["flow.extract_ns_per_record"],
		"engine": probe["engine.add_overhead_ns_per_record"],
	}
	switch name {
	case "live-v5":
		var handlers time.Duration
		for _, d := range tr.durations("handler") {
			handlers += d
		}
		m["collector.self_share"] = share(wall - handlers)
		m["core.self_share"] = share(self["core.detect"] - matrix - clustering)
		perRecord = self["handler"] - seal
		costs["checkpoint"] = probe["checkpoint.wal_append_ns_per_record"]
	case "detect-wide":
		m["core.self_share"] = share(self["core.detect"] - matrix - clustering)
		perRecord = self["pass"] - seal
	case "dist-2shard":
		// The feeder runs both shards' extraction, seals and local
		// passes; the coordinator's global phase runs beside it on its
		// own goroutines, so the shares of this workload can sum past 1.
		local := stageTotal(snap, "localpass")
		shardDetect := stageTotal(snap, "engine/detect")
		global := stageTotal(snap, "engine/globalpass")
		paper := stageTotal(snap, "engine/globalpass/findplotters")
		comm := stageTotal(snap, "engine/globalpass/community")
		drain := time.Duration(res.layer["dist.drain_total_ms"] * float64(time.Millisecond))
		m["core.self_share"] = share(local + paper - matrix - clustering)
		m["dist.self_share"] = share(shardDetect - local + global - paper - comm + drain)
		perRecord = self["pass"] - seal - shardDetect - drain
	case "batch-day":
		m["flowio.self_share"] = share(self["flowio.read"])
		m["flow.self_share"] = share(self["flow.batch_extract"])
		m["core.self_share"] = share(self["core.detect"] - matrix - clustering)
	}
	if perRecord > 0 {
		var sum float64
		for _, c := range costs {
			sum += c
		}
		for layer, c := range costs {
			m[layer+".self_share"] += share(perRecord) * c / sum
		}
		m["trace.isolated_cost_ratio"] = sum * records / float64(perRecord)
	}
	m["engine.self_share"] += share(seal)
	for _, def := range perLayer {
		if def.layer != "trace" && def.layer != "loadgen" && def.name == def.layer+".self_share" {
			m["trace.attributed_share"] += m[def.name]
		}
	}
}
