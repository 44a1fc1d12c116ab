package main

// metricDef names one ledger metric. BENCHMARK.json carries the same names
// and units (contract_test.go holds the two together).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the metadata service sees, measured
// with tracing off; each carries its regression bound in BENCHMARK.json.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},    // completed ops / measured wall seconds, median over rounds
	{"p50_us", "us"},        // median client-observed latency over every measured op
	{"cpu_us_per_op", "us"}, // user+sys CPU of every locofsd and the driver / ops, median over rounds
	{"setup_s", "s"},        // spawn -> servers ready -> preload done, median of the set-ups
}

// perLayer are the ungated metrics of single layers, in ledger order. Layer
// names are this repo's modules. A metric that does not apply to a workload
// (a class it never issues, followers on the plain topology) reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// (a) measured from outside the running cluster.
		{"client.cpu_us_per_op", "us"},
		{"client.p99_us", "us"},
		{"client.trips_per_op", "count"},
		{"client.dircache_hit_ratio", "ratio"},
		{"client.retries", "count"},
	}
	for _, c := range classNames {
		m = append(m, metricDef{"client." + c + "_p50_us", "us"})
	}
	return append(m, []metricDef{
		{"rpc.queue_us_per_req", "us"},
		{"rpc.errors", "count"},
		{"fms.cpu_us_per_op", "us"},
		{"fms.reqs_per_op", "count"},
		{"fms.service_us_per_req", "us"},
		{"fms.kv_ops_per_req", "count"},
		{"fms.kv_bytes_written_per_req", "bytes"},
		{"fms.rss_mb", "MB"},
		{"dms.cpu_us_per_op", "us"},
		{"dms.reqs_per_op", "count"},
		{"dms.service_us_per_req", "us"},
		{"dms.kv_ops_per_req", "count"},
		{"dms.lease_recalls_per_op", "count"},
		{"dms.rss_mb", "MB"},
		{"dms.partition.follower_cpu_us_per_op", "us"},
		{"dms.partition.mutation_service_us", "us"},

		// (b) the in-process ladder.
		{"kv.btree_get_ns", "ns"},
		{"kv.btree_put_ns", "ns"},
		{"kv.hash_get_ns", "ns"},
		{"kv.hash_put_ns", "ns"},
		{"kv.patch_ns", "ns"},
		{"kv.append_16k_ns", "ns"},
		{"kv.move_prefix_1k_ns", "ns"},
		{"wire.write_msg_ns", "ns"},
		{"wire.read_msg_ns", "ns"},
		{"wire.read_msg_allocs", "count"},
		{"wire.stat_req_bytes", "bytes"},
		{"netsim.pipe_rtt_ns", "ns"},
		{"netsim.tcp_rtt_ns", "ns"},
		{"netsim.tcp_rtt_allocs", "count"},
		{"netsim.tcp_16inflight_ns", "ns"},
		{"rpc.null_pipe_rtt_ns", "ns"},
		{"rpc.null_tcp_rtt_ns", "ns"},
		{"rpc.null_tcp_rtt_allocs", "count"},
		{"rpc.null_tcp_16inflight_ns", "ns"},
		{"rpc.null_xproc_rtt_ns", "ns"}, // against a live locofsd, not in process
		{"fms.create_ns", "ns"},
		{"fms.create_allocs", "count"},
		{"fms.getattr_ns", "ns"},
		{"fms.getattr_allocs", "count"},
		{"fms.create_wide16k_ns", "ns"},
		{"fms.remove_wide16k_ns", "ns"},
		{"fms.readdir_wide16k_ns", "ns"},
		{"dms.mkdir_ns", "ns"},
		{"dms.mkdir_allocs", "count"},
		{"dms.lookup_d4_ns", "ns"},
		{"dms.lookup_d4_allocs", "count"},
		{"dms.rename_1k_ns", "ns"},
		{"dms.partition.mkdir_r1_ns", "ns"},
		{"dms.partition.mkdir_r3_ns", "ns"},
		{"client.mkdir_inproc_ns", "ns"},
		{"client.create_inproc_ns", "ns"},
		{"client.create_inproc_allocs", "count"},
		{"client.stat_inproc_ns", "ns"},
		{"client.stat_inproc_allocs", "count"},

		// (c) the traced serial pass.
		{"client.self_us", "us"},
		{"rpc.transit_us", "us"},
		{"fms.handler_us", "us"},
		{"dms.handler_us", "us"},
		{"trace.overhead_pct", "%"},
		{"ladder.create_x_kv", "ratio"},
		{"ladder.stat_x_kv", "ratio"},
		{"ladder.create_residual_pct", "%"},
	}...)
}

// exactMetrics are the per-layer counts that must repeat exactly between
// two runs of one seed: ladder allocs and the serial pass's counts.
var exactMetrics = []string{
	"wire.read_msg_allocs", "wire.stat_req_bytes", "netsim.tcp_rtt_allocs", "rpc.null_tcp_rtt_allocs",
	"fms.create_allocs", "fms.getattr_allocs", "dms.mkdir_allocs", "dms.lookup_d4_allocs",
	"client.create_inproc_allocs", "client.stat_inproc_allocs",
	"client.trips_per_op", "fms.reqs_per_op", "dms.reqs_per_op", "fms.kv_ops_per_req", "dms.kv_ops_per_req",
}
