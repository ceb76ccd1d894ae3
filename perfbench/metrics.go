package main

// metric is one reported metric. For per-layer metrics, moves names the
// end-to-end metric the layer should move, on is the workload that loads
// the layer, and flat lists the workloads where it should not change.
type metric struct {
	name, unit      string
	moves, on, flat string
}

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metric{
	{name: "throughput_qps", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p95_ms", unit: "ms"},
	{name: "setup_s", unit: "s"},
	{name: "node_rss_mb", unit: "MB"},
	{name: "snapshot_mb", unit: "MB"},
}

// perLayer is printed by every traced run, on every workload; a layer a
// workload does not exercise reads 0.
var perLayer = []metric{
	{"http.roundtrip_ms", "ms", "latency_p50_ms", "wayfind-campus", "track-tower"},
	{"server.handle_ms", "ms", "latency_p50_ms throughput_qps", "wayfind-campus", ""},
	{"server.wire_ms", "ms", "throughput_qps", "wayfind-campus", "publish-towers track-tower"},
	{"server.req_bytes_per_query", "bytes", "throughput_qps", "wayfind-campus", ""},
	{"server.resp_bytes_per_query", "bytes", "throughput_qps", "wayfind-campus", ""},
	{"server.cpu_us_per_query", "us", "throughput_qps", "all", ""},
	{"server.shed", "count", "error_rate", "all", ""},
	{"server.canceled", "count", "error_rate", "all", ""},
	{"server.panics", "count", "error_rate", "all", ""},
	{"snapshot.loads_after_setup", "count", "swap_s", "publish-towers", "wayfind-campus track-tower"},
	{"engine.exec_ms", "ms", "throughput_qps latency_p50_ms", "publish-towers track-tower", "wayfind-campus"},
	{"engine.exec_unplanned_ms", "ms", "(ablation: what the planner buys)", "all", ""},
	{"engine.batched_share", "ratio", "engine.exec_ms", "all", ""},
	{"iptree.distance_batch_us", "us", "throughput_qps", "publish-towers", "wayfind-campus"},
	{"iptree.distance_loop_us", "us", "throughput_qps", "publish-towers", "wayfind-campus"},
	{"iptree.path_us", "us", "latency_p50_ms", "publish-towers", ""},
	{"iptree.knn_batch_us", "us", "latency_p50_ms throughput_qps", "track-tower", "wayfind-campus publish-towers"},
	{"iptree.range_batch_us", "us", "latency_p50_ms throughput_qps", "track-tower", "wayfind-campus publish-towers"},
	{"iptree.knn_us", "us", "latency_p50_ms throughput_qps", "track-tower", "wayfind-campus publish-towers"},
	{"iptree.climb_cache_hit_rate", "ratio", "latency_p50_ms", "track-tower", ""},
	{"iptree.climb_cache_lookups", "count", "(base of iptree.climb_cache_hit_rate)", "track-tower", ""},
	{"iptree.same_leaf_objects_per_query", "count", "latency_p50_ms", "track-tower", ""},
	{"iptree.index_mb", "MB", "node_rss_mb", "publish-towers", ""},
	{"iptree.build_s", "s", "setup_s", "all", ""},
	{"model.d2d_location_dist_us", "us", "latency_p50_ms", "track-tower", ""},
	{"updatelog.submit_p50_us", "us", "update_p50_ms", "track-tower", ""},
	{"updatelog.submit_p95_us", "us", "update_p95_ms", "track-tower", ""},
	{"wal.fsyncs_per_update", "count", "update_p95_ms", "track-tower", ""},
	{"wal.fsync_ms", "ms", "update_p95_ms", "track-tower", ""},
	{"wal.bytes_per_update", "bytes", "update_p95_ms", "track-tower", ""},
	{"wal.durable_lag_ms", "ms", "(crash-loss window; recorded)", "track-tower", ""},
	{"snapshot.read_bytes", "bytes", "swap_s setup_s", "publish-towers", "wayfind-campus (set-up only)"},
	{"snapshot.file_read_ms", "ms", "swap_s setup_s", "publish-towers", "wayfind-campus (set-up only)"},
	{"snapshot.decode_ms", "ms", "swap_s setup_s", "publish-towers", "wayfind-campus (set-up only)"},
	{"snapshot.verify_ms", "ms", "swap_s setup_s", "publish-towers", "wayfind-campus (set-up only)"},
	{"snapshot.write_ms", "ms", "setup_s", "all", ""},
	{"venuegen.generate_ms", "ms", "setup_s", "all", ""},
	{"loadgen.late_p95_ms", "ms", "(benchmark health)", "track-tower", ""},
	{"loadgen.cpu_share", "ratio", "(benchmark health: the generator's share of the CPU the run used)", "all", ""},
	{"loadgen.untraced_p50_ms", "ms", "(tracing overhead: compare with loadgen.traced_p50_ms)", "all", ""},
	{"loadgen.traced_p50_ms", "ms", "(tracing overhead)", "all", ""},
	{"loadgen.untraced_qps", "1/s", "(tracing overhead: compare with loadgen.traced_qps)", "all", ""},
	{"loadgen.traced_qps", "1/s", "(tracing overhead)", "all", ""},
	{"update_p50_ms", "ms", "(end-to-end, traced run only)", "track-tower", ""},
	{"update_p95_ms", "ms", "(end-to-end, traced run only)", "track-tower", ""},
	{"swap_s", "s", "(end-to-end, traced run only)", "publish-towers", ""},
	{"error_rate", "ratio", "(end-to-end, traced run only)", "all", ""},
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("unknown metric " + name)
}
