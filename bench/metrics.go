package main

// metricDef is one row of the metric catalogue. BENCHMARK.json and
// README.md repeat the catalogue; catalogue_test.go keeps the three equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a tester, an experimenter or the operator
// sees, measured with tracing off. A timing is reported in xref: as a
// multiple of the reference session (ref.go) the same testers timed in the
// same part of the same round, so that the shared host's level shifts
// cancel. Each is the median over the rounds of the per-round value, except
// setup_s (wall-clock seconds, median over the run's set-ups) and
// heap_bytes_per_session (whole run).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"flow_session_xref", "xref", "lower", 0.20},
	{"batch_session_xref", "xref", "lower", 0.25},
	{"page_fetch_p50_xref", "xref", "lower", 0.15},
	{"upload_p50_xref", "xref", "lower", 0.25},
	{"batch_p50_xref", "xref", "lower", 0.20},
	{"results_raw_p50_xref", "xref", "lower", 0.25},
	{"results_qc_p50_xref", "xref", "lower", 0.25},
	{"wire_bytes_per_session", "B", "lower", 0.01},
	{"heap_bytes_per_session", "B", "lower", 0.02},
}

// wallClock are the same pass's values in wall-clock units, printed beside
// the metrics for the reader and carrying no bound: on this host they
// follow the neighbours (README.md, "Steadiness").
var wallClock = []metricDef{
	{"ref_session_ms", "ms", "", 0},
	{"sessions_per_s", "1/s", "", 0},
	{"batch_sessions_per_s", "1/s", "", 0},
	{"page_fetch_p50_ms", "ms", "", 0},
	{"upload_p50_ms", "ms", "", 0},
	{"batch_p50_ms", "ms", "", 0},
	{"results_raw_p50_ms", "ms", "", 0},
	{"results_qc_p50_ms", "ms", "", 0},
}

// demotedTails are tail latencies (wall-clock ms) the end-to-end pass still
// measures and prints but that carry no bound: on this shared box ten runs
// of the same code spread them wider than any bound the contract allows
// (README.md, "Steadiness"). The per-layer pass reports them as tail.<name>.
var demotedTails = []string{"page_fetch_p99_ms", "upload_p99_ms", "batch_p90_ms", "results_qc_p90_ms"}

// perLayer are the single-layer metrics of the traced pass and the direct
// pass. They carry no bound; README.md says which end-to-end metric each
// should move, on which workload.
var perLayer = []metricDef{
	{"shard.router_self_us.page", "us", "lower", 0},
	{"shard.router_self_us.upload", "us", "lower", 0},
	{"shard.router_self_us.batch", "us", "lower", 0},
	{"shard.router_self_us.results_raw", "us", "lower", 0},
	{"shard.router_self_us.results_qc", "us", "lower", 0},
	{"shard.hop_us.page", "us", "lower", 0},
	{"shard.hop_us.upload", "us", "lower", 0},
	{"shard.upstream_calls_per_req.batch", "count", "lower", 0},
	{"shard.upstream_calls_per_req.results_raw", "count", "lower", 0},
	{"shard.upstream_calls_per_req.results_qc", "count", "lower", 0},
	{"shard.upstream_bytes_per_req.results_qc", "B", "lower", 0},
	{"shard.proxy_retries", "count", "lower", 0},
	{"shard.ring_owner_ns", "ns", "lower", 0},

	{"server.handle_self_us.page", "us", "lower", 0},
	{"server.handle_self_us.upload", "us", "lower", 0},
	{"server.handle_self_us.batch", "us", "lower", 0},
	{"server.handle_self_us.results_raw", "us", "lower", 0},
	{"server.handle_self_us.results_qc", "us", "lower", 0},
	{"server.results_cold_us", "us", "lower", 0},
	{"server.decode_validate_us", "us", "lower", 0},
	{"server.conclude_uploads_200_us", "us", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.accum_rebuilds", "count", "lower", 0},
	{"server.page_bytes_per_fetch", "B", "lower", 0},
	{"earlystop.fold_us", "us", "lower", 0},
	{"earlystop.folds_per_session", "count", "lower", 0},
	{"quality.extract_features_us", "us", "lower", 0},
	{"guard.admit_release_ns", "ns", "lower", 0},
	{"guard.queued", "count", "lower", 0},
	{"obs.middleware_us", "us", "lower", 0},

	{"store.wal_write_us.upload", "us", "lower", 0},
	{"store.wal_write_us.batch", "us", "lower", 0},
	{"store.fsync_us.upload", "us", "lower", 0},
	{"store.fsync_us.batch", "us", "lower", 0},
	{"store.fsyncs_per_session.upload", "count", "lower", 0},
	{"store.fsyncs_per_session.batch", "count", "lower", 0},
	{"store.wal_bytes_per_session", "B", "lower", 0},
	{"store.insert_unique_us", "us", "lower", 0},
	{"store.insert_batch100_us", "us", "lower", 0},
	{"store.find_eq_200_us", "us", "lower", 0},
	{"store.blob_get_dir_us", "us", "lower", 0},
	{"store.blob_get_mem_us", "us", "lower", 0},

	{"replica.ship_us.upload", "us", "lower", 0},
	{"replica.ship_us.batch", "us", "lower", 0},
	{"replica.link_rtt_us", "us", "lower", 0},
	{"replica.follower_handle_us", "us", "lower", 0},
	{"replica.follower_fsync_us", "us", "lower", 0},
	{"replica.posts_per_session.upload", "count", "lower", 0},
	{"replica.posts_per_session.batch", "count", "lower", 0},
	{"replica.bytes_shipped_per_session", "B", "lower", 0},

	{"net.client_hop_us.page", "us", "lower", 0},
	{"net.client_hop_us.upload", "us", "lower", 0},
	{"process.cpu_us_per_session.flow", "us", "lower", 0},
	{"process.cpu_us_per_session.batch", "us", "lower", 0},
	{"process.allocs_per_session.flow", "count", "lower", 0},
	{"process.allocs_per_session.batch", "count", "lower", 0},
	{"process.alloc_bytes_per_session.flow", "B", "lower", 0},
	{"process.alloc_bytes_per_session.batch", "B", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"aggregator.prepare_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},

	{"tail.page_fetch_p99_ms", "ms", "lower", 0},
	{"tail.upload_p99_ms", "ms", "lower", 0},
	{"tail.batch_p90_ms", "ms", "lower", 0},
	{"tail.results_qc_p90_ms", "ms", "lower", 0},
}
