package main

// The metric tables: every name the benchmark prints, with its unit and
// the direction in which it is better. BENCHMARK.json carries the same
// tables (a test keeps the two in step) plus, for the end-to-end
// metrics, the bound by which a later change may worsen each before it
// counts as a regression.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// candidateDefs are the figures of one untraced window that a user of the
// system sees, one value per workload. Those A/A found steady on every
// workload are the end-to-end metrics; the others are in demoted.
var candidateDefs = []metricDef{
	{"setup_s", "s", "lower"},          // server fork → roots imported → files preloaded → warm-up done; median of the run's set-ups
	{"calls_per_s", "1/s", "higher"},   // completed and verified calls per second, median over 1 s slices
	{"p50_us", "us", "lower"},          // client-observed latency, median over slices of the slice's median; open loop: from the call's due time
	{"p99_us", "us", "lower"},          // median over slices of the slice's p99
	{"cpu_us_per_call", "us", "lower"}, // Δ(utime+stime) of server + load generator over the window ÷ verified calls
	{"x_floor", "ratio", "lower"},      // p50_us ÷ p50 of a bare ping-pong, same sizes and transport, against a child process
	{"server_rss_mb", "MB", "lower"},   // server VmHWM at the end of the window
}

// demoted names the candidates that an A/A pass found too unsteady to gate:
// the run-to-run spread (interquartile range ÷ median of ten runs with ten
// seeds) exceeded keepSpread on at least one workload, and a bound is one
// number per metric for all workloads. A bound wide enough to hold such a
// metric would gate nothing, so it is reported as the per-layer metric
// loadgen.<name> instead, from the untraced window of the traced run, and
// carries no bound. The worst spread each showed in three A/A passes
// (2026-09-25, a shared two-vCPU virtual machine whose speed drifts by
// 10–25 % over minutes; every one of the five was over the line in every
// pass):
var demoted = map[string]bool{
	"calls_per_s":     true, // 19.4 % on cached_read_c2
	"p50_us":          true, // 27.3 % on cached_read_c2
	"p99_us":          true, // 25.8 % on bulk_mixed_c8
	"cpu_us_per_call": true, // 20.2 % on cached_read_c2
	"x_floor":         true, // 30.7 % on null_c1
}

// endToEndDefs are the candidates that are gated; perLayerDefs is
// layerDefs plus the demoted candidates.
var endToEndDefs, perLayerDefs = func() (gated, layers []metricDef) {
	layers = append(layers, layerDefs...)
	for _, d := range candidateDefs {
		if demoted[d.name] {
			layers = append(layers, metricDef{"loadgen." + d.name, d.unit, d.better})
		} else {
			gated = append(gated, d)
		}
	}
	return gated, layers
}()

// layerDefs are single layers' figures, all taken from outside the
// program: probe = the benchmark times the layer's public functions in
// its own process; scrape = deltas of the program's own always-on
// counters and histograms over the window; trace = self time of the
// program's existing spans in the traced window.
var layerDefs = []metricDef{
	// os: floors and the kernel's accounting — not our code, but the
	// denominators everything else is read against.
	{"os.tcp_pingpong_p50_us", "us", "lower"},
	{"os.unix_pingpong_p50_us", "us", "lower"},
	{"os.unix_pingpong_64k_p50_us", "us", "lower"},
	{"os.fsync_1k_p50_us", "us", "lower"},
	{"os.server_cpu_us_per_call", "us", "lower"},
	{"os.client_cpu_us_per_call", "us", "lower"},
	{"os.server_vol_ctxsw_per_call", "count", "lower"},
	{"os.client_vol_ctxsw_per_call", "count", "lower"},
	// buffer, kernel, stubs+core+subcontracts, filesys, cache, dispatch: probes.
	{"buffer.roundtrip_1k_ns", "ns", "lower"},
	{"buffer.roundtrip_64k_ns", "ns", "lower"},
	{"kernel.door_call_ns", "ns", "lower"},
	{"stubs.local_version_ns", "ns", "lower"},
	{"stubs.local_read_1k_ns", "ns", "lower"},
	{"filesys.local_write_1k_ns", "ns", "lower"},
	{"filesys.wal_write_c1_p50_us", "us", "lower"},
	{"cache.local_hit_ns", "ns", "lower"},
	{"dispatch.submit_run_ns", "ns", "lower"},
	// subcontracts, netd, dispatch, filesys, cache: scrapes.
	{"subcontracts.invoke_mean_us", "us", "lower"},
	{"subcontracts.invoke_p99_us", "us", "lower"},
	{"netd.client_rtt_mean_us", "us", "lower"},
	{"netd.client_rtt_p99_us", "us", "lower"},
	{"netd.serve_mean_us", "us", "lower"},
	{"netd.serve_p99_us", "us", "lower"},
	{"netd.client_frames_per_flush", "ratio", "higher"},
	{"netd.server_frames_per_flush", "ratio", "higher"},
	{"netd.bulk_grants_per_call", "ratio", "higher"},
	{"netd.bulk_reclaimed", "count", "lower"},
	{"dispatch.inline_share", "share", "higher"},
	{"dispatch.queue_delay_mean_us", "us", "lower"},
	{"dispatch.queue_delay_p99_us", "us", "lower"},
	{"dispatch.shed_share", "share", "lower"},
	{"dispatch.stolen_per_call", "ratio", "lower"},
	{"filesys.wal_records_per_sync", "ratio", "higher"},
	{"filesys.wal_syncs_per_s", "1/s", "lower"},
	{"filesys.wal_compactions", "count", "lower"},
	{"cache.hit_share", "share", "higher"},
	{"cache.miss_fill_mean_us", "us", "lower"},
	{"cache.coalesced_share", "share", "higher"},
	{"cache.evictions", "count", "lower"},
	{"naming.import_root_ms", "ms", "lower"},
	// trace: self times, and what tracing itself costs.
	{"trace.loadgen_call_self_us", "us", "lower"},
	{"trace.invoke_self_us", "us", "lower"},
	{"trace.netd_send_self_us", "us", "lower"},
	{"trace.dispatch_wait_self_us", "us", "lower"},
	{"trace.serve_self_us", "us", "lower"},
	{"trace.skeleton_self_us", "us", "lower"},
	{"trace.cache_miss_self_us", "us", "lower"},
	{"trace.traces_sampled", "count", "higher"},
	{"trace.overhead_share", "share", "lower"},
	// loadgen: the benchmark's own validity, and the two figures that
	// cannot be end-to-end metrics under the contract (one is 0 on
	// null_c1, the other is 0 whenever the run is correct).
	{"loadgen.setup_work_ms", "ms", "lower"}, // server fork → files preloaded: setup_s without its fixed warm-up time
	{"loadgen.sched_lag_p99_us", "us", "lower"},
	{"loadgen.sched_lag_share", "share", "lower"}, // ÷ p50_us; the issue's validity guard is 0.10
	{"loadgen.inflight_max", "count", "lower"},
	{"loadgen.sat_calls_per_s", "1/s", "higher"},
	{"loadgen.client_allocs_per_call", "count", "lower"},
	{"loadgen.client_gc_pause_ms_per_s", "ms/s", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"loadgen.payload_mb_per_s", "MB/s", "higher"},
	{"loadgen.fail_share", "share", "lower"},
	// budget: where the mean call's microseconds went.
	{"budget.mean_us", "us", "lower"},
	{"budget.loadgen_stub_us", "us", "lower"},
	{"budget.loadgen_stub_share", "share", "lower"},
	{"budget.subcontract_us", "us", "lower"},
	{"budget.subcontract_share", "share", "lower"},
	{"budget.netd_path_us", "us", "lower"},
	{"budget.netd_path_share", "share", "lower"},
	{"budget.os_floor_us", "us", "lower"},
	{"budget.os_floor_share", "share", "lower"},
	{"budget.dispatch_wait_us", "us", "lower"},
	{"budget.dispatch_wait_share", "share", "lower"},
	{"budget.handler_us", "us", "lower"},
	{"budget.handler_share", "share", "lower"},
	{"budget.residual_share", "share", "lower"},
}
