package main

// A budget splits a workload's mean call time into the layers that spent
// it. Each row is a difference of two means measured at neighbouring
// layer boundaries, weighted by the share of calls that crossed the
// boundary (a cache hit never reaches netd), so the rows telescope: they
// sum to the end-to-end mean by construction. The one row measured
// separately is the OS floor; where the bare ping-pong costs more than
// what is left for the netd path (under load a busy peer answers faster
// than an idle one wakes), the netd path is clamped at zero and the
// difference is reported as the residual rather than hidden.
type budgetInput struct {
	observedUs float64  // load generator: mean send→done of every call
	invoke     latDelta // client subcontract's invoke histogram
	rtt        latDelta // client netd: forward → reply
	serve      latDelta // server netd(serve): the exported door call
	queue      latDelta // server dispatch queue delay (queued calls only)
	floorUs    float64  // mean bare ping-pong, this workload's sizes and transport
}

type budgetRows struct {
	loadgenStub, subcontract, netdPath, osFloor, dispatchWait, handler float64
	residual                                                           float64
}

// budgetRowNames are the rows in call-path order; row x is reported as
// budget.x_us and budget.x_share.
var budgetRowNames = []string{"loadgen_stub", "subcontract", "netd_path", "os_floor", "dispatch_wait", "handler"}

func (r budgetRows) values() []float64 {
	return []float64{r.loadgenStub, r.subcontract, r.netdPath, r.osFloor, r.dispatchWait, r.handler}
}

func (in budgetInput) rows() budgetRows {
	calls := in.invoke.n
	var r budgetRows
	r.loadgenStub = in.observedUs - in.invoke.meanUs
	r.subcontract = in.invoke.meanUs - ratio(in.rtt.sumUs, calls)
	r.osFloor = ratio(in.rtt.n, calls) * in.floorUs
	r.dispatchWait = ratio(in.queue.sumUs, calls)
	r.handler = ratio(in.serve.sumUs, calls)
	r.netdPath = ratio(in.rtt.sumUs, calls) - r.handler - r.dispatchWait - r.osFloor
	if r.netdPath < 0 {
		r.residual = r.netdPath
		r.netdPath = 0
	}
	return r
}

// layerFigures fills m with every scrape-sourced per-layer metric and
// the budget rows of one untraced, scraped window.
func layerFigures(m map[string]float64, w *workload, t *timed, srv serverDelta, cli clientDelta, floorMeanUs float64) {
	var service dist
	service.add(&t.win.service)
	f := t.win.figures()
	secs := t.after.at.Sub(t.before.at).Seconds()

	invoke := cli.lat(w.subcontract)
	rtt := cli.lat("netd")
	serve := srv.lat("netd(serve)")
	queue := srv.lat("dispatch.queue_delay")
	calls := invoke.n // calls the program itself counted inside the window

	m["os.server_cpu_us_per_call"] = ratio((t.after.serverCPU-t.before.serverCPU)*1e6, calls)
	m["os.client_cpu_us_per_call"] = ratio((t.after.clientCPU-t.before.clientCPU)*1e6, calls)
	m["os.server_vol_ctxsw_per_call"] = ratio(float64(t.after.serverSw-t.before.serverSw), calls)
	m["os.client_vol_ctxsw_per_call"] = ratio(float64(t.after.clientSw-t.before.clientSw), calls)

	m["subcontracts.invoke_mean_us"] = invoke.meanUs
	m["subcontracts.invoke_p99_us"] = invoke.p99Us

	m["netd.client_rtt_mean_us"] = rtt.meanUs
	m["netd.client_rtt_p99_us"] = rtt.p99Us
	m["netd.serve_mean_us"] = serve.meanUs
	m["netd.serve_p99_us"] = serve.p99Us
	m["netd.client_frames_per_flush"] = ratio(cli.gauge("netd.frames_coalesced"), cli.gauge("netd.flushes"))
	m["netd.server_frames_per_flush"] = ratio(srv.counter("netd_frames_coalesced_total"), srv.counter("netd_flushes_total"))
	m["netd.bulk_grants_per_call"] = ratio(cli.gauge("netd.bulk_granted")+srv.counter("netd_bulk_granted_total"), calls)
	m["netd.bulk_reclaimed"] = cli.gauge("netd.bulk_reclaimed") + srv.counter("netd_bulk_reclaimed_total")

	inline := srv.counter("dispatch_inline_hits_total")
	shed := srv.counter("dispatch_shed_total")
	m["dispatch.inline_share"] = ratio(inline, inline+queue.n)
	m["dispatch.queue_delay_mean_us"] = queue.meanUs
	m["dispatch.queue_delay_p99_us"] = queue.p99Us
	m["dispatch.shed_share"] = ratio(shed, inline+queue.n+shed)
	m["dispatch.stolen_per_call"] = ratio(srv.counter("dispatch_stolen_total"), serve.n)

	syncs := srv.counter("wal_syncs_total")
	m["filesys.wal_records_per_sync"] = ratio(srv.counter("wal_appends_total"), syncs)
	m["filesys.wal_syncs_per_s"] = ratio(syncs, secs)
	m["filesys.wal_compactions"] = srv.counter("wal_compactions_total")

	csc := cli.b.subcontracts["caching"]
	csa := cli.a.subcontracts["caching"]
	hits, misses := float64(csc.Hits-csa.Hits), float64(csc.Misses-csa.Misses)
	m["cache.hit_share"] = ratio(hits, hits+misses)
	m["cache.miss_fill_mean_us"] = cli.hist("cache.miss_fill").meanUs
	m["cache.coalesced_share"] = ratio(float64(csc.Coalesced-csa.Coalesced), misses)
	m["cache.evictions"] = cli.gauge("cache.evictions")

	var lag dist
	lag.add(&t.win.lag)
	m["loadgen.sched_lag_p99_us"] = lag.quantile(0.99) / 1e3
	m["loadgen.sched_lag_share"] = t.win.schedLagShare()
	m["loadgen.inflight_max"] = float64(t.win.inflightMax.Load())
	m["loadgen.client_allocs_per_call"] = ratio(float64(cli.b.mallocs-cli.a.mallocs), calls)
	m["loadgen.client_gc_pause_ms_per_s"] = ratio(float64(cli.b.gcPauseNs-cli.a.gcPauseNs)/1e6, secs)
	m["loadgen.samples"] = float64(f.samples)
	m["loadgen.payload_mb_per_s"] = f.payloadMBPerS
	m["loadgen.fail_share"] = ratio(float64(t.win.failed.Load()), float64(t.win.attempted.Load()))

	in := budgetInput{observedUs: service.mean() / 1e3, invoke: invoke, rtt: rtt, serve: serve, queue: queue, floorUs: floorMeanUs}
	r := in.rows()
	m["budget.mean_us"] = in.observedUs
	for i, us := range r.values() {
		m["budget."+budgetRowNames[i]+"_us"] = us
		m["budget."+budgetRowNames[i]+"_share"] = ratio(us, in.observedUs)
	}
	m["budget.residual_share"] = ratio(r.residual, in.observedUs)
}
