package main

import (
	"fmt"
	"math"
)

// perLayerMetrics are the metrics of a traced run; BENCHMARK.json lists the
// same names and units. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayerMetrics = []metricDef{
	{"aimes.submit_us_p50", "us"},
	{"aimes.trace_records_per_job", "count"},
	{"aimes.events_per_job", "count"},
	{"aimes.events_dropped", "count"},
	{"aimes.self_cpu_us_per_job", "us"},
	{"backend.enact_us_p50", "us"},
	{"backend.step_us_per_job", "us"},
	{"backend.ns_per_event", "ns"},
	{"backend.events_per_job", "count"},
	{"backend.steps_per_job", "count"},
	{"backend.wire_enact_us_p50", "us"},
	{"backend.roundtrip_us_p50", "us"},
	{"backend.roundtrips_per_job", "count"},
	{"backend.wire_bytes_out_per_job", "B"},
	{"backend.wire_bytes_in_per_job", "B"},
	{"backend.worker_cpu_ms_per_job", "ms"},
	{"trace.records_per_job", "count"},
	{"trace.span_algebra_us_per_job", "us"},
	{"core.derive_us_p50", "us"},
	{"pilot.units_per_job", "count"},
	{"pilot.pilots_active_per_job", "count"},
	{"pilot.unit_restarts_per_job", "count"},
	{"netsim.transfers_per_job", "count"},
	{"netsim.mb_per_job", "MB"},
	{"shard.migrations", "count"},
	{"shard.vetoed", "count"},
	{"shard.foreign_pumps", "count"},
	{"shard.peak_window", "count"},
	{"shard.busiest_share", "ratio"},
	{"model.rel_error_mean", "ratio"},
	{"server.submit_ms_p50", "ms"},
	{"server.submit_ms_p99", "ms"},
	{"server.final_kb_per_job", "KB"},
	{"server.sse_events_per_job", "count"},
	{"server.sse_dropped", "count"},
	{"server.metrics_scrape_ms", "ms"},
	{"client.encode_us_p50", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_1k_jobs", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"harness.gen_lag_ms_p99", "ms"},
	{"harness.trace_overhead_frac", "ratio"},
}

// perLayer assembles the per-layer metrics of a traced run. Metrics a
// workload does not exercise read 0 and are listed in na with the reason;
// notes qualify values that were measured differently than named.
func perLayer(o options, r runner, pools [2][]*jobSpec, stream []*jobSpec, plain, traced []*segment, e2e map[string]float64, tr *tracer) (v map[string]float64, na, notes map[string]string, err error) {
	v = map[string]float64{}
	na = map[string]string{}
	notes = map[string]string{}
	var obs *observations
	daemon, isDaemon := r.(*daemonRun)
	if isDaemon {
		obs = &daemon.obs
		// The open-loop stream alternates over two replay shards.
		for i, js := range stream {
			pools[i%2] = append(pools[i%2], js)
		}
	} else {
		obs = &r.(*closedRun).obs
	}

	rp, err := replay(o.seed, pools, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	jobs := float64(max(rp.jobs, 1))
	simUs := mean(rp.enactUs) + us(rp.stepTotal)/jobs
	v["backend.enact_us_p50"] = percentile(rp.enactUs, 50)
	v["backend.step_us_per_job"] = us(rp.stepTotal) / jobs
	v["backend.ns_per_event"] = float64(rp.stepTotal) / float64(max(rp.events, 1))
	v["backend.events_per_job"] = float64(rp.events) / jobs
	v["backend.steps_per_job"] = float64(rp.steps) / jobs
	wjobs := float64(max(rp.wireJobs, 1))
	v["backend.wire_enact_us_p50"] = percentile(rp.wireEnactUs, 50)
	v["backend.roundtrip_us_p50"] = percentile(rp.pingUs, 50)
	v["backend.roundtrips_per_job"] = float64(rp.roundtrips) / wjobs
	v["backend.wire_bytes_out_per_job"] = float64(rp.wireOut) / wjobs
	v["backend.wire_bytes_in_per_job"] = float64(rp.wireIn) / wjobs
	v["backend.worker_cpu_ms_per_job"] = ms(rp.workerCPU) / wjobs
	v["trace.records_per_job"] = float64(rp.records) / jobs
	v["trace.span_algebra_us_per_job"] = rp.spanAlgUs / jobs
	v["core.derive_us_p50"] = percentile(rp.deriveUs, 50)
	v["netsim.transfers_per_job"] = float64(rp.transfers) / jobs
	v["netsim.mb_per_job"] = rp.bytesMoved / 1e6 / jobs

	// The workload itself, traced segments.
	tj := float64(max(obs.traceJobs, 1))
	v["aimes.trace_records_per_job"] = float64(obs.records) / float64(max(obs.recJobs, 1))
	v["aimes.events_per_job"] = float64(obs.events) / tj
	v["aimes.events_dropped"] = float64(obs.dropped)
	v["aimes.self_cpu_us_per_job"] = e2e["cpu_ms_per_job"]*1000 - simUs
	rj := float64(max(obs.reports, 1))
	v["pilot.units_per_job"] = float64(obs.units) / rj
	v["pilot.pilots_active_per_job"] = float64(obs.pilots) / rj
	v["pilot.unit_restarts_per_job"] = float64(obs.restarts) / rj
	v["shard.migrations"] = float64(obs.migrations)
	v["shard.vetoed"] = float64(obs.vetoed)
	v["shard.foreign_pumps"] = float64(obs.foreignPumps)
	v["shard.peak_window"] = float64(obs.peakWindow)
	v["shard.busiest_share"] = float64(max(obs.byShard[0], obs.byShard[1])) / float64(max(obs.byShard[0]+obs.byShard[1], 1))
	v["model.rel_error_mean"] = mean(obs.relErr)

	// Go runtime, untraced segments.
	var gc, busy float64
	var cycles uint64
	var peak uint64
	var plainJobs int
	for _, s := range plain {
		gc += s.gcCPU
		busy += s.busyCPU
		cycles += s.gcCycles
		peak = max(peak, s.heapPeak)
		plainJobs += s.jobs
	}
	v["runtime.gc_cpu_share"] = gc / math.Max(busy, 1e-9)
	v["runtime.gc_cycles_per_1k_jobs"] = float64(cycles) * 1000 / float64(max(plainJobs, 1))
	v["runtime.heap_peak_mb"] = float64(peak) / (1 << 20)

	var tcpu []float64
	for _, s := range traced {
		tcpu = append(tcpu, ms(s.cpuPerJob()))
	}
	v["harness.trace_overhead_frac"] = median(tcpu)/e2e["cpu_ms_per_job"] - 1

	serverOnly := "daemon-burst only: no HTTP on this path"
	if isDaemon {
		so := &daemon.srvObs
		if err := rp.encode(stream, tr); err != nil {
			return nil, nil, nil, err
		}
		v["server.submit_ms_p50"] = percentile(so.submitMs, 50)
		v["server.submit_ms_p99"] = tail99(so.submitMs, notes, "server.submit_ms_p99")
		v["server.final_kb_per_job"] = float64(so.finalBytes) / 1024 / float64(max(so.finalJobs, 1))
		v["server.sse_events_per_job"] = float64(so.sseEvents) / float64(max(so.sseJobs, 1))
		v["server.sse_dropped"] = float64(so.sseDropped)
		v["server.metrics_scrape_ms"] = median(so.scrapeMs)
		v["client.encode_us_p50"] = percentile(rp.encodeUs, 50)
		v["aimes.events_dropped"] = float64(so.jobsDropped)
		v["harness.gen_lag_ms_p99"] = tail99(daemon.lags, notes, "harness.gen_lag_ms_p99")
		na["aimes.submit_us_p50"] = "the daemon calls Environment.Submit inside its handler; see server.submit_ms_*"
	} else {
		v["aimes.submit_us_p50"] = percentile(tr.durations("aimes.Submit"), 50)
		for _, n := range []string{"server.submit_ms_p50", "server.submit_ms_p99", "server.final_kb_per_job",
			"server.sse_events_per_job", "server.sse_dropped", "server.metrics_scrape_ms", "client.encode_us_p50"} {
			na[n] = serverOnly
		}
		na["harness.gen_lag_ms_p99"] = "closed loop: no schedule to lag behind"
	}
	for _, d := range perLayerMetrics {
		if _, ok := na[d.name]; ok || math.IsNaN(v[d.name]) {
			v[d.name] = 0
		}
	}
	return v, na, notes, nil
}

// tail99 returns the 99th percentile of xs when at least 10 samples lie
// beyond it; otherwise the highest percentile that has them, noted in notes.
func tail99(xs []float64, notes map[string]string, name string) float64 {
	p, ok := highestTail(len(xs), 10)
	if !ok {
		notes[name] = fmt.Sprintf("only %d samples: maximum", len(xs))
		return percentile(xs, 100)
	}
	if p < 99 {
		notes[name] = fmt.Sprintf("only %d samples: p%g", len(xs), p)
		return percentile(xs, p)
	}
	return percentile(xs, 99)
}
