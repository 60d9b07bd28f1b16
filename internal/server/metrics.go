package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"aimes"
)

// metrics is the daemon's hand-rolled Prometheus registry: per-tenant job
// counters, a sliding completion-rate window, SSE drop accounting, and —
// rendered live at scrape time — the environment's per-shard load and
// work-stealing telemetry. No dependency on any client library; render
// emits the text exposition format directly.
type metrics struct {
	start time.Time

	mu      sync.Mutex
	tenants map[string]*tenantCounters
	// window holds recent job-completion timestamps; jobs/s is the count
	// inside the trailing rateWindow.
	window []time.Time

	sseJobDropped int64 // job-stream SSE events lost (ring gaps + slow subscribers)
	sseEnvDropped int64 // env-stream records lost (Subscribe buffer + slow subscribers)
}

type tenantCounters struct {
	submitted     int64
	completed     int64
	failed        int64
	canceled      int64
	rejected      int64 // quota 429s
	eventsDropped int64 // per-job bounded-buffer drops, accumulated at completion
}

const rateWindow = 60 * time.Second

func newMetrics() *metrics {
	return &metrics{start: time.Now(), tenants: make(map[string]*tenantCounters)}
}

func (m *metrics) tenant(name string) *tenantCounters {
	tc := m.tenants[name]
	if tc == nil {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

func (m *metrics) submitted(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenant(tenant).submitted++
}

func (m *metrics) rejected(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenant(tenant).rejected++
}

// finished records a job reaching its terminal state.
func (m *metrics) finished(tenant string, state aimes.JobState, eventsDropped int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc := m.tenant(tenant)
	switch state {
	case aimes.JobDone:
		tc.completed++
	case aimes.JobFailed:
		tc.failed++
	case aimes.JobCanceled:
		tc.canceled++
	}
	tc.eventsDropped += eventsDropped
	now := time.Now()
	m.window = append(m.window, now)
	m.pruneLocked(now)
}

func (m *metrics) pruneLocked(now time.Time) {
	cut := 0
	for cut < len(m.window) && now.Sub(m.window[cut]) > rateWindow {
		cut++
	}
	if cut > 0 {
		m.window = append(m.window[:0], m.window[cut:]...)
	}
}

func (m *metrics) addSSEDropped(stream string, n int64) {
	if n == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if stream == "env" {
		m.sseEnvDropped += n
	} else {
		m.sseJobDropped += n
	}
}

// render writes the full exposition. env supplies live per-shard state and
// steal counters; inflight is the registry's live-job count per tenant.
func (m *metrics) render(w io.Writer, env *aimes.Environment, inflight map[string]int) {
	m.mu.Lock()
	now := time.Now()
	m.pruneLocked(now)
	rate := float64(len(m.window)) / rateWindow.Seconds()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	snap := make(map[string]tenantCounters, len(names))
	for _, name := range names {
		snap[name] = *m.tenants[name]
	}
	jobDropped, envDropped := m.sseJobDropped, m.sseEnvDropped
	uptime := now.Sub(m.start).Seconds()
	m.mu.Unlock()

	counter := func(metric, help string, value func(tenantCounters) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
		for _, name := range names {
			fmt.Fprintf(w, "%s{tenant=\"%s\"} %d\n", metric, labelEscape(name), value(snap[name]))
		}
	}

	fmt.Fprintf(w, "# HELP aimes_uptime_seconds Daemon uptime.\n# TYPE aimes_uptime_seconds gauge\naimes_uptime_seconds %g\n", uptime)

	counter("aimes_jobs_submitted_total", "Jobs admitted, per tenant.", func(c tenantCounters) int64 { return c.submitted })
	counter("aimes_jobs_completed_total", "Jobs finished successfully, per tenant.", func(c tenantCounters) int64 { return c.completed })
	counter("aimes_jobs_failed_total", "Jobs that failed, per tenant.", func(c tenantCounters) int64 { return c.failed })
	counter("aimes_jobs_canceled_total", "Jobs canceled, per tenant.", func(c tenantCounters) int64 { return c.canceled })
	counter("aimes_jobs_rejected_total", "Submissions rejected at admission (quota), per tenant.", func(c tenantCounters) int64 { return c.rejected })
	counter("aimes_job_events_dropped_total", "Per-job event-buffer drops accumulated at completion, per tenant.", func(c tenantCounters) int64 { return c.eventsDropped })

	fmt.Fprintf(w, "# HELP aimes_jobs_inflight Live (non-final) jobs, per tenant.\n# TYPE aimes_jobs_inflight gauge\n")
	for _, name := range names {
		fmt.Fprintf(w, "aimes_jobs_inflight{tenant=\"%s\"} %d\n", labelEscape(name), inflight[name])
	}

	fmt.Fprintf(w, "# HELP aimes_jobs_per_second Job completions per second over the trailing %s.\n# TYPE aimes_jobs_per_second gauge\naimes_jobs_per_second %g\n", rateWindow, rate)

	loads := env.Loads()
	shardGauge := func(metric, help string, value func(aimes.ShardLoad) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
		for _, l := range loads {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %s\n", metric, l.Shard, value(l))
		}
	}
	shardGauge("aimes_shard_running", "Enacted, unfinished jobs per shard.",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%d", l.Running) })
	shardGauge("aimes_shard_queue_depth", "Jobs queued awaiting admission per shard.",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%d", l.Queued) })
	shardGauge("aimes_shard_effective_load_seconds", "Weighted effective load per shard (estimated seconds to drain).",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%g", l.Load) })
	shardGauge("aimes_shard_admission_window", "Admission window per shard: the constant 4 with work stealing, 0 without.",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%d", l.Window) })

	steal := env.StealStats()
	fmt.Fprintf(w, "# HELP aimes_steal_migrations_total Queued jobs migrated across shards by work stealing.\n# TYPE aimes_steal_migrations_total counter\naimes_steal_migrations_total %d\n", steal.Migrations)
	fmt.Fprintf(w, "# HELP aimes_steal_vetoed_total Migrations the pending-cost margin refused under the submission lock.\n# TYPE aimes_steal_vetoed_total counter\naimes_steal_vetoed_total %d\n", steal.Vetoed)
	fmt.Fprintf(w, "# HELP aimes_steal_foreign_pumps_total Pump batches run on behalf of other shards' jobs.\n# TYPE aimes_steal_foreign_pumps_total counter\naimes_steal_foreign_pumps_total %d\n", steal.ForeignPumps)

	fleet := env.Fleet()
	fmt.Fprintf(w, "# HELP aimes_worker_restarts_total Worker respawns placed across the fleet.\n# TYPE aimes_worker_restarts_total counter\naimes_worker_restarts_total %d\n", fleet.Restarts)
	fmt.Fprintf(w, "# HELP aimes_jobs_replayed_total Queued descriptors replayed onto respawned workers.\n# TYPE aimes_jobs_replayed_total counter\naimes_jobs_replayed_total %d\n", fleet.Replayed)
	if len(fleet.Endpoints) > 0 {
		bit := func(b bool) int {
			if b {
				return 1
			}
			return 0
		}
		fmt.Fprintf(w, "# HELP aimes_endpoint_unhealthy Whether the fleet endpoint's last dial or liveness probe failed.\n# TYPE aimes_endpoint_unhealthy gauge\n")
		for _, ep := range fleet.Endpoints {
			fmt.Fprintf(w, "aimes_endpoint_unhealthy{endpoint=\"%s\"} %d\n", labelEscape(ep.Name), bit(ep.Unhealthy))
		}
		fmt.Fprintf(w, "# HELP aimes_endpoint_cordoned Whether the fleet endpoint is cordoned against placements.\n# TYPE aimes_endpoint_cordoned gauge\n")
		for _, ep := range fleet.Endpoints {
			fmt.Fprintf(w, "aimes_endpoint_cordoned{endpoint=\"%s\"} %d\n", labelEscape(ep.Name), bit(ep.Cordoned))
		}
		fmt.Fprintf(w, "# HELP aimes_endpoint_shards Live worker shards hosted per fleet endpoint.\n# TYPE aimes_endpoint_shards gauge\n")
		for _, ep := range fleet.Endpoints {
			fmt.Fprintf(w, "aimes_endpoint_shards{endpoint=\"%s\"} %d\n", labelEscape(ep.Name), ep.Shards)
		}
		fmt.Fprintf(w, "# HELP aimes_endpoint_probe_failures_total Failed liveness probes per fleet endpoint.\n# TYPE aimes_endpoint_probe_failures_total counter\n")
		for _, ep := range fleet.Endpoints {
			fmt.Fprintf(w, "aimes_endpoint_probe_failures_total{endpoint=\"%s\"} %d\n", labelEscape(ep.Name), ep.ProbeFailures)
		}
	}

	fmt.Fprintf(w, "# HELP aimes_sse_dropped_total Events lost to SSE subscribers (replay-ring gaps and slow consumers), by stream kind.\n# TYPE aimes_sse_dropped_total counter\n")
	fmt.Fprintf(w, "aimes_sse_dropped_total{stream=\"job\"} %d\n", jobDropped)
	fmt.Fprintf(w, "aimes_sse_dropped_total{stream=\"env\"} %d\n", envDropped)
}

// labelEscape escapes a Prometheus label value (backslash, quote, newline).
// Tenant names are already restricted to a safe alphabet; this is defense
// in depth.
func labelEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
