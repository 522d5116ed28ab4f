package server

import (
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// serverMetrics is the daemon's telemetry surface, served at
// GET /metrics in Prometheus text format. Counters are incremented at
// the same sites as the api.Stats counters (which remain the wire
// truth for /v1/stats); queue gauges read the live server state so the
// two views can never drift.
type serverMetrics struct {
	reg *telemetry.Registry

	submitted   *telemetry.Counter
	rejected    *telemetry.Counter
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	coalesced   *telemetry.Counter

	// jobs[outcome] counts terminal jobs by outcome label.
	jobs map[api.Status]*telemetry.Counter
	// sims[false]/sims[true] count individual simulations by failure.
	sims map[bool]*telemetry.Counter

	warmHits      *telemetry.Counter
	warmMisses    *telemetry.Counter
	warmServed    *telemetry.Counter
	warmInstalled *telemetry.Counter

	jobDur     *telemetry.Histogram
	simDur     *telemetry.Histogram
	restoreDur *telemetry.Histogram
}

// newServerMetrics registers every series up front so a scrape sees
// the full schema (zero-valued) before the first job arrives.
func newServerMetrics(s *Server, version string) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		submitted: reg.Counter("heatstroked_jobs_submitted_total",
			"Job submissions received (including cache hits and coalesced duplicates)."),
		rejected: reg.Counter("heatstroked_jobs_rejected_total",
			"Submissions rejected because the queue was full."),
		cacheHits: reg.Counter("heatstroked_cache_hits_total",
			"Submissions answered from the content-addressed result cache."),
		cacheMisses: reg.Counter("heatstroked_cache_misses_total",
			"Submissions that created a new job (no cached or in-flight result)."),
		coalesced: reg.Counter("heatstroked_singleflight_coalesced_total",
			"Submissions coalesced onto an identical in-flight job."),
		jobs: map[api.Status]*telemetry.Counter{},
		sims: map[bool]*telemetry.Counter{},
		warmHits: reg.Counter("heatstroked_warmup_cache_hits_total",
			"Warm records served from the persistent warmup cache."),
		warmMisses: reg.Counter("heatstroked_warmup_cache_misses_total",
			"Warmup-cache lookups that ran a fresh warmup instead."),
		warmServed: reg.Counter("heatstroked_warm_snapshots_served_total",
			"Warm records sent to fleet peers over GET /v1/warm/{key}."),
		warmInstalled: reg.Counter("heatstroked_warm_snapshots_installed_total",
			"Warm records installed from fleet peers over PUT /v1/warm/{key}."),
		jobDur: reg.Histogram("heatstroked_job_duration_seconds",
			"Wall time of executed jobs (queued-to-terminal, excluding cache hits).",
			telemetry.DefLatencyBuckets),
		simDur: reg.Histogram("heatstroked_sim_duration_seconds",
			"Wall time of individual simulations inside sweeps.",
			telemetry.DefLatencyBuckets),
		restoreDur: reg.Histogram("heatstroked_warmup_restore_seconds",
			"Time to restore a simulation from shared warm records.",
			telemetry.DefLatencyBuckets),
	}
	for _, st := range []api.Status{api.StatusDone, api.StatusFailed, api.StatusCanceled} {
		m.jobs[st] = reg.Counter("heatstroked_jobs_total",
			"Jobs reaching a terminal state, by outcome.",
			telemetry.L("outcome", string(st)))
	}
	m.sims[false] = reg.Counter("heatstroked_sims_total",
		"Individual simulations finished inside sweeps, by outcome.",
		telemetry.L("outcome", "ok"))
	m.sims[true] = reg.Counter("heatstroked_sims_total",
		"Individual simulations finished inside sweeps, by outcome.",
		telemetry.L("outcome", "error"))
	reg.Gauge("heatstroked_build_info",
		"Build metadata; the value is always 1.",
		telemetry.L("version", version)).Set(1)
	reg.GaugeFunc("heatstroked_queue_depth",
		"Jobs waiting for a run slot.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queued)
		})
	reg.GaugeFunc("heatstroked_jobs_in_flight",
		"Sweeps currently running.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.running)
		})
	reg.GaugeFunc("heatstroked_jobs_tracked",
		"Job entries held in memory (cache plus queue plus running).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	// Tracer counters read the tracer's atomics at exposition time
	// (nil-safe: both report 0 with tracing disabled).
	reg.CounterFunc("heatstroked_trace_spans_total",
		"Spans recorded into the trace flight-recorder buffer.",
		func() uint64 { return s.tracer.Recorded() })
	reg.CounterFunc("heatstroked_trace_spans_dropped_total",
		"Oldest spans evicted from the bounded trace buffer on overflow.",
		func() uint64 { return s.tracer.Dropped() })
	return m
}

// finishJob records a terminal outcome and its duration.
func (m *serverMetrics) finishJob(st api.Status, seconds float64) {
	if c, ok := m.jobs[st]; ok {
		c.Inc()
	}
	m.jobDur.Observe(seconds)
}

// observeSim records one simulation finishing inside a sweep.
func (m *serverMetrics) observeSim(seconds float64, failed bool) {
	m.sims[failed].Inc()
	m.simDur.Observe(seconds)
}

// observeRestore records one warm-snapshot restore (fed to experiment
// runs as Options.OnRestore).
func (m *serverMetrics) observeRestore(seconds float64) {
	m.restoreDur.Observe(seconds)
}
