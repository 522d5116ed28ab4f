package fleet

import (
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
)

// fleetMetrics is the coordinator's own telemetry, served at the head
// of GET /metrics before the label-injected per-worker expositions
// (see promerge.go). The counters are also the source of truth for
// the FleetStats wire type — one set of numbers, two renderings.
type fleetMetrics struct {
	reg *telemetry.Registry

	submitted   *telemetry.Counter
	cacheHits   *telemetry.Counter
	coalesced   *telemetry.Counter
	retries     *telemetry.Counter
	hedges      *telemetry.Counter
	hedgeWins   *telemetry.Counter
	warmShipped *telemetry.Counter

	dispatchDur *telemetry.Histogram
}

func newFleetMetrics(c *Coordinator) *fleetMetrics {
	reg := telemetry.NewRegistry()
	m := &fleetMetrics{
		reg: reg,
		submitted: reg.Counter("fleet_jobs_submitted_total",
			"Job submissions received at the coordinator edge."),
		cacheHits: reg.Counter("fleet_cache_hits_total",
			"Submissions answered from the coordinator's completed-job cache."),
		coalesced: reg.Counter("fleet_singleflight_coalesced_total",
			"Submissions coalesced onto an identical in-flight fleet job."),
		retries: reg.Counter("fleet_dispatch_retries_total",
			"Dispatch attempts re-issued to another worker after a failure."),
		hedges: reg.Counter("fleet_hedges_total",
			"Straggler jobs speculatively duplicated onto a second replica."),
		hedgeWins: reg.Counter("fleet_hedge_wins_total",
			"Hedged duplicates that finished before the primary."),
		warmShipped: reg.Counter("fleet_warm_snapshots_shipped_total",
			"Warm records copied to a worker ahead of a dispatch."),
		dispatchDur: reg.Histogram("fleet_dispatch_duration_seconds",
			"Wall time from dispatch to a worker until its terminal result.",
			telemetry.DefLatencyBuckets),
	}
	reg.GaugeFunc("fleet_workers",
		"Workers currently registered with the coordinator.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.workers))
		})
	reg.GaugeFunc("fleet_workers_healthy",
		"Registered workers whose last poll succeeded.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, w := range c.workers {
				if w.isHealthy() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("fleet_jobs_tracked",
		"Fleet job entries held in memory (cache plus in flight).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.jobs))
		})
	// Tracer counters read the tracer's atomics at exposition time
	// (nil-safe: both report 0 with tracing disabled).
	reg.CounterFunc("fleet_trace_spans_total",
		"Spans recorded into the coordinator's trace flight-recorder buffer.",
		func() uint64 { return c.tracer.Recorded() })
	reg.CounterFunc("fleet_trace_spans_dropped_total",
		"Oldest spans evicted from the bounded trace buffer on overflow.",
		func() uint64 { return c.tracer.Dropped() })
	return m
}
