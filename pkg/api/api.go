// Package api defines the wire types of the heatstroked experiment
// daemon: job requests, job status, progress snapshots, and the
// experiment listing. Both the server (internal/server) and the typed
// client (pkg/client) speak these types, so the JSON encoding here is
// the protocol.
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/jobs                  submit a job; identical requests are
//	                                 content-addressed to one result
//	GET    /v1/jobs/{id}             status + summary
//	DELETE /v1/jobs/{id}             cancel a queued or running job
//	GET    /v1/jobs/{id}/artifact    rendered table (?format=table|json|csv)
//	GET    /v1/jobs/{id}/events      SSE progress stream
//	GET    /v1/experiments           experiment registry listing
//	GET    /v1/traces/{id}           the spans of one trace (trace id or
//	                                 job id; fleet-stitched on the
//	                                 coordinator)
//	GET    /v1/stats                 serving counters
//	GET    /v1/warm/{key}            warm record gob (fleet shipping)
//	PUT    /v1/warm/{key}            install a warm record
//	GET    /healthz, GET /readyz     liveness / readiness
//
// The fleet coordinator (internal/fleet, cmd/heatstroke-fleet) serves
// the same job surface except DELETE /v1/jobs/{id} (a fleet job cannot
// be canceled by a client), its own /v1/stats (FleetStats), no warm
// endpoints, and worker membership:
//
//	GET    /v1/workers               registered workers + health
//	POST   /v1/workers               register a worker {"url": ...}
//	DELETE /v1/workers?url=...       deregister a worker
package api

import (
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
)

// JobRequest describes one experiment run. Every field except
// Experiment is optional; omitted fields take the daemon's defaults.
// Two requests that resolve to the same parameters share one cache
// entry — and one in-flight simulation — regardless of how many
// clients submit them.
type JobRequest struct {
	// Experiment names one of the registry's experiments (see
	// GET /v1/experiments).
	Experiment string `json:"experiment"`
	// Benchmarks selects the SPEC-like workload subset (default: all).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Quantum overrides the per-run cycle count (0 = config default).
	Quantum int64 `json:"quantum,omitempty"`
	// Warmup overrides the unmeasured warmup prefix (0 = default).
	Warmup int64 `json:"warmup,omitempty"`
	// Scale overrides the thermal scale factor (0 = config default).
	Scale float64 `json:"scale,omitempty"`
	// Cores overrides the die's core count (0 = config default, which
	// is 1 for single-core experiments and what multi-core experiments
	// raise to 2). More than one core requires the grid solver.
	Cores int `json:"cores,omitempty"`
	// Solver overrides the thermal solver: "lumped" (single-core fast
	// path) or "grid" ("" = config default).
	Solver string `json:"solver,omitempty"`
	// Seed seeds workload generation. A present-but-zero seed is
	// honoured as literal seed 0; an absent seed means the config
	// default (the pointer distinguishes the two).
	Seed *int64 `json:"seed,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Progress is a live snapshot of a running job's sweep.
type Progress struct {
	// Completed / Total count the sweep's finished vs planned
	// simulations. Completed is monotonically non-decreasing.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// PeakTempK is the hottest sensor observation across completed
	// simulations so far (0 until the first one finishes).
	PeakTempK float64 `json:"peak_temp_k,omitempty"`
	// CyclesPerSec is the most recent simulation's speed.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// SimCycles is the total cycles simulated so far.
	SimCycles float64 `json:"sim_cycles,omitempty"`
}

// JobStatus is the server's view of one job.
type JobStatus struct {
	// ID is the job's content address: a digest of (experiment,
	// resolved config, seed, benchmarks, code version). Identical
	// requests get identical IDs.
	ID         string     `json:"id"`
	Experiment string     `json:"experiment"`
	Request    JobRequest `json:"request"`
	Status     Status     `json:"status"`
	// Cached is set on submit responses served from a completed cache
	// entry (no new simulation); Coalesced on submit responses joined
	// to an identical in-flight job.
	Cached    bool     `json:"cached,omitempty"`
	Coalesced bool     `json:"coalesced,omitempty"`
	Progress  Progress `json:"progress"`
	// Summary is the sweep's execution summary: complete for done
	// jobs, partial (rebuilt from progress events) for jobs cancelled
	// mid-flight.
	Summary *sweep.Summary `json:"summary,omitempty"`
	Error   string         `json:"error,omitempty"`
	// TraceID is the W3C trace id (32 hex chars) of the job's
	// distributed trace, resolvable at GET /v1/traces/{id}. Empty when
	// the serving node runs with tracing disabled.
	TraceID string `json:"trace_id,omitempty"`
}

// Trace is the GET /v1/traces/{id} response: every span of one trace
// known to the serving node, sorted by start time. On a fleet
// coordinator the set is stitched from the coordinator's own spans
// plus every reachable worker's.
type Trace struct {
	TraceID string         `json:"trace_id"`
	Spans   []tracing.Span `json:"spans"`
}

// ExperimentInfo is one registry entry of GET /v1/experiments.
type ExperimentInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description"`
	// Cores is the experiment's default die core count (0 for entries
	// that run no simulations); Solver names the thermal solver it runs
	// on by default ("lumped" or "grid").
	Cores  int    `json:"cores,omitempty"`
	Solver string `json:"solver,omitempty"`
}

// Stats are the daemon's serving counters (GET /v1/stats).
type Stats struct {
	// Submitted counts POST /v1/jobs requests accepted (including
	// cache hits and coalesced joins); Runs counts sweeps actually
	// started. Runs <= Submitted, and the gap is work saved.
	Submitted int64 `json:"submitted"`
	Runs      int64 `json:"runs"`
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected"` // 429 backpressure rejections
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Jobs      int   `json:"jobs"` // entries resident (cache + active)
	// Advertise is the address the daemon wants peers to reach it at
	// (the -advertise flag); empty when the daemon is not fleet-aware.
	Advertise string `json:"advertise,omitempty"`
	// WarmKeys lists the warm-record keys resident in the daemon's
	// warmup cache (memory or disk), so a fleet coordinator can
	// discover snapshot locations from a single stats poll instead of
	// probing /v1/warm/{key} per key.
	WarmKeys []string `json:"warm_keys,omitempty"`
}

// WorkerRegistration is the body of the coordinator's
// POST /v1/workers: one worker joining (or rejoining) the fleet.
type WorkerRegistration struct {
	// URL is the worker's base URL as the coordinator should dial it.
	URL string `json:"url"`
}

// WorkerInfo is the coordinator's view of one registered worker
// (GET /v1/workers, and embedded per-worker in FleetStats).
type WorkerInfo struct {
	URL string `json:"url"`
	// Name labels the worker in aggregated metrics and logs: the
	// worker's advertised address when it reports one, else URL.
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	// Stats is the worker's own /v1/stats snapshot from the last
	// successful poll (nil before the first one succeeds).
	Stats *Stats `json:"stats,omitempty"`
}

// FleetStats are the coordinator's serving counters plus every
// worker's latest stats (coordinator GET /v1/stats).
type FleetStats struct {
	// Submitted / CacheHits / Coalesced mirror the single-daemon
	// counters, observed at the coordinator's edge.
	Submitted int64 `json:"submitted"`
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	// Retries counts dispatch attempts after a worker failure; Hedges
	// counts straggler jobs speculatively duplicated onto a second
	// replica; HedgeWins counts hedges that finished first.
	Retries   int64 `json:"retries"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// WarmShipped counts warm records copied between workers
	// before dispatch so warm-reuse hit rates survive resharding.
	WarmShipped int64 `json:"warm_shipped"`
	// Jobs counts job entries tracked by the coordinator.
	Jobs    int          `json:"jobs"`
	Workers []WorkerInfo `json:"workers"`
}

// Error is the JSON error envelope for non-2xx responses.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Event is one SSE frame of GET /v1/jobs/{id}/events. Progress frames
// carry Progress; the final frame carries the terminal JobStatus.
type Event struct {
	// Type is "progress" or "done" (terminal, regardless of outcome).
	Type     string     `json:"type"`
	Progress *Progress  `json:"progress,omitempty"`
	Job      *JobStatus `json:"job,omitempty"`
}
