// Package server implements heatstroked, the experiment-serving
// daemon: an HTTP front end over the internal/experiment registry and
// the internal/sweep engine.
//
// The core idea is that sweeps are deterministic — the same experiment,
// configuration, seed, and code version produce a byte-identical table
// — so results are content-addressed: a job's ID is a digest of its
// resolved parameters, identical requests from any number of clients
// cost one simulation, concurrent identical requests coalesce onto the
// single in-flight run (singleflight), and completed results are served
// from cache (optionally persisted to disk across restarts).
//
// Execution is a bounded in-process run queue: at most MaxConcurrent
// sweeps run at once, at most MaxQueue jobs wait, and submissions
// beyond that are rejected with 429 so load sheds at the edge instead
// of accumulating. Each running job streams progress (jobs
// completed/total, peak temperature, cycles/sec) over SSE, fed by the
// sweep engine's OnProgress hook. Shutdown cancels in-flight sweeps
// via context, waits for them to drain, and persists their partial
// summaries.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/experiment"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// Options configure the daemon.
type Options struct {
	// MaxConcurrent bounds simultaneously running sweeps (default 2).
	MaxConcurrent int
	// MaxQueue bounds jobs waiting to run; submissions beyond it get
	// 429 (default 16).
	MaxQueue int
	// JobTimeout is the per-job deadline (0 = none). A timed-out job
	// is canceled and keeps its partial summary.
	JobTimeout time.Duration
	// Parallelism bounds each sweep's workers (0 = GOMAXPROCS).
	Parallelism int
	// ForkTree runs every job's sweep in fork-tree mode: shared warmup
	// prefixes are simulated once and variants fork from the in-memory
	// snapshot (see experiment.Options.ForkTree). Results are byte
	// identical to flat sweeps, so the mode is deliberately excluded
	// from cache keys — cached artifacts from either mode alias.
	ForkTree bool
	// CacheDir, when set, persists completed results as JSON files so
	// restarts don't re-simulate.
	CacheDir string
	// WarmupCacheDir, when set, persists warmup snapshots (one .snap
	// file per warm key) so jobs sharing a machine configuration skip
	// the warmup phase across jobs and daemon restarts. Within one
	// sweep warmups are shared regardless; this extends the sharing
	// across sweeps. Snapshots from a different build are never served
	// (the warm key embeds Version and the snapshot format version).
	WarmupCacheDir string
	// BaseConfig supplies the machine configuration requests override
	// (default config.Default).
	BaseConfig func() config.Config
	// Version is the code version folded into cache keys, so results
	// from a different build never alias (default: the VCS revision
	// from build info, else "dev").
	Version string
	// Logger, when set, receives structured request and job logs. Job
	// lifecycle events log at Info with a "job" attribute; per-request
	// access lines log at Debug.
	Logger *slog.Logger
	// Logf, when set and Logger is not, receives the same logs rendered
	// as printf lines (legacy bridge; prefer Logger).
	Logf func(format string, args ...any)
	// LogLevel is the minimum level the Logf bridge emits (default
	// Info, so -log-level debug actually reaches the sink). Ignored
	// when Logger is set — a Logger carries its own level.
	LogLevel slog.Leveler
	// Tracer collects request-scoped spans (job lifecycle, queue wait,
	// warmup restore, each sweep job, simulated quanta) into a bounded
	// flight-recorder buffer served at GET /v1/traces/{id}. When nil,
	// New creates one sized TraceCapacity; set DisableTracing to run
	// without span collection entirely.
	Tracer *tracing.Tracer
	// TraceCapacity sizes the default tracer's span ring (<= 0 means
	// tracing.DefaultCapacity). Ignored when Tracer is set.
	TraceCapacity int
	// DisableTracing turns span collection off: no tracer is created,
	// traceparent headers are ignored, and the per-quantum cost is a
	// single nil check.
	DisableTracing bool
	// Advertise is the address this daemon wants fleet peers to reach
	// it at (reported in /v1/stats). A coordinator uses it to label the
	// worker and to locate snapshot sources; the daemon itself only
	// echoes it.
	Advertise string
	// FleetToken, when set, gates the warmup-snapshot transfer
	// endpoints (GET/PUT /v1/warm/{key}) behind a shared bearer token.
	// Empty leaves them open (fine on a trusted network; set it when
	// workers are reachable beyond the fleet).
	FleetToken string

	// BeforeRun, when set, is called immediately before each sweep
	// starts (test and fault-injection hook: lets callers hold jobs
	// in-flight or kill a worker mid-job deterministically).
	BeforeRun func(id string)
}

// errShutdown is the cancellation cause during Shutdown. It wraps
// context.Canceled so a sweep cut short by shutdown is classified as
// canceled (partial summary kept), not failed.
var errShutdown = fmt.Errorf("server shutting down: %w", context.Canceled)

// Server is the daemon state. Create with New, expose with Handler,
// stop with Shutdown.
type Server struct {
	opts    Options
	baseCtx context.Context
	cancel  context.CancelCauseFunc
	sem     chan struct{}
	mux     *http.ServeMux
	log     *slog.Logger
	met     *serverMetrics
	warm    *warmStore
	tracer  *tracing.Tracer

	mu      sync.Mutex
	jobs    map[string]*jobEntry
	queued  int
	running int
	stats   api.Stats
	closed  bool
	wg      sync.WaitGroup
}

// New builds a Server and loads the persistent cache, if configured.
func New(opts Options) (*Server, error) {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 16
	}
	if opts.BaseConfig == nil {
		opts.BaseConfig = config.Default
	}
	if opts.Version == "" {
		opts.Version = BuildVersion()
	}
	log := opts.Logger
	if log == nil {
		if opts.Logf != nil {
			log = slog.New(&logfHandler{logf: opts.Logf, level: opts.LogLevel})
		} else {
			log = slog.New(discardHandler{})
		}
	}
	tracer := opts.Tracer
	if tracer == nil && !opts.DisableTracing {
		service := "heatstroked"
		if opts.Advertise != "" {
			service = "heatstroked@" + opts.Advertise
		}
		tracer = tracing.NewTracer(service, opts.TraceCapacity)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		opts:    opts,
		baseCtx: ctx,
		cancel:  cancel,
		sem:     make(chan struct{}, opts.MaxConcurrent),
		jobs:    make(map[string]*jobEntry),
		log:     log,
		tracer:  tracer,
	}
	s.met = newServerMetrics(s, opts.Version)
	if opts.WarmupCacheDir != "" {
		s.warm = newWarmStore(opts.WarmupCacheDir, log, s.met)
	}
	if err := s.loadCache(); err != nil {
		cancel(nil)
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/warm/{key}", s.handleWarmGet)
	s.mux.HandleFunc("PUT /v1/warm/{key}", s.handleWarmPut)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.Handle("GET /metrics", s.met.reg.Handler())
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.logRequests(s.mux) }

// Metrics returns the daemon's telemetry registry (exposed at
// GET /metrics), so embedders can add their own series.
func (s *Server) Metrics() *telemetry.Registry { return s.met.reg }

// Tracer returns the daemon's span collector (nil when tracing is
// disabled), so embedders — the fleet coordinator above all — can
// stitch its spans into cross-node traces.
func (s *Server) Tracer() *tracing.Tracer { return s.tracer }

// Shutdown drains the daemon: no new jobs are accepted, in-flight
// sweeps are cancelled via context and allowed to finish their running
// simulations, and every affected job persists its partial summary.
// It returns once all workers have drained or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel(errShutdown)
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
}

// Stats returns a snapshot of the serving counters, plus the
// fleet-discovery fields: the advertised address and the warmup
// snapshots this daemon can serve over /v1/warm/{key}.
func (s *Server) Stats() api.Stats {
	s.mu.Lock()
	st := s.stats
	st.Queued = s.queued
	st.Running = s.running
	st.Jobs = len(s.jobs)
	s.mu.Unlock()
	st.Advertise = s.opts.Advertise
	if s.warm != nil {
		st.WarmKeys = s.warm.Keys()
	}
	return st
}

// resolve normalizes a request and derives its content address. The
// returned request has every default filled in (so it round-trips:
// resubmitting a resolved request yields the same ID).
func (s *Server) resolve(req api.JobRequest) (api.JobRequest, string, error) {
	return Resolve(s.opts.Version, s.opts.BaseConfig, req)
}

// Resolve normalizes a job request against a base configuration and
// derives its content address: the digest identical requests share.
// It is the one key-derivation path — the daemon uses it for its
// result cache, and the fleet coordinator (internal/fleet) uses the
// same function so shard placement hashes the very key the worker
// will cache under (same build and base config on both sides; with a
// mixed-version fleet the placements still land deterministically,
// the keys just stop aliasing across versions, as they must).
func Resolve(version string, base func() config.Config, req api.JobRequest) (api.JobRequest, string, error) {
	if base == nil {
		base = config.Default
	}
	req.Experiment = strings.TrimSpace(req.Experiment)
	in, ok := experiment.Describe(req.Experiment)
	if !ok {
		return req, "", fmt.Errorf("unknown experiment %q (have %v)", req.Experiment, experiment.Names())
	}
	if in.Cores > 1 {
		// Multi-core experiments run a bigger die than the base config's
		// single core: fill their registry defaults in so the resolved
		// request (and the digest below) names the die that actually runs.
		if req.Cores == 0 {
			req.Cores = in.Cores
		}
		if req.Solver == "" {
			req.Solver = in.Solver
		}
	}
	known := make(map[string]bool)
	for _, n := range workload.SpecNames() {
		known[n] = true
	}
	if len(req.Benchmarks) == 0 {
		req.Benchmarks = workload.SpecNames()
	} else {
		for i, b := range req.Benchmarks {
			b = strings.TrimSpace(b)
			if !known[b] {
				return req, "", fmt.Errorf("unknown benchmark %q (have %v)", b, workload.SpecNames())
			}
			req.Benchmarks[i] = b
		}
	}
	if req.Scale < 0 {
		return req, "", fmt.Errorf("scale must be non-negative")
	}
	cfg := base()
	if req.Scale > 0 {
		cfg.Thermal.Scale = req.Scale
	}
	req.Scale = cfg.Thermal.Scale
	if req.Cores < 0 || req.Cores > config.MaxCores {
		return req, "", fmt.Errorf("cores must be in [0, %d]", config.MaxCores)
	}
	// Topology overrides land in the config before Digest() below, so
	// the content address — and with it the fleet's shard placement —
	// separates runs of the same experiment on different dies.
	if req.Cores > 0 {
		cfg.Topology.Cores = req.Cores
		if req.Cores > 1 && req.Solver == "" {
			// A multi-core die cannot run on the lumped network; an
			// explicit solver still wins (and validates below).
			cfg.Topology.Solver = config.SolverGrid
		}
	}
	if req.Solver != "" {
		cfg.Topology.Solver = req.Solver
	}
	req.Cores = cfg.Topology.Cores
	req.Solver = cfg.Topology.Solver
	if err := cfg.Validate(); err != nil {
		return req, "", err
	}
	if req.Quantum < 0 || req.Warmup < 0 {
		return req, "", fmt.Errorf("quantum and warmup must be non-negative")
	}
	if req.Quantum == 0 {
		req.Quantum = cfg.Run.QuantumCycles
	}
	if req.Warmup == 0 {
		req.Warmup = 500_000
	}
	if req.Seed == nil {
		seed := cfg.Run.Seed
		req.Seed = &seed
	}
	// The content address: a canonical digest of the resolved
	// parameters plus the code version. The config digest covers every
	// machine parameter (including the scale override applied above),
	// so any configuration drift changes the address.
	key := struct {
		Version    string   `json:"version"`
		Experiment string   `json:"experiment"`
		Config     string   `json:"config"`
		Quantum    int64    `json:"quantum"`
		Warmup     int64    `json:"warmup"`
		Seed       int64    `json:"seed"`
		Benchmarks []string `json:"benchmarks"`
	}{version, req.Experiment, cfg.Digest(), req.Quantum, req.Warmup, *req.Seed, req.Benchmarks}
	b, err := json.Marshal(key)
	if err != nil {
		return req, "", err
	}
	sum := sha256.Sum256(b)
	return req, hex.EncodeToString(sum[:]), nil
}

// expOptions builds the experiment options for one job. The resolved
// request's seed is passed with SeedSet so literal seed 0 round-trips.
func (s *Server) expOptions(e *jobEntry) experiment.Options {
	cfg := s.opts.BaseConfig()
	cfg.Thermal.Scale = e.req.Scale
	if e.req.Cores > 0 {
		cfg.Topology.Cores = e.req.Cores
	}
	if e.req.Solver != "" {
		cfg.Topology.Solver = e.req.Solver
	}
	o := experiment.Options{
		Config:      &cfg,
		Benchmarks:  e.req.Benchmarks,
		Quantum:     e.req.Quantum,
		Warmup:      e.req.Warmup,
		Parallelism: s.opts.Parallelism,
		Seed:        *e.req.Seed,
		SeedSet:     true,
		Progress:    e.onProgress,
		ForkTree:    s.opts.ForkTree,
		CodeVersion: s.opts.Version,
		OnRestore:   s.met.observeRestore,
	}
	if s.warm != nil {
		// Assigned conditionally: a typed nil *warmStore in the
		// interface would pass the != nil checks downstream.
		o.WarmupCache = s.warm
	}
	return o
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	resolved, id, err := s.resolve(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The job context carries the tracer and — when the client sent a
	// valid traceparent — the remote parent, so the job span joins the
	// caller's trace (a coordinator dispatch, a CLI root span) instead
	// of starting a fresh one.
	lookupStart := time.Now()
	tctx := tracing.ContextWithTracer(s.baseCtx, s.tracer)
	if tp := r.Header.Get("traceparent"); tp != "" {
		if parent, perr := tracing.ParseTraceparent(tp); perr == nil {
			tctx = tracing.ContextWithRemote(tctx, parent)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.stats.Submitted++
	s.met.submitted.Inc()
	if e, ok := s.jobs[id]; ok {
		st := e.snapshot()
		if st.Status == api.StatusDone {
			// Content-addressed cache hit: the result already exists.
			s.stats.CacheHits++
			s.met.cacheHits.Inc()
			st.Cached = true
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		}
		if !st.Status.Terminal() {
			// Singleflight: join the identical in-flight job instead
			// of queueing a duplicate simulation.
			s.stats.Coalesced++
			s.met.coalesced.Inc()
			st.Coalesced = true
			s.mu.Unlock()
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		// Failed or canceled earlier: drop the stale entry and re-run.
		delete(s.jobs, id)
	}
	if s.queued >= s.opts.MaxQueue {
		s.stats.Rejected++
		s.met.rejected.Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full (%d queued)", s.opts.MaxQueue)
		return
	}
	s.met.cacheMisses.Inc()
	e := newJobEntry(id, resolved, s.met)
	e.created = lookupStart
	jctx, span := tracing.StartSpan(tctx, "job")
	span.SetAttr("job", shortID(id))
	span.SetAttr("experiment", resolved.Experiment)
	e.span = span
	if sc := span.Context(); sc.Valid() {
		e.traceID = sc.TraceID.String()
		s.tracer.Emit(sc, "cache.lookup", lookupStart.UnixNano(), time.Now().UnixNano(),
			map[string]string{"hit": "false"})
	}
	e.ctx, e.cancel = context.WithCancelCause(jctx)
	s.jobs[id] = e
	s.queued++
	s.wg.Add(1)
	go s.execute(e)
	st := e.snapshot()
	s.mu.Unlock()

	s.log.Info("job queued",
		append([]any{
			"job", shortID(id),
			"experiment", resolved.Experiment,
			"benchmarks", len(resolved.Benchmarks),
			"quantum", resolved.Quantum,
			"seed", *resolved.Seed,
		}, e.logAttrs()...)...)
	writeJSON(w, http.StatusAccepted, st)
}

// execute runs one job through the bounded queue: acquire a run slot
// (or observe shutdown), run the experiment sweep, and persist and
// publish the outcome.
func (s *Server) execute(e *jobEntry) {
	defer s.wg.Done()
	defer e.cancel(nil)
	select {
	case s.sem <- struct{}{}:
	case <-e.ctx.Done():
		// Canceled while still queued (shutdown or a client DELETE):
		// never simulated.
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		e.finish(api.StatusCanceled, nil, context.Cause(e.ctx), s.persist)
		return
	}
	s.mu.Lock()
	s.queued--
	s.running++
	s.stats.Runs++
	s.mu.Unlock()
	e.setStatus(api.StatusRunning)
	// The slot wait is over; record it retroactively as a child of the
	// job span (no-op when tracing is off or the span never opened).
	s.tracer.Emit(e.span.Context(), "queue.wait", e.created.UnixNano(), time.Now().UnixNano(), nil)

	runCtx := e.ctx
	var cancel context.CancelFunc
	if s.opts.JobTimeout > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, s.opts.JobTimeout)
	}
	if s.opts.BeforeRun != nil {
		s.opts.BeforeRun(e.id)
	}
	start := time.Now()
	runCtx, rsp := tracing.StartSpan(runCtx, "experiment.run")
	table, err := experiment.RunContext(runCtx, e.req.Experiment, s.expOptions(e))
	rsp.EndErr(err)
	if cancel != nil {
		cancel()
	}
	<-s.sem
	s.mu.Lock()
	s.running--
	s.mu.Unlock()

	elapsed := time.Since(start)
	switch {
	case err == nil:
		e.finish(api.StatusDone, table, nil, s.persist)
		s.met.finishJob(api.StatusDone, elapsed.Seconds())
		s.log.Info("job done",
			append([]any{"job", shortID(e.id), "dur", elapsed.Round(time.Millisecond).String()}, e.logAttrs()...)...)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.finish(api.StatusCanceled, nil, err, s.persist)
		s.met.finishJob(api.StatusCanceled, elapsed.Seconds())
		s.log.Info("job canceled",
			append([]any{"job", shortID(e.id), "dur", elapsed.Round(time.Millisecond).String(), "err", err}, e.logAttrs()...)...)
	default:
		e.finish(api.StatusFailed, nil, err, s.persist)
		s.met.finishJob(api.StatusFailed, elapsed.Seconds())
		s.log.Info("job failed",
			append([]any{"job", shortID(e.id), "err", err}, e.logAttrs()...)...)
	}
}

// handleTrace serves every buffered span of one trace, addressed
// either by its 32-hex trace id or by a job id (64 hex — the two are
// disjoint by construction, so the endpoint accepts both).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing is disabled")
		return
	}
	id := r.PathValue("id")
	tid := id
	if len(id) == 64 {
		e := s.lookup(id)
		if e == nil {
			writeError(w, http.StatusNotFound, "unknown job")
			return
		}
		if e.traceID == "" {
			writeError(w, http.StatusNotFound, "job has no trace")
			return
		}
		tid = e.traceID
	}
	spans := s.tracer.Spans(tid)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "unknown trace")
		return
	}
	tracing.SortSpans(spans)
	writeJSON(w, http.StatusOK, api.Trace{TraceID: tid, Spans: spans})
}

func (s *Server) lookup(id string) *jobEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, e.snapshot())
}

// errClientCanceled is the cancellation cause for DELETE /v1/jobs/{id}
// (a coordinator cancelling the losing side of a hedged dispatch, or
// any client abandoning a run). It wraps context.Canceled so the job
// classifies as canceled, keeping its partial summary.
var errClientCanceled = fmt.Errorf("canceled by client request: %w", context.Canceled)

// handleCancel aborts a queued or running job. Cancellation is
// asynchronous: the response carries the job's snapshot at signal
// time, and the job reaches StatusCanceled once its running
// simulations wind down (poll or stream events for the terminal
// state). Cancelling an already-terminal job is a no-op; note a
// canceled entry is evicted and re-run on the next identical submit,
// so cancellation also cancels for any clients coalesced onto the job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if e.cancel != nil {
		e.cancel(errClientCanceled)
	}
	s.log.Info("job cancel requested", "job", shortID(e.id))
	writeJSON(w, http.StatusOK, e.snapshot())
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	fname := r.URL.Query().Get("format")
	if fname == "" {
		fname = string(sweep.FormatTable)
	}
	f, err := sweep.ParseFormat(fname)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, table := e.result()
	if st != api.StatusDone || table == nil {
		writeError(w, http.StatusConflict, "job is %s; artifact requires done", st)
		return
	}
	switch f {
	case sweep.FormatJSON:
		w.Header().Set("Content-Type", "application/json")
	case sweep.FormatCSV:
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	if err := table.Write(w, f); err != nil {
		s.log.Info("artifact write failed", "job", shortID(e.id), "err", err)
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	infos := experiment.Infos()
	out := make([]api.ExperimentInfo, len(infos))
	for i, in := range infos {
		out[i] = api.ExperimentInfo{Name: in.Name, Title: in.Title, Description: in.Description,
			Cores: in.Cores, Solver: in.Solver}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Code: code, Message: fmt.Sprintf(format, args...)})
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// BuildVersion derives the code version from the binary's VCS stamp
// (else "dev"). It is the default Options.Version — exported so the
// fleet coordinator (internal/fleet), built from the same source,
// defaults to the same version and its shard keys and warm keys alias
// the workers' caches.
func BuildVersion() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "dev"
}
