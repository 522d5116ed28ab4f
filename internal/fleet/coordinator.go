package fleet

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
	"github.com/heatstroke-sim/heatstroke/pkg/client"
)

// Options configure the fleet coordinator.
type Options struct {
	// Workers are the initial worker base URLs. More can join (and
	// leave) at runtime via POST/DELETE /v1/workers.
	Workers []string
	// HedgeAfter is how long a dispatched job may run before the
	// coordinator speculatively duplicates it onto the next replica
	// (first terminal result wins, the loser is cancelled); zero or
	// negative never hedges. Hedging is safe because results are
	// deterministic and content-addressed: both replicas compute the
	// byte-identical answer, so "first wins" can never change it.
	HedgeAfter time.Duration
	// PollInterval paces worker health/stats polling (default 2s).
	PollInterval time.Duration
	// FleetToken authenticates warm-snapshot transfers to workers and
	// must match the workers' -fleet-token (empty disables auth).
	FleetToken string
	// Version is the code version used to resolve job content
	// addresses and warm keys, and must match the workers' for shard
	// keys to alias their caches (default: this binary's VCS stamp —
	// correct when coordinator and workers are the same build).
	Version string
	// BaseConfig supplies the machine configuration requests override
	// (default config.Default); it must match the workers'.
	BaseConfig func() config.Config
	// Logger receives structured logs (default: discard).
	Logger *slog.Logger
	// TraceCapacity sizes the span ring of the tracer that records
	// coordinator-side spans (fleet.job roots, one fleet.dispatch per
	// attempt): 0 means tracing.DefaultCapacity, and a negative
	// capacity turns tracing off.
	TraceCapacity int
	// TraceDir, when set, is flight-recorder mode: every terminal
	// fleet job's stitched trace is written to {TraceDir}/{trace
	// id}.ndjson, one span per line, mergeable offline with
	// heatstroke-trace -stitch.
	TraceDir string
}

// worker is one registered daemon.
type worker struct {
	url string
	cl  *client.Client

	mu      sync.Mutex
	name    string // advertised address when reported, else url
	healthy bool
	stats   *api.Stats
	warm    map[string]bool // warm keys from the last stats poll
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

func (w *worker) label() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.name != "" {
		return w.name
	}
	return w.url
}

func (w *worker) hasWarm(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.warm[key]
}

func (w *worker) setWarm(key string) {
	w.mu.Lock()
	if w.warm == nil {
		w.warm = make(map[string]bool)
	}
	w.warm[key] = true
	w.mu.Unlock()
}

func (w *worker) info() api.WorkerInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	name := w.name
	if name == "" {
		name = w.url
	}
	return api.WorkerInfo{URL: w.url, Name: name, Healthy: w.healthy, Stats: w.stats}
}

// Coordinator fronts a worker fleet with the daemon's own job API,
// served from the daemon's job record and handlers (server.Job,
// server.JobRoutes), except DELETE /v1/jobs/{id}. Create with New,
// expose with Handler, stop with Shutdown.
type Coordinator struct {
	opts    Options
	baseCtx context.Context
	cancel  context.CancelFunc
	mux     *http.ServeMux
	log     *slog.Logger
	met     *fleetMetrics
	tracer  *tracing.Tracer

	mu      sync.Mutex
	workers map[string]*worker // by normalized URL
	ring    *Ring
	jobs    map[string]*fleetJob
	closed  bool
	wg      sync.WaitGroup
}

// New builds a Coordinator, registers the initial workers, and polls
// each once so the ring reflects who is actually reachable before the
// first job arrives.
func New(opts Options) (*Coordinator, error) {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 2 * time.Second
	}
	if opts.BaseConfig == nil {
		opts.BaseConfig = config.Default
	}
	if opts.Version == "" {
		opts.Version = server.BuildVersion()
	}
	log := cmp.Or(opts.Logger, server.DiscardLogger())
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:    opts,
		baseCtx: ctx,
		cancel:  cancel,
		log:     log,
		workers: make(map[string]*worker),
		ring:    NewRing(0),
		jobs:    make(map[string]*fleetJob),
	}
	if opts.TraceCapacity >= 0 {
		c.tracer = tracing.NewTracer("fleet", opts.TraceCapacity)
	}
	c.met = newFleetMetrics(c)
	for _, u := range opts.Workers {
		if _, err := c.addWorker(u); err != nil {
			cancel()
			return nil, err
		}
	}
	c.mux = http.NewServeMux()
	server.JobRoutes(c.mux, c.job)
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs/{id}/artifact", c.handleArtifact)
	c.mux.HandleFunc("GET /v1/traces/{id}", c.handleTrace)
	c.mux.HandleFunc("GET /v1/stats", c.handleStats)
	c.mux.HandleFunc("GET /v1/workers", c.handleWorkersList)
	c.mux.HandleFunc("POST /v1/workers", c.handleWorkerJoin)
	c.mux.HandleFunc("DELETE /v1/workers", c.handleWorkerLeave)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	c.mux.HandleFunc("GET /readyz", c.handleReady)
	c.wg.Add(1)
	go c.pollLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP handler. The job surface is
// wire-compatible with a single daemon's, so pkg/client works against
// either unchanged (bar Cancel, which the coordinator does not serve).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Shutdown stops polling, cancels in-flight dispatches, and waits for
// the job monitors to drain.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	drained := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: shutdown: %w", ctx.Err())
	}
}

// newWorkerClient builds the per-worker client: fast failover (small
// retry budget) because the coordinator's own retry path — the next
// replica — is better than waiting out a sick worker.
func (c *Coordinator) newWorkerClient(url string) *client.Client {
	cl := client.New(url)
	cl.Token = c.opts.FleetToken
	cl.Retry = &client.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}
	cl.PollInterval = 100 * time.Millisecond
	cl.Tracer = c.tracer // worker hops record into the coordinator's buffer
	return cl
}

// addWorker registers a worker (idempotent) and polls it once so its
// health and warm keys are known immediately.
func (c *Coordinator) addWorker(rawURL string) (*worker, error) {
	u := strings.TrimRight(strings.TrimSpace(rawURL), "/")
	if u == "" || (!strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://")) {
		return nil, fmt.Errorf("fleet: worker URL %q must be absolute http(s)", rawURL)
	}
	c.mu.Lock()
	if w, ok := c.workers[u]; ok {
		c.mu.Unlock()
		return w, nil
	}
	w := &worker{url: u, cl: c.newWorkerClient(u)}
	c.workers[u] = w
	c.mu.Unlock()
	c.pollWorker(w)
	c.log.Info("worker registered", "url", u, "healthy", w.isHealthy())
	return w, nil
}

// removeWorker deregisters a worker. In-flight dispatches to it are
// left to finish or fail on their own; new placements skip it.
func (c *Coordinator) removeWorker(rawURL string) bool {
	u := strings.TrimRight(strings.TrimSpace(rawURL), "/")
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[u]; !ok {
		return false
	}
	delete(c.workers, u)
	c.ring.Remove(u)
	c.log.Info("worker deregistered", "url", u)
	return true
}

// pollWorker refreshes one worker's health, stats, and warm-key set,
// and keeps the ring in sync with health transitions: an unreachable
// worker leaves the ring (its keys fail over to the next replica,
// which is minimal movement by the ring property) and rejoins where
// it was once it answers again.
func (c *Coordinator) pollWorker(w *worker) {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.opts.PollInterval)
	st, err := w.cl.Stats(ctx)
	cancel()

	w.mu.Lock()
	was := w.healthy
	w.healthy = err == nil
	if err == nil {
		w.stats = st
		if st.Advertise != "" {
			w.name = st.Advertise
		}
		w.warm = make(map[string]bool, len(st.WarmKeys))
		for _, k := range st.WarmKeys {
			w.warm[k] = true
		}
	}
	now := w.healthy
	w.mu.Unlock()

	c.mu.Lock()
	if _, still := c.workers[w.url]; still {
		if now {
			c.ring.Add(w.url)
		} else {
			c.ring.Remove(w.url)
		}
	}
	c.mu.Unlock()
	if was != now {
		c.log.Info("worker health changed", "url", w.url, "healthy", now, "err", err)
	}
}

// markUnhealthy records a dispatch-observed transport failure without
// waiting for the next poll, so subsequent placements avoid the dead
// worker immediately.
func (c *Coordinator) markUnhealthy(w *worker) {
	w.mu.Lock()
	was := w.healthy
	w.healthy = false
	w.mu.Unlock()
	c.mu.Lock()
	c.ring.Remove(w.url)
	c.mu.Unlock()
	if was {
		c.log.Info("worker marked unhealthy by failed dispatch", "url", w.url)
	}
}

func (c *Coordinator) pollLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.mu.Lock()
			ws := make([]*worker, 0, len(c.workers))
			for _, w := range c.workers {
				ws = append(ws, w)
			}
			c.mu.Unlock()
			for _, w := range ws {
				c.pollWorker(w)
			}
		case <-c.baseCtx.Done():
			return
		}
	}
}

// placement returns the job's replica preference list: healthy
// workers in ring order starting at the key's owner.
func (c *Coordinator) placement(key string) []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	urls := c.ring.Owners(key, len(c.workers))
	out := make([]*worker, 0, len(urls))
	for _, u := range urls {
		if w, ok := c.workers[u]; ok && w.isHealthy() {
			out = append(out, w)
		}
	}
	return out
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The same resolution the workers use, so the coordinator shards
	// on the exact key each worker caches under.
	sub, ok := server.DecodeSubmit(w, r, c.opts.Version, c.opts.BaseConfig)
	if !ok {
		return
	}
	id, resolved := sub.ID, sub.Request

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		server.WriteError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	c.met.submitted.Inc()
	if fj, ok := c.jobs[id]; ok {
		if st, code := fj.Reuse(); code != 0 {
			if st.Cached {
				c.met.cacheHits.Inc()
			} else {
				c.met.coalesced.Inc()
			}
			c.mu.Unlock()
			server.WriteJSON(w, code, st)
			return
		}
		// Failed or canceled earlier: re-dispatch fresh.
		delete(c.jobs, id)
	}
	fj := newFleetJob(id, resolved)
	// The fleet.job span roots this job's trace at the coordinator
	// edge, joining the client's trace when the submit carried a W3C
	// traceparent header. Dispatch attempts parent under it via fj.ctx.
	fj.ctx, fj.span, fj.TraceID = sub.StartSpan(c.baseCtx, c.tracer, "fleet.job")
	c.jobs[id] = fj
	c.wg.Add(1)
	go c.runJob(fj)
	st := fj.Snapshot()
	c.mu.Unlock()

	c.log.Info("job accepted", "job", server.ShortID(id), "experiment", resolved.Experiment)
	server.WriteJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) lookup(id string) *fleetJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// job returns the record of the job with id, or nil.
func (c *Coordinator) job(id string) *server.Job {
	if fj := c.lookup(id); fj != nil {
		return fj.Job
	}
	return nil
}

// handleArtifact proxies the rendered table from the worker whose
// result won the job.
func (c *Coordinator) handleArtifact(w http.ResponseWriter, r *http.Request) {
	fj := c.lookup(r.PathValue("id"))
	if fj == nil {
		server.WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	f, ok := server.ArtifactFormat(w, r, fj.Job)
	if !ok {
		return
	}
	winner, winnerJob := fj.result()
	body, err := winner.cl.Artifact(r.Context(), winnerJob, string(f))
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "artifact fetch from %s: %v", winner.label(), err)
		return
	}
	_, _ = w.Write(body)
}

// Stats snapshots the coordinator counters plus every worker's latest
// polled stats.
func (c *Coordinator) Stats() api.FleetStats {
	st := api.FleetStats{
		Submitted:   int64(c.met.submitted.Value()),
		CacheHits:   int64(c.met.cacheHits.Value()),
		Coalesced:   int64(c.met.coalesced.Value()),
		Retries:     int64(c.met.retries.Value()),
		Hedges:      int64(c.met.hedges.Value()),
		HedgeWins:   int64(c.met.hedgeWins.Value()),
		WarmShipped: int64(c.met.warmShipped.Value()),
	}
	c.mu.Lock()
	st.Jobs = len(c.jobs)
	ws := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	for _, w := range ws {
		st.Workers = append(st.Workers, w.info())
	}
	slices.SortFunc(st.Workers, func(a, b api.WorkerInfo) int { return cmp.Compare(a.URL, b.URL) })
	return st
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Stats())
}

func (c *Coordinator) handleWorkersList(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Stats().Workers)
}

func (c *Coordinator) handleWorkerJoin(w http.ResponseWriter, r *http.Request) {
	var reg api.WorkerRegistration
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&reg); err != nil {
		server.WriteError(w, http.StatusBadRequest, "invalid registration: %v", err)
		return
	}
	wk, err := c.addWorker(reg.URL)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, wk.info())
}

func (c *Coordinator) handleWorkerLeave(w http.ResponseWriter, r *http.Request) {
	u := r.URL.Query().Get("url")
	if u == "" {
		server.WriteError(w, http.StatusBadRequest, "missing url query parameter")
		return
	}
	if !c.removeWorker(u) {
		server.WriteError(w, http.StatusNotFound, "unknown worker %q", u)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleReady(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	closed := c.closed
	healthy := c.ring.Len()
	c.mu.Unlock()
	if closed {
		server.WriteError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if healthy == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	fmt.Fprintln(w, "ready")
}
