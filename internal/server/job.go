package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/experiment"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// Job is the record of one content-addressed job, the one both front
// ends serve: the daemon runs it, the fleet coordinator
// (internal/fleet) dispatches it to workers. It holds what a status
// read returns — the resolved request, the trace id, status, progress,
// summary and error — and the SSE subscribers. Each front end embeds it
// beside the state only it keeps: the daemon its run context,
// aggregates and table; the coordinator its dispatch context and
// winning worker.
type Job struct {
	// ID, Request and TraceID are set before the job is published to
	// readers and are read-only after.
	ID      string
	Request api.JobRequest // resolved: every default filled in
	TraceID string         // "" when tracing is off

	mu      sync.Mutex
	status  api.Status
	prog    api.Progress
	summary *sweep.Summary
	err     string
	subs    map[chan api.Event]struct{}
}

// NewJob returns a queued job.
func NewJob(id string, req api.JobRequest) *Job {
	return &Job{ID: id, Request: req, status: api.StatusQueued, subs: make(map[chan api.Event]struct{})}
}

// Snapshot renders the job as a wire JobStatus.
func (j *Job) Snapshot() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() api.JobStatus {
	return api.JobStatus{
		ID:         j.ID,
		Experiment: j.Request.Experiment,
		Request:    j.Request,
		Status:     j.status,
		Progress:   j.prog,
		Summary:    j.summary,
		Error:      j.err,
		TraceID:    j.TraceID,
	}
}

// Start marks a queued job running.
func (j *Job) Start() {
	j.mu.Lock()
	if j.status == api.StatusQueued {
		j.status = api.StatusRunning
	}
	j.mu.Unlock()
}

// Progress updates the job's progress under the record's lock, so the
// owner's rule for folding a report in sees the progress it replaces.
// When update returns true the new progress goes out to every
// subscriber. A terminal job's progress no longer changes. update must
// not block.
func (j *Job) Progress(update func(p *api.Progress) bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() || !update(&j.prog) {
		return
	}
	snap := j.prog
	j.broadcastLocked(api.Event{Type: "progress", Progress: &snap})
}

// Finish makes the job terminal with status st, its summary and error
// message, sends the terminal "done" event and closes every
// subscriber. Once the job is terminal Finish does nothing: the first
// finish wins.
func (j *Job) Finish(st api.Status, summary *sweep.Summary, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status, j.summary, j.err = st, summary, errMsg
	job := j.snapshotLocked()
	j.broadcastLocked(api.Event{Type: "done", Job: &job})
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// Reuse decides a submit whose content address names j, a job the
// front end already holds. A done job is a cache hit: st has Cached set
// and is answered 200. A queued or running job is coalesced: st has
// Coalesced set and is answered 202. For a failed or canceled job code
// is 0: the caller drops it and runs the job again.
func (j *Job) Reuse() (st api.JobStatus, code int) {
	st = j.Snapshot()
	switch {
	case st.Status == api.StatusDone:
		st.Cached = true
		return st, http.StatusOK
	case !st.Status.Terminal():
		st.Coalesced = true
		return st, http.StatusAccepted
	}
	return st, 0
}

// subscribe registers an SSE subscriber. The returned channel first
// yields a snapshot of the current progress, then every subsequent
// event, and is closed when the job reaches a terminal state. For an
// already-terminal job the channel arrives closed after one terminal
// event. The buffer holds the events a reader may fall behind by
// before it starts missing progress frames.
func (j *Job) subscribe() chan api.Event {
	ch := make(chan api.Event, 32)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		job := j.snapshotLocked()
		ch <- api.Event{Type: "done", Job: &job}
		close(ch)
		return ch
	}
	snap := j.prog
	ch <- api.Event{Type: "progress", Progress: &snap}
	j.subs[ch] = struct{}{}
	return ch
}

func (j *Job) unsubscribe(ch chan api.Event) {
	j.mu.Lock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}

// broadcastLocked fans an event out without blocking: a subscriber
// whose buffer is full misses that event, which is safe because later
// progress snapshots supersede earlier ones (Completed is monotonic
// within each subscriber's stream either way).
func (j *Job) broadcastLocked(ev api.Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// JobRoutes registers the read routes both front ends serve alike over
// lookup, which returns the job with an id or nil: a job's status, its
// SSE progress stream and the experiment listing.
func JobRoutes(mux *http.ServeMux, lookup func(id string) *Job) {
	find := func(w http.ResponseWriter, r *http.Request) *Job {
		j := lookup(r.PathValue("id"))
		if j == nil {
			WriteError(w, http.StatusNotFound, "unknown job")
		}
		return j
	}
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j := find(w, r); j != nil {
			WriteJSON(w, http.StatusOK, j.Snapshot())
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if j := find(w, r); j != nil {
			serveEvents(w, r, j)
		}
	})
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, _ *http.Request) {
		infos := experiment.Infos()
		out := make([]api.ExperimentInfo, len(infos))
		for i, in := range infos {
			out[i] = api.ExperimentInfo{Name: in.Name, Title: in.Title, Description: in.Description,
				Cores: in.Cores, Solver: in.Solver}
		}
		WriteJSON(w, http.StatusOK, out)
	})
}

// Submission is a decoded and resolved POST /v1/jobs body: the front
// half of a submit, which the daemon and the fleet coordinator share so
// that both answer a malformed or unresolvable request alike.
type Submission struct {
	ID      string         // the content address (see Resolve)
	Request api.JobRequest // resolved: every default filled in
	// parent is the caller's W3C traceparent; zero when the header is
	// absent or malformed.
	parent tracing.SpanContext
}

// DecodeSubmit reads a POST /v1/jobs body of at most 1 MiB, resolves
// it against version and base, and reads its traceparent header. When
// ok is false the 400 is already written.
func DecodeSubmit(w http.ResponseWriter, r *http.Request, version string, base func() config.Config) (sub Submission, ok bool) {
	var req api.JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return sub, false
	}
	var err error
	if sub.Request, sub.ID, err = Resolve(version, base, req); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return sub, false
	}
	if sc, err := tracing.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		sub.parent = sc
	}
	return sub, true
}

// StartSpan opens the job's span, named name, on tracer: a child of
// the caller's traceparent when the submit carried one, else the root
// of a new trace, with the job and experiment attributes. It returns
// the context the job runs under, the span and its trace id ("" when
// tracer is nil).
func (sub Submission) StartSpan(ctx context.Context, tracer *tracing.Tracer, name string) (context.Context, *tracing.ActiveSpan, string) {
	ctx = tracing.ContextWithRemote(tracing.ContextWithTracer(ctx, tracer), sub.parent)
	ctx, span := tracing.StartSpan(ctx, name)
	span.SetAttr("job", ShortID(sub.ID))
	span.SetAttr("experiment", sub.Request.Experiment)
	var traceID string
	if sc := span.Context(); sc.Valid() {
		traceID = sc.TraceID.String()
	}
	return ctx, span, traceID
}

// TraceID maps the id of GET /v1/traces/{id} to the trace it names: a
// 64-hex job id, found by lookup, names its job's trace, and any other
// id is taken as a 32-hex trace id (the two are disjoint by length).
// When ok is false the 404 is already written.
func TraceID(w http.ResponseWriter, r *http.Request, tracer *tracing.Tracer, lookup func(id string) *Job) (traceID string, ok bool) {
	if tracer == nil {
		WriteError(w, http.StatusNotFound, "tracing is disabled")
		return "", false
	}
	id := r.PathValue("id")
	if len(id) != 64 {
		return id, true
	}
	switch j := lookup(id); {
	case j == nil:
		WriteError(w, http.StatusNotFound, "unknown job")
	case j.TraceID == "":
		WriteError(w, http.StatusNotFound, "job has no trace")
	default:
		return j.TraceID, true
	}
	return "", false
}

// serveEvents streams a job's progress as server-sent events: one
// "progress" frame per published progress (plus an immediate snapshot
// on subscribe) and a final "done" frame carrying the terminal
// JobStatus. Heartbeat comments keep idle connections alive while the
// job waits in the queue.
func serveEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch := j.subscribe()
	defer j.unsubscribe(ch)
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				// The channel closed without this subscriber seeing a
				// terminal frame — its buffer was full when "done" was
				// broadcast. Synthesize it from the terminal snapshot so
				// every stream still ends with a "done" event.
				job := j.Snapshot()
				_ = writeEvent(w, api.Event{Type: "done", Job: &job})
				flusher.Flush()
				return
			}
			if err := writeEvent(w, ev); err != nil {
				return
			}
			flusher.Flush()
			if ev.Type == "done" {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprintf(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent encodes one SSE frame: "event: <type>" plus a JSON data
// line (api.Event encoded whole, so clients can dispatch on .type).
func writeEvent(w http.ResponseWriter, ev api.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}

// ArtifactFormat starts the answer to GET /v1/jobs/{id}/artifact for
// j: it reads the format (?format=, table by default), requires j done
// and sets the format's Content-Type. When it returns false the error
// (400 or 409) is already written.
func ArtifactFormat(w http.ResponseWriter, r *http.Request, j *Job) (sweep.Format, bool) {
	fname := r.URL.Query().Get("format")
	if fname == "" {
		fname = string(sweep.FormatTable)
	}
	f, err := sweep.ParseFormat(fname)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return f, false
	}
	if st := j.Snapshot().Status; st != api.StatusDone {
		WriteError(w, http.StatusConflict, "job is %s; artifact requires done", st)
		return f, false
	}
	switch f {
	case sweep.FormatJSON:
		w.Header().Set("Content-Type", "application/json")
	case sweep.FormatCSV:
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	return f, true
}

// WriteJSON writes v as the indented JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes an api.Error body with the formatted message.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, api.Error{Code: code, Message: fmt.Sprintf(format, args...)})
}

// ShortID abbreviates a job id or warm key to 12 characters for logs
// and span attributes.
func ShortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// jobEntry is the daemon's side of one job: the shared record plus its
// run. It doubles as the cache entry once the job completes.
type jobEntry struct {
	*Job

	// ctx governs this job's run (derived from the server's base
	// context); cancel aborts it. DELETE /v1/jobs/{id} — the hedging
	// coordinator's "cancel the loser" path — calls cancel with a
	// client-cancellation cause. Both are set before execute starts.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// span is the job's root-on-this-node span, opened at submit and
	// ended by finish; created stamps the submit time for the
	// queue-wait span. Both are written before execute starts and
	// read-only after.
	span    *tracing.ActiveSpan
	created time.Time

	// okJobs, failed and aggs fold the sweep's progress reports (the
	// source of partial summaries); they are guarded by the record's
	// lock, taken by onProgress through Job.Progress.
	okJobs int
	failed int
	aggs   map[string]sweep.Agg
	// table is set before Finish publishes done and read only once the
	// job reads done.
	table *sweep.Table

	// met receives per-simulation latency/outcome observations from
	// onProgress (may be nil in tests).
	met *serverMetrics
}

func newJobEntry(id string, req api.JobRequest, met *serverMetrics) *jobEntry {
	return &jobEntry{Job: NewJob(id, req), aggs: make(map[string]sweep.Agg), met: met}
}

// onProgress is the sweep engine's progress hook: it folds each
// finished simulation into the live Progress snapshot and the running
// metric aggregates, then fans the snapshot out to SSE subscribers.
// The sweep serializes calls, so Completed is monotonic.
func (e *jobEntry) onProgress(p sweep.Progress) {
	if e.met != nil {
		e.met.observeSim(p.Elapsed.Seconds(), p.Err != nil)
	}
	e.Progress(func(prog *api.Progress) bool {
		prog.Completed = p.Completed
		prog.Total = p.Total
		if p.Err == nil {
			e.okJobs++
		} else {
			e.failed++
		}
		for name, v := range p.Metrics {
			agg := e.aggs[name]
			agg.Add(v)
			e.aggs[name] = agg
		}
		if v := e.aggs[sweep.MetricPeakTempK]; v.Count > 0 {
			prog.PeakTempK = v.Max
		}
		if v, ok := p.Metrics[sweep.MetricCyclesPerSec]; ok {
			prog.CyclesPerSec = v
		}
		prog.SimCycles = e.aggs[sweep.MetricSimCycles].Sum
		return true
	})
}

// logAttrs returns the job's trace correlation attrs for log lines
// (empty when tracing is off), so job-scoped logs and spans join up.
func (e *jobEntry) logAttrs() []any {
	sc := e.span.Context()
	if !sc.Valid() {
		return nil
	}
	return []any{"trace_id", sc.TraceID.String(), "span_id", sc.SpanID.String()}
}

// finish records the terminal state, builds a partial summary when the
// sweep did not complete, hands the terminal record to persist, and
// only then publishes the state: a reader who sees the job terminal
// (status poll, SSE "done", Wait) finds its record already on disk.
func (e *jobEntry) finish(st api.Status, table *sweep.Table, err error, persist func(record)) {
	e.span.SetAttr("status", string(st))
	e.span.EndErr(err)
	e.mu.Lock()
	var partial *sweep.Summary
	if table == nil && (e.okJobs > 0 || e.failed > 0 || e.prog.Total > 0) {
		// The sweep was cut short: rebuild what the Summary would have
		// aggregated from the progress events received so far.
		partial = &sweep.Summary{
			Jobs:      e.prog.Total,
			Succeeded: e.okJobs,
			Failed:    e.failed,
			Skipped:   e.prog.Total - e.okJobs - e.failed,
			Metrics:   e.aggs,
		}
	}
	rec := record{ID: e.ID, Request: e.Request, Status: st, Progress: e.prog, Table: table, Summary: partial}
	if err != nil {
		rec.Error = err.Error()
	}
	e.mu.Unlock()
	persist(rec)

	summary := partial
	if table != nil {
		summary = table.Summary
	}
	e.table = table
	e.Finish(st, summary, rec.Error)
}
