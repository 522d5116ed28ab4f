package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// jobEntry is the server-side state of one content-addressed job. It
// doubles as the cache entry once the job completes.
type jobEntry struct {
	id  string
	req api.JobRequest // resolved: every default filled in

	// ctx governs this job's run (derived from the server's base
	// context); cancel aborts it. DELETE /v1/jobs/{id} — the hedging
	// coordinator's "cancel the loser" path — calls cancel with a
	// client-cancellation cause. Both are set before execute starts.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// span is the job's root-on-this-node span, opened at submit and
	// ended by finish; traceID is its trace in hex ("" when tracing is
	// off); created stamps the submit time for the queue-wait span.
	// All three are written before execute starts and read-only after.
	span    *tracing.ActiveSpan
	traceID string
	created time.Time

	mu      sync.Mutex
	status  api.Status
	prog    api.Progress
	okJobs  int
	failed  int
	aggs    map[string]sweep.Agg
	table   *sweep.Table
	err     error
	partial *sweep.Summary
	subs    map[chan api.Event]struct{}
	done    chan struct{}

	// met receives per-simulation latency/outcome observations from
	// onProgress (may be nil in tests).
	met *serverMetrics
}

func newJobEntry(id string, req api.JobRequest, met *serverMetrics) *jobEntry {
	return &jobEntry{
		id:     id,
		req:    req,
		status: api.StatusQueued,
		aggs:   make(map[string]sweep.Agg),
		subs:   make(map[chan api.Event]struct{}),
		done:   make(chan struct{}),
		met:    met,
	}
}

// snapshot renders the entry as a wire JobStatus.
func (e *jobEntry) snapshot() api.JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

func (e *jobEntry) snapshotLocked() api.JobStatus {
	st := api.JobStatus{
		ID:         e.id,
		Experiment: e.req.Experiment,
		Request:    e.req,
		Status:     e.status,
		Progress:   e.prog,
		TraceID:    e.traceID,
	}
	if e.table != nil && e.table.Summary != nil {
		st.Summary = e.table.Summary
	} else if e.partial != nil {
		st.Summary = e.partial
	}
	if e.err != nil {
		st.Error = e.err.Error()
	}
	return st
}

// result returns the terminal status and table (nil until done).
func (e *jobEntry) result() (api.Status, *sweep.Table) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status, e.table
}

func (e *jobEntry) setStatus(st api.Status) {
	e.mu.Lock()
	e.status = st
	e.mu.Unlock()
}

// onProgress is the sweep engine's progress hook: it folds each
// finished simulation into the live Progress snapshot and the running
// metric aggregates (the source of partial summaries), then fans the
// snapshot out to SSE subscribers. The sweep serializes calls, so
// Completed is monotonic.
func (e *jobEntry) onProgress(p sweep.Progress) {
	if e.met != nil {
		e.met.observeSim(p.Elapsed.Seconds(), p.Err != nil)
	}
	e.mu.Lock()
	e.prog.Completed = p.Completed
	e.prog.Total = p.Total
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
		e.prog.PeakTempK = v.Max
	}
	if v, ok := p.Metrics[sweep.MetricCyclesPerSec]; ok {
		e.prog.CyclesPerSec = v
	}
	e.prog.SimCycles = e.aggs[sweep.MetricSimCycles].Sum
	snap := e.prog
	e.broadcastLocked(api.Event{Type: "progress", Progress: &snap})
	e.mu.Unlock()
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
	if e.span != nil {
		e.span.SetAttr("status", string(st))
		e.span.EndErr(err)
	}
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
	rec := record{ID: e.id, Request: e.req, Status: st, Progress: e.prog, Table: table, Summary: partial}
	if err != nil {
		rec.Error = err.Error()
	}
	e.mu.Unlock()
	persist(rec)

	e.mu.Lock()
	e.status = st
	e.table = table
	e.err = err
	e.partial = partial
	job := e.snapshotLocked()
	e.broadcastLocked(api.Event{Type: "done", Job: &job})
	for ch := range e.subs {
		close(ch)
	}
	e.subs = nil
	e.mu.Unlock()
	close(e.done)
}

// subscribe registers an SSE subscriber. The returned channel first
// yields a snapshot of the current progress, then every subsequent
// event, and is closed when the job reaches a terminal state. For an
// already-terminal job the channel arrives closed after one terminal
// event.
func (e *jobEntry) subscribe() chan api.Event {
	ch := make(chan api.Event, 32)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.status.Terminal() {
		job := e.snapshotLocked()
		ch <- api.Event{Type: "done", Job: &job}
		close(ch)
		return ch
	}
	snap := e.prog
	ch <- api.Event{Type: "progress", Progress: &snap}
	e.subs[ch] = struct{}{}
	return ch
}

func (e *jobEntry) unsubscribe(ch chan api.Event) {
	e.mu.Lock()
	if _, ok := e.subs[ch]; ok {
		delete(e.subs, ch)
		close(ch)
	}
	e.mu.Unlock()
}

// broadcastLocked fans an event out without blocking: a subscriber
// whose buffer is full misses that event, which is safe because later
// progress snapshots supersede earlier ones (Completed is monotonic
// within each subscriber's stream either way).
func (e *jobEntry) broadcastLocked(ev api.Event) {
	for ch := range e.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// handleEvents streams a job's progress as server-sent events: one
// "progress" frame per finished simulation (plus an immediate snapshot
// on subscribe) and a final "done" frame carrying the terminal
// JobStatus. Heartbeat comments keep idle connections alive while the
// job waits in the queue.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch := e.subscribe()
	defer e.unsubscribe(ch)
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
				job := e.snapshot()
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
