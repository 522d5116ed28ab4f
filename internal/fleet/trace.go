package fleet

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// handleTrace serves GET /v1/traces/{id}: the coordinator's own spans
// for the trace stitched together with every reachable worker's, so
// one fetch reconstructs the whole distributed tree — client edge,
// fleet.job, each dispatch attempt, and the worker-side job spans down
// to individual sim quanta. The id may be a trace id or a job id (see
// server.TraceID).
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	tid, ok := server.TraceID(w, r, c.tracer, c.job)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	spans := c.stitchTrace(ctx, tid)
	if len(spans) == 0 {
		server.WriteError(w, http.StatusNotFound, "unknown trace")
		return
	}
	server.WriteJSON(w, http.StatusOK, api.Trace{TraceID: tid, Spans: spans})
}

// stitchTrace merges the coordinator's spans for one trace with every
// registered worker's (best effort: an unreachable worker's spans are
// simply absent, exactly as a flight recorder should behave when a
// node died — the surviving spans still tell the story).
func (c *Coordinator) stitchTrace(ctx context.Context, traceID string) []tracing.Span {
	groups := [][]tracing.Span{c.tracer.Spans(traceID)}
	c.mu.Lock()
	ws := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	for _, wk := range ws {
		tr, err := wk.cl.Trace(ctx, traceID)
		if err != nil {
			continue // dead or trace-unaware worker: skip
		}
		groups = append(groups, tr.Spans)
	}
	return tracing.Stitch(groups...)
}

// flightRecord persists a terminal job's stitched trace to
// {TraceDir}/{traceID}.ndjson — one JSON span per line, the input
// format of heatstroke-trace -stitch. Runs after the job's last
// dispatch settles, so the workers' spans are already closed.
func (c *Coordinator) flightRecord(fj *fleetJob) {
	if c.opts.TraceDir == "" || c.tracer == nil || fj.TraceID == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	spans := c.stitchTrace(ctx, fj.TraceID)
	if len(spans) == 0 {
		return
	}
	path := filepath.Join(c.opts.TraceDir, fj.TraceID+".ndjson")
	// Write-to-temp + rename: a reader that finds the file finds all of
	// it, never a torn prefix.
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		c.log.Info("flight-recorder write failed", "path", path, "err", err)
		return
	}
	werr := tracing.WriteNDJSON(f, spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		c.log.Info("flight-recorder write failed", "path", path, "err", werr)
		return
	}
	c.log.Info("trace recorded", "trace", fj.TraceID, "spans", len(spans), "path", path)
}
