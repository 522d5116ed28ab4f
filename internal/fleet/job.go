package fleet

import (
	"context"
	"sync"

	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// fleetJob is the coordinator's side of one content-addressed job: the
// job record a daemon serves (server.Job: same ID scheme, status and
// SSE stream, so clients cannot tell the coordinator from a single
// daemon) plus its dispatch state. Worker death mid-job stays
// invisible: the record survives the attempt that died and carries the
// retry's progress on the same stream.
type fleetJob struct {
	*server.Job

	// ctx carries the job's fleet.job span (and the coordinator's
	// tracer) into runJob so dispatch attempts parent under it; span is
	// that root span, ended at terminal. Both are written in
	// handleSubmit before runJob starts and read-only after.
	ctx  context.Context
	span *tracing.ActiveSpan

	mu sync.Mutex
	// winner is the worker whose result completed the job (artifact
	// reads proxy to it); it is set before the job is published done.
	// workerIDs records the job's ID on every worker it was dispatched
	// to, for loser cancellation. The IDs equal the job's ID when
	// coordinator and worker run the same build — with a mixed-version
	// fleet they differ, which is why they are tracked per worker
	// instead of assumed.
	winner    *worker
	winnerJob string
	workerIDs map[*worker]string
}

func newFleetJob(id string, req api.JobRequest) *fleetJob {
	return &fleetJob{Job: server.NewJob(id, req), workerIDs: make(map[*worker]string)}
}

// recordWorkerID remembers the job's ID on a worker it was submitted
// to; it also flips the fleet job to running (a worker has it).
func (fj *fleetJob) recordWorkerID(w *worker, id string) {
	fj.mu.Lock()
	fj.workerIDs[w] = id
	fj.mu.Unlock()
	fj.Start()
}

// attemptedWorkers lists every (worker, worker-side job ID) pair this
// job was submitted to.
func (fj *fleetJob) attemptedWorkers() map[*worker]string {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	out := make(map[*worker]string, len(fj.workerIDs))
	for w, id := range fj.workerIDs {
		out[w] = id
	}
	return out
}

// applyProgress folds a worker's progress frame into the fleet job
// and fans it out. Hedged dispatches can report concurrently from two
// workers at different points in the sweep; progress never regresses
// because frames behind the high-water mark are dropped (both workers
// run the identical deterministic sweep, so the frames agree wherever
// they overlap).
func (fj *fleetJob) applyProgress(p api.Progress) {
	fj.Progress(func(cur *api.Progress) bool {
		if p.Completed < cur.Completed {
			return false
		}
		*cur = p
		return true
	})
}

// finishFrom adopts a worker's terminal status as the fleet job's
// outcome and releases subscribers. The winning worker is recorded so
// artifact requests proxy to the replica that actually holds the
// rendered result. runJob, the one caller that finishes a job, returns
// right after, so the winner is recorded once.
func (fj *fleetJob) finishFrom(st *api.JobStatus, w *worker) {
	// The worker's final progress rides on the "done" frame, not a
	// progress frame of its own.
	fj.Progress(func(cur *api.Progress) bool {
		if st.Progress.Completed >= cur.Completed {
			*cur = st.Progress
		}
		return false
	})
	fj.mu.Lock()
	fj.winner, fj.winnerJob = w, st.ID
	fj.mu.Unlock()
	fj.finish(st.Status, st.Summary, st.Error)
}

// finish ends the fleet.job span, then makes the job terminal, so a
// reader who sees the job terminal finds the span recorded. A
// coordinator-side failure (no worker produced a result) finishes with
// no summary.
func (fj *fleetJob) finish(st api.Status, summary *sweep.Summary, errMsg string) {
	fj.span.SetAttr("status", string(st))
	if errMsg != "" {
		fj.span.SetAttr("error", errMsg)
	}
	fj.span.End()
	fj.Finish(st, summary, errMsg)
}

// result returns the winning worker and its job ID for artifact
// proxying; they are set once the job reads done.
func (fj *fleetJob) result() (*worker, string) {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	return fj.winner, fj.winnerJob
}
