package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/server"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// attemptKind labels why a dispatch was launched, for metrics and
// hedge-win accounting.
type attemptKind string

const (
	attemptPrimary attemptKind = "primary"
	attemptRetry   attemptKind = "retry"
	attemptHedge   attemptKind = "hedge"
)

type attemptOutcome struct {
	w    *worker
	kind attemptKind
	st   *api.JobStatus
	err  error
}

// runJob drives one fleet job to a terminal state. The shape:
//
//   - Dispatch to the key's primary replica (ring order).
//   - If the dispatch fails at the transport level, or the worker
//     reports the job canceled (a draining daemon), re-dispatch to the
//     next replica in ring order — the retry path. A worker that
//     failed at transport is immediately marked unhealthy so other
//     placements avoid it before the next poll confirms.
//   - If the primary is still running after HedgeAfter, dispatch a
//     speculative duplicate to the next replica — the hedge path. The
//     first terminal done wins; every other attempt is cancelled on
//     its worker (DELETE /v1/jobs/{id}).
//   - A worker-reported *failed* job is NOT retried: sweeps are
//     deterministic, so a genuine failure reproduces on every replica
//     and retrying would only triple the cost of learning it.
//
// Determinism is what makes all of this safe: any two workers given
// the same job ID produce byte-identical results, so races between
// retry, hedge, and primary cannot change the answer — only who
// delivers it first.
func (c *Coordinator) runJob(fj *fleetJob) {
	defer c.wg.Done()
	defer c.flightRecord(fj) // after terminal: persist the stitched trace
	base := fj.ctx
	if base == nil {
		base = c.baseCtx
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()

	cands := c.placement(fj.ID)
	if len(cands) == 0 {
		fj.finish(api.StatusFailed, nil, "no healthy workers")
		return
	}

	resCh := make(chan attemptOutcome, len(cands))
	inflight := 0
	next := 0
	// prev is the previous attempt's span context: a retry links to the
	// attempt it replaces, a hedge to the straggler it duplicates.
	// launch only runs on the select-loop goroutine, so prev is
	// race-free.
	var prev tracing.SpanContext
	launch := func(kind attemptKind) {
		w := cands[next]
		next++
		inflight++
		c.log.Info("dispatch", "job", server.ShortID(fj.ID), "worker", w.label(), "kind", string(kind))
		actx, sp := tracing.StartSpan(ctx, "fleet.dispatch")
		sp.SetAttr("worker", w.label())
		sp.SetAttr("kind", string(kind))
		switch kind {
		case attemptRetry:
			sp.Link(prev, tracing.LinkRetry)
		case attemptHedge:
			sp.Link(prev, tracing.LinkHedge)
		}
		prev = sp.Context()
		go func() {
			start := time.Now()
			st, err := c.dispatchOnce(actx, w, fj)
			c.met.dispatchDur.Observe(time.Since(start).Seconds())
			sp.EndErr(err)
			resCh <- attemptOutcome{w: w, kind: kind, st: st, err: err}
		}()
	}
	launch(attemptPrimary)

	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 && next < len(cands) {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for inflight > 0 {
		select {
		case o := <-resCh:
			inflight--
			switch {
			case o.err == nil && o.st != nil && o.st.Status == api.StatusDone:
				fj.finishFrom(o.st, o.w)
				if o.kind == attemptHedge {
					c.met.hedgeWins.Inc()
				}
				cancel() // unblocks the losing attempts' waits
				c.cancelLosers(fj, o.w)
				for inflight > 0 { // drain so the goroutines can exit
					<-resCh
					inflight--
				}
				return
			case o.err == nil && o.st != nil && o.st.Status == api.StatusFailed:
				// Deterministic failure: every replica would agree.
				fj.finishFrom(o.st, o.w)
				cancel()
				c.cancelLosers(fj, o.w)
				for inflight > 0 {
					<-resCh
					inflight--
				}
				return
			case ctx.Err() != nil:
				// Shutdown (or a drain after a winner, handled above).
				fj.finish(api.StatusCanceled, nil, "coordinator shutting down")
				for inflight > 0 {
					<-resCh
					inflight--
				}
				return
			default:
				// Transport failure, or the worker cancelled the job
				// under us (drain): retry on the next replica.
				if o.err != nil {
					lastErr = fmt.Errorf("worker %s: %w", o.w.label(), o.err)
					if isTransportErr(o.err) {
						c.markUnhealthy(o.w)
					}
				} else {
					lastErr = fmt.Errorf("worker %s: job %s: %s", o.w.label(), o.st.Status, o.st.Error)
				}
				c.log.Info("dispatch attempt failed", "job", server.ShortID(fj.ID), "worker", o.w.label(), "err", lastErr)
				if next < len(cands) {
					c.met.retries.Inc()
					launch(attemptRetry)
				} else if inflight == 0 {
					fj.finish(api.StatusFailed, nil, fmt.Sprintf("all %d replicas failed, last: %v", len(cands), lastErr))
					return
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) && inflight > 0 {
				c.met.hedges.Inc()
				launch(attemptHedge)
			}
		case <-c.baseCtx.Done():
			fj.finish(api.StatusCanceled, nil, "coordinator shutting down")
			for inflight > 0 {
				<-resCh
				inflight--
			}
			return
		}
	}
}

// dispatchOnce runs one attempt on one worker: ship missing warmup
// snapshots, submit, and wait for the terminal state while feeding
// progress frames into the fleet job's SSE fan-out.
func (c *Coordinator) dispatchOnce(ctx context.Context, w *worker, fj *fleetJob) (*api.JobStatus, error) {
	c.shipWarm(ctx, w, fj.Request)
	st, err := w.cl.Submit(ctx, fj.Request)
	if err != nil {
		return nil, err
	}
	fj.recordWorkerID(w, st.ID)
	if st.Status.Terminal() {
		return st, nil
	}
	return w.cl.Wait(ctx, st.ID, fj.applyProgress)
}

// isTransportErr distinguishes "the worker is unreachable" (eject it
// from the ring now) from an application-level refusal like a 429
// (the worker is alive, just busy — leave its placement alone).
func isTransportErr(err error) bool {
	var uerr *url.Error
	return errors.As(err, &uerr)
}

// cancelLosers aborts the job on every worker it was dispatched to
// except the winner — the hedged duplicate (or a superseded retry
// still draining) stops burning simulation cycles. Best effort and
// asynchronous: the winner's result is already recorded.
func (c *Coordinator) cancelLosers(fj *fleetJob, winner *worker) {
	for w, id := range fj.attemptedWorkers() {
		if w == winner {
			continue
		}
		go func(w *worker, id string) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := w.cl.Cancel(ctx, id); err != nil {
				c.log.Info("loser cancel failed", "job", server.ShortID(id), "worker", w.label(), "err", err)
			}
		}(w, id)
	}
}
