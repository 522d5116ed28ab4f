// Package sweep is the parallel execution substrate for the evaluation
// harness: every figure and table of the paper is a sweep of
// independent simulations, and this package runs such sweeps with
// bounded workers, context cancellation, fail-fast error handling,
// per-job metrics aggregated into a Summary, deterministic seed
// derivation, and structured artifact export (ASCII, JSON, CSV).
//
// The engine guarantees determinism of the *results*: job outcomes are
// stored at their input index, so a sweep over deterministic jobs
// produces identical Results regardless of Parallelism or goroutine
// scheduling. Only timing fields (Elapsed, Summary wall times) vary
// between runs.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
)

// Job is one independent unit of work. Run receives the sweep context
// and should return promptly once it is cancelled; long-running jobs
// that ignore the context still complete and have their result kept.
type Job[T any] struct {
	Key string
	Run func(ctx context.Context) (T, error)
}

// JobResult is the outcome of one job.
type JobResult[T any] struct {
	Key   string
	Index int
	Value T
	Err   error
	// Skipped marks a job that was never started because the sweep was
	// cancelled first (its Err is the cancellation cause).
	Skipped bool
	// Elapsed is the job's wall time.
	Elapsed time.Duration
}

// Options tune a sweep.
type Options[T any] struct {
	// Parallelism bounds concurrent jobs (<=0: GOMAXPROCS).
	Parallelism int
	// Metrics, when set, extracts named measurements from each
	// successful job; they are aggregated into Summary.Metrics in
	// input order (so the aggregation is deterministic).
	Metrics func(r JobResult[T]) map[string]float64
	// OnProgress, when set, is called after each job finishes with a
	// snapshot of the sweep so far (serially, in completion order).
	// Completed is monotonically non-decreasing across calls. The
	// snapshot carries the finished job's measurements as extracted by
	// Metrics, so a live consumer (progress bar, SSE stream) sees the
	// same numbers the final Summary will aggregate.
	OnProgress func(p Progress)
}

// Progress is a point-in-time snapshot of a running sweep, delivered
// to Options.OnProgress after each job finishes. Skipped jobs never
// ran and produce no Progress event, so Completed reaches Total only
// when every job actually executed.
type Progress struct {
	// Completed counts jobs finished so far (succeeded or failed).
	Completed int
	// Total is the number of jobs in the sweep.
	Total int
	// Key and Err identify the job that just finished and its outcome.
	Key string
	Err error
	// Elapsed is the finished job's wall time, so a live consumer can
	// feed latency metrics without re-timing.
	Elapsed time.Duration
	// Metrics are the finished job's measurements as extracted by
	// Options.Metrics (nil when unset or the job failed).
	Metrics map[string]float64
}

// Result is the outcome of a sweep: one JobResult per input job, in
// input order, plus the aggregated Summary.
type Result[T any] struct {
	Jobs    []JobResult[T]
	Summary Summary
}

// ByKey returns the successful job values keyed by Job.Key. Later
// duplicates of a key overwrite earlier ones.
func (r *Result[T]) ByKey() map[string]T {
	m := make(map[string]T, len(r.Jobs))
	for _, j := range r.Jobs {
		if j.Err == nil && !j.Skipped {
			m[j.Key] = j.Value
		}
	}
	return m
}

// FirstErr returns the first non-cancellation job error in input
// order, or the first cancellation error if that is all there is.
func (r *Result[T]) FirstErr() error {
	var cancelErr error
	for _, j := range r.Jobs {
		if j.Err == nil {
			continue
		}
		if j.Skipped || errors.Is(j.Err, context.Canceled) || errors.Is(j.Err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = j.Err
			}
			continue
		}
		return fmt.Errorf("sweep: job %s: %w", j.Key, j.Err)
	}
	return cancelErr
}

// Run executes the jobs with bounded parallelism. The first failing
// job cancels the rest: jobs already running finish and keep their
// results, and jobs not yet started are marked Skipped. Run always
// returns a non-nil Result holding whatever completed; the error is
// the first failure in input order (see FirstErr), or the context's
// error if the caller cancelled.
func Run[T any](ctx context.Context, jobs []Job[T], o Options[T]) (*Result[T], error) {
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(jobs) {
		par = len(jobs)
	}
	if par < 1 {
		par = 1
	}

	start := time.Now()
	res := &Result[T]{Jobs: make([]JobResult[T], len(jobs))}
	for i, j := range jobs {
		res.Jobs[i] = JobResult[T]{Key: j.Key, Index: i, Skipped: true}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The feeder hands out input indices; it stops at cancellation so
	// unstarted jobs stay Skipped instead of burning a worker slot.
	next := make(chan int)
	go func() {
		defer close(next)
		for i := range jobs {
			select {
			case next <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var doneMu sync.Mutex
	completed := 0
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				jr := runOne(runCtx, jobs[i], i)
				res.Jobs[i] = jr
				if jr.Err != nil {
					cancel()
				}
				if o.OnProgress != nil && !jr.Skipped {
					doneMu.Lock()
					completed++
					p := Progress{Completed: completed, Total: len(jobs), Key: jr.Key, Err: jr.Err, Elapsed: jr.Elapsed}
					if o.Metrics != nil && jr.Err == nil {
						p.Metrics = o.Metrics(jr)
					}
					o.OnProgress(p)
					doneMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Attribute the cancellation cause to the jobs it prevented.
	if err := runCtx.Err(); err != nil {
		if cause := context.Cause(runCtx); cause != nil {
			err = cause
		}
		for i := range res.Jobs {
			if res.Jobs[i].Skipped && res.Jobs[i].Err == nil {
				res.Jobs[i].Err = err
			}
		}
	}

	res.Summary = summarize(res, par, time.Since(start), o.Metrics)
	return res, res.FirstErr()
}

// runOne executes a single job under its sweep.job span, unless the
// sweep was cancelled before it started.
func runOne[T any](ctx context.Context, j Job[T], idx int) JobResult[T] {
	jr := JobResult[T]{Key: j.Key, Index: idx}
	if err := ctx.Err(); err != nil {
		jr.Skipped, jr.Err = true, err
		return jr
	}
	start := time.Now()
	actx, sp := tracing.StartSpan(ctx, "sweep.job")
	sp.SetAttr("key", j.Key)
	jr.Value, jr.Err = j.Run(actx)
	sp.EndErr(jr.Err)
	jr.Elapsed = time.Since(start)
	return jr
}
