package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
)

// SnapshotStore persists warmup snapshots across experiment runs (the
// in-sweep sharing needs no store — the sweep engine deduplicates warm
// keys by itself). Implementations must be safe for concurrent use;
// Get must return a state the caller may restore from while other
// callers hold the same pointer (sim.Restore copies, never aliases).
type SnapshotStore interface {
	Get(key string) (*sim.MachineState, bool)
	Put(key string, ms *sim.MachineState)
}

// warmKey names the warm state a job can share: everything the
// post-warmup machine state depends on, and nothing it doesn't. The
// DTM policy and observation options are deliberately excluded —
// warmup never ticks the policy, so one warm state serves all of them
// — and the config is hashed through WarmDigest, which additionally
// zeroes the engine-only sedation thresholds and the measurement
// quantum, so threshold-sweep variants share one prefix too. The
// snapshot format version and the caller's code version guard
// persistent stores against stale entries.
func warmKey(o Options, j job) string {
	return warmKeyOf(o, j.cfg.WarmDigest(), sim.ProgramsDigest(j.threads), j.opts.WarmupCycles, j.opts.DisableFastForward)
}

// warmKeyOf hashes the identity of a warm state: the warm config
// digest, the programs digest, the warmup length and fast-forward
// switch, the snapshot format version and the caller's code version.
// warmKey and the whole-die per-core key are both built with it.
func warmKeyOf(o Options, warmDigest, progsDigest string, warmup int64, noFastForward bool) string {
	h := sha256.New()
	io.WriteString(h, "heatstroke-warm\x00")
	io.WriteString(h, warmDigest)
	h.Write([]byte{0})
	io.WriteString(h, progsDigest)
	fmt.Fprintf(h, "\x00%d\x00%d\x00%s\x00%t", warmup, sim.StateVersion, o.CodeVersion, noFastForward)
	return hex.EncodeToString(h.Sum(nil))
}

// traceSimOpts copies the context's tracer and current span into the
// job's sim options so the simulator records its quantum-boundary span
// under the per-job span. A no-op (and no allocation) when the context
// carries no tracer.
func traceSimOpts(ctx context.Context, opts *sim.Options) {
	if tr := tracing.TracerFrom(ctx); tr != nil {
		opts.Tracer = tr
		if sc, ok := tracing.SpanContextFrom(ctx); ok {
			opts.TraceParent = sc
		}
	}
}

// runCold runs a job from scratch: construct, warm up, measure.
func runCold(ctx context.Context, j job) (*sim.Result, error) {
	traceSimOpts(ctx, &j.opts)
	s, err := sim.New(j.cfg, j.threads, j.opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// buildWarm produces (or fetches from the persistent store) the
// policy-agnostic warmup snapshot for key. The warming simulator runs
// no policy: warmup never ticks it, and leaving it out keeps the
// snapshot restorable under all of them.
func buildWarm(ctx context.Context, o Options, j job, key string) (*sim.MachineState, error) {
	if o.WarmupCache != nil {
		if ms, ok := o.WarmupCache.Get(key); ok {
			tracing.Active(ctx).SetAttr("warm_cached", "true")
			return ms, nil
		}
	}
	s, err := sim.New(j.cfg, j.threads, sim.Options{
		Policy:             dtm.None,
		WarmupCycles:       j.opts.WarmupCycles,
		DisableFastForward: j.opts.DisableFastForward,
	})
	if err != nil {
		return nil, err
	}
	ms, err := s.WarmupSnapshot()
	if err != nil {
		return nil, err
	}
	if o.WarmupCache != nil {
		o.WarmupCache.Put(key, ms)
	}
	return ms, nil
}

// runFromWarm restores the shared warm state into a fully-optioned
// simulator and runs the measurement quantum. warm is read-only: many
// jobs restore from the same pointer, possibly concurrently, and
// sim.Restore copies rather than aliases. The simulator itself comes
// from the run's reuse pool when one is configured — the restore
// overwrites all of a recycled simulator's state, so results are
// byte-identical to fresh construction — and goes back to the pool
// after a clean run.
func runFromWarm(ctx context.Context, o Options, j job, warm any) (*sim.Result, error) {
	ms, ok := warm.(*sim.MachineState)
	if !ok {
		return nil, fmt.Errorf("experiment: warm state is %T, want *sim.MachineState", warm)
	}
	traceSimOpts(ctx, &j.opts)
	s, err := o.simPool.Get(j.cfg, j.threads, j.opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, rsp := tracing.StartSpan(ctx, "warm.restore")
	if err := s.Restore(ms); err != nil {
		rsp.EndErr(err)
		return nil, err
	}
	rsp.End()
	if o.OnRestore != nil {
		o.OnRestore(time.Since(start).Seconds())
	}
	res, err := s.Run()
	if err == nil {
		o.simPool.Put(s)
	}
	return res, err
}

// warmJob fills in the sweep job's warmup-sharing hooks for the flat
// path: Warm builds the shared snapshot, RunWarm measures from it.
func warmJob(o Options, j job, sj *sweep.Job[*sim.Result]) {
	key := warmKey(o, j)
	sj.WarmKey = key
	sj.Warm = func(ctx context.Context) (any, error) {
		return buildWarm(ctx, o, j, key)
	}
	sj.RunWarm = func(ctx context.Context, warm any) (*sim.Result, error) {
		return runFromWarm(ctx, o, j, warm)
	}
}
