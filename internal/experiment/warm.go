package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
)

// WarmStore holds warm records under their warm keys: one core's or
// one die's post-warmup state each (see sim.WarmRecord).
// Implementations must be safe for concurrent use; Get must return a
// record the caller may restore from while other callers hold the same
// pointer (restores copy, never alias).
type WarmStore interface {
	Get(key string) (*sim.WarmRecord, bool)
	Put(key string, rec *sim.WarmRecord)
}

// memStore is the in-memory WarmStore a run uses when the caller
// supplies none.
type memStore struct {
	mu sync.Mutex
	m  map[string]*sim.WarmRecord
}

func (s *memStore) Get(key string) (*sim.WarmRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.m[key]
	return rec, ok
}

func (s *memStore) Put(key string, rec *sim.WarmRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = rec
}

// warmKeys names a job's warm state: one key per core and the die's.
//
// A core warms alone, with no thermal step, so its post-warmup state
// depends on its own programs and the warm configuration but not on
// the die: its key hashes the WarmDigest with the topology cleared, and
// the same program keys alike on one core, on a 2-core die and on a
// 4-core one. The die's post-warmup state is its anchored steady state,
// which reads the configuration alone: its key hashes the WarmDigest
// with the topology kept and no programs. The DTM scope and policy,
// the sedation thresholds and the measurement quantum are left out
// (warmup never reads them), so one warm state serves every policy and
// threshold variant of a machine.
type warmKeys struct {
	cores []string
	die   string
}

// keysOf derives job j's warm keys.
func keysOf(o Options, j job) warmKeys {
	k := warmKeys{cores: make([]string, len(j.cores)), die: warmKeyOf(o, j.cfg.WarmDigest(), "", j.opts)}
	wd := sim.CoreWarmDigest(j.cfg)
	for c, threads := range j.cores {
		k.cores[c] = warmKeyOf(o, wd, sim.ProgramsDigest(threads), j.opts)
	}
	return k
}

// warmKeyOf hashes the identity of a warm state: the warm config
// digest, the programs digest (empty for a die), the warmup length and
// fast-forward switch, the state format version and the caller's code
// version — the last two guard persistent stores against stale
// records.
func warmKeyOf(o Options, warmDigest, programs string, opts sim.Options) string {
	h := sha256.New()
	io.WriteString(h, "heatstroke-warm\x00")
	io.WriteString(h, warmDigest)
	h.Write([]byte{0})
	io.WriteString(h, programs)
	fmt.Fprintf(h, "\x00%d\x00%d\x00%s\x00%t", opts.WarmupCycles, sim.StateVersion, o.CodeVersion, opts.DisableFastForward)
	return hex.EncodeToString(h.Sum(nil))
}

// job hashes the whole warm identity: the key under which a sweep
// warms the job once.
func (k warmKeys) job() string {
	h := sha256.New()
	for _, c := range k.cores {
		io.WriteString(h, c)
		h.Write([]byte{0})
	}
	io.WriteString(h, k.die)
	return hex.EncodeToString(h.Sum(nil))
}

// warmState is a job's assembled warm state, shared read-only by every
// job of the same warm identity.
type warmState struct {
	cores []*sim.CoreWarm
	die   *thermal.SolverState
}

// restore loads the warm state into s in place of its warmup.
func (w *warmState) restore(s *sim.Simulator) error {
	for c, cw := range w.cores {
		if err := s.RestoreCore(c, cw); err != nil {
			return err
		}
	}
	return s.FinishWarmup(w.die)
}

// buildWarm assembles job j's warm state from the store and simulates
// what the store lacks: a missing core warms alone and a missing die
// anchors, in a simulator running no DTM policy, and each is stored. A
// core key repeated inside the die warms once. Concurrent jobs may both
// warm a key neither found stored; warm states are deterministic, so
// either record serves.
func buildWarm(ctx context.Context, o Options, j job, k warmKeys) (*warmState, error) {
	w := &warmState{cores: make([]*sim.CoreWarm, len(j.cores))}
	var s *sim.Simulator
	warming := func() (err error) {
		if s == nil {
			s, err = sim.NewMulti(j.cfg, j.cores, sim.Options{
				Policy:             dtm.None,
				WarmupCycles:       j.opts.WarmupCycles,
				DisableFastForward: j.opts.DisableFastForward,
			})
		}
		return err
	}
	for c, key := range k.cores {
		if first := slices.Index(k.cores, key); first < c {
			w.cores[c] = w.cores[first]
			continue
		}
		if rec, ok := o.WarmupCache.Get(key); ok && rec.Core != nil {
			w.cores[c] = rec.Core
			continue
		}
		if err := warming(); err != nil {
			return nil, err
		}
		if err := s.WarmCore(c); err != nil {
			return nil, err
		}
		w.cores[c] = s.CaptureCore(c)
		o.WarmupCache.Put(key, &sim.WarmRecord{Version: sim.StateVersion, Core: w.cores[c]})
	}
	if rec, ok := o.WarmupCache.Get(k.die); ok && rec.Die != nil {
		w.die = rec.Die
	} else {
		if err := warming(); err != nil {
			return nil, err
		}
		die := s.Solver().State()
		w.die = &die
		o.WarmupCache.Put(k.die, &sim.WarmRecord{Version: sim.StateVersion, Die: w.die})
	}
	if s == nil {
		tracing.Active(ctx).SetAttr("warm_cached", "true")
	}
	return w, nil
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
	s, err := sim.NewMulti(j.cfg, j.cores, j.opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// runFromWarm builds the job's simulator, restores every core and the
// die from the shared warm state, and runs the measurement quantum.
// The restores copy, so many jobs may restore from one warm state
// concurrently.
func runFromWarm(ctx context.Context, o Options, j job, warm any) (*sim.Result, error) {
	w, ok := warm.(*warmState)
	if !ok {
		return nil, fmt.Errorf("experiment: warm state is %T, want *warmState", warm)
	}
	traceSimOpts(ctx, &j.opts)
	s, err := sim.NewMulti(j.cfg, j.cores, j.opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, rsp := tracing.StartSpan(ctx, "warm.restore")
	err = w.restore(s)
	rsp.EndErr(err)
	if err != nil {
		return nil, err
	}
	if o.OnRestore != nil {
		o.OnRestore(time.Since(start).Seconds())
	}
	return s.Run()
}

// sweepJobs builds the sweep's jobs. Each runs cold or, unless
// DisableWarmupReuse is set, through the warm-sharing hooks: Warm
// assembles the job's warm state once per warm identity, RunWarm
// measures from it.
func sweepJobs(jobs []job, o Options) []sweep.Job[*sim.Result] {
	sjobs := make([]sweep.Job[*sim.Result], len(jobs))
	for i, j := range jobs {
		sj := &sjobs[i]
		sj.Key = j.key
		sj.Run = func(ctx context.Context) (*sim.Result, error) {
			return runCold(ctx, j)
		}
		if j.opts.WarmupCycles <= 0 || o.DisableWarmupReuse {
			continue
		}
		k := keysOf(o, j)
		sj.WarmKey = k.job()
		sj.Warm = func(ctx context.Context) (any, error) {
			return buildWarm(ctx, o, j, k)
		}
		sj.RunWarm = func(ctx context.Context, warm any) (*sim.Result, error) {
			return runFromWarm(ctx, o, j, warm)
		}
	}
	return sjobs
}
