package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
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

// flight is one warm record a job of the run is building. The builder
// sets rec, or err, and span before it closes done; waiters read them
// only after done closes.
type flight struct {
	done chan struct{}
	rec  *sim.WarmRecord
	err  error
	// span is the build span (zero when tracing is off), which jobs
	// that wait on the flight link to.
	span tracing.SpanContext
}

func (f *flight) release(rec *sim.WarmRecord, err error) {
	f.rec, f.err = rec, err
	close(f.done)
}

// wait blocks until f is released and returns its record, or returns
// the context's cause if ctx ends first.
func (f *flight) wait(ctx context.Context) (*sim.WarmRecord, error) {
	select {
	case <-f.done:
		return f.rec, f.err
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// flights holds one run's warm-record builds by warm key. A released
// flight stays in the map for the rest of the run, so a job whose
// store lookup missed just before the record was Put takes it from the
// flight instead of building the key again, and a failed build fails
// every job that needs its key instead of running again (warm states
// are deterministic, so it would fail again).
type flights struct {
	mu sync.Mutex
	m  map[string]*flight
}

// claim splits keys, which the caller found missing from the store,
// into the flights the caller now owns and must build (own) and those
// another job of the run holds (held).
func (fl *flights) claim(keys []string) (own, held map[string]*flight) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, key := range keys {
		if f, ok := fl.m[key]; ok {
			if held == nil {
				held = make(map[string]*flight)
			}
			held[key] = f
			continue
		}
		if own == nil {
			own = make(map[string]*flight)
		}
		own[key] = &flight{done: make(chan struct{})}
		fl.m[key] = own[key]
	}
	return own, held
}

// runQuantum runs s's measurement quantum under a sim.quantum span, a
// child of the job's span carrying the quantum's cycles, peak
// temperature and DTM policy. The attributes are formatted only when
// the span is live: without a tracer the span costs two context
// lookups and no allocation. A cold simulator's quantum runs its
// warmup first, inside the span.
func runQuantum(ctx context.Context, s *sim.Simulator, policy dtm.Kind) (*sim.Result, error) {
	_, sp := tracing.StartSpan(ctx, "sim.quantum")
	res, err := s.Run()
	if sp != nil && err == nil {
		sp.SetAttr("cycles", strconv.FormatInt(res.Cycles, 10))
		sp.SetAttr("peak_temp_k", strconv.FormatFloat(res.PeakTemp, 'f', 2, 64))
		sp.SetAttr("policy", string(policy))
	}
	sp.EndErr(err)
	return res, err
}

// runCold runs a job from scratch: construct, warm up, measure.
func runCold(ctx context.Context, j job) (*sim.Result, error) {
	s, err := sim.NewMulti(j.cfg, j.cores, j.opts)
	if err != nil {
		return nil, err
	}
	return runQuantum(ctx, s, j.opts.Policy)
}

// runWarm runs job j from its warm state. It looks each of the job's
// distinct warm keys (k.cores, then k.die) up in the store once and
// claims every missing key that no other job of the run is building.
// It builds the claimed keys on one warming simulator running no DTM
// policy — a core warms alone (WarmCore, CaptureCore; a key repeated
// inside the die warms once) and the die anchors (Solver().State()) —
// and Puts each record and releases its flight as soon as it is made.
// Then it waits for the keys other jobs are building, builds its own
// simulator, restores every core and the die into it, and runs the
// measurement quantum. The restores copy, so many jobs may restore
// from one record concurrently. built reports whether the job
// simulated a core warmup.
func runWarm(ctx context.Context, o Options, fl *flights, j job) (res *sim.Result, built bool, err error) {
	k := keysOf(o, j)
	recs := make(map[string]*sim.WarmRecord, len(k.cores)+1)
	var missing []string
	for i, key := range slices.Concat(k.cores, []string{k.die}) {
		if _, seen := recs[key]; seen {
			continue
		}
		rec, ok := o.WarmupCache.Get(key)
		if ok && (i < len(k.cores) && rec.Core != nil || i == len(k.cores) && rec.Die != nil) {
			recs[key] = rec
			continue
		}
		recs[key] = nil
		missing = append(missing, key)
	}
	own, held := fl.claim(missing)

	if len(own) > 0 {
		_, sp := tracing.StartSpan(ctx, "warm.build")
		sp.SetAttr("keys", strconv.Itoa(len(own)))
		for _, f := range own {
			f.span = sp.Context()
		}
		put := func(key string, rec *sim.WarmRecord) {
			o.WarmupCache.Put(key, rec)
			recs[key] = rec
			own[key].release(rec, nil)
		}
		s, err := sim.NewMulti(j.cfg, j.cores, sim.Options{
			Policy:             dtm.None,
			WarmupCycles:       j.opts.WarmupCycles,
			DisableFastForward: j.opts.DisableFastForward,
		})
		for c, key := range k.cores {
			if err != nil || own[key] == nil || recs[key] != nil {
				continue
			}
			built = true
			if err = s.WarmCore(c); err == nil {
				put(key, &sim.WarmRecord{Version: sim.StateVersion, Core: s.CaptureCore(c)})
			}
		}
		if err == nil && own[k.die] != nil {
			die := s.Solver().State()
			put(k.die, &sim.WarmRecord{Version: sim.StateVersion, Die: &die})
		}
		sp.EndErr(err)
		if err != nil {
			for key, f := range own {
				if recs[key] == nil {
					f.release(nil, err)
				}
			}
			return nil, built, err
		}
	}
	var linked []tracing.SpanContext
	for _, key := range missing {
		f := held[key]
		if f == nil {
			continue
		}
		if recs[key], err = f.wait(ctx); err != nil {
			return nil, built, err
		}
		if !slices.Contains(linked, f.span) {
			tracing.Active(ctx).Link(f.span, tracing.LinkWarmReuse)
			linked = append(linked, f.span)
		}
	}

	s, err := sim.NewMulti(j.cfg, j.cores, j.opts)
	if err != nil {
		return nil, built, err
	}
	start := time.Now()
	_, rsp := tracing.StartSpan(ctx, "warm.restore")
	for c, key := range k.cores {
		if err = s.RestoreCore(c, recs[key].Core); err != nil {
			break
		}
	}
	if err == nil {
		err = s.FinishWarmup(recs[k.die].Die)
	}
	rsp.EndErr(err)
	if err != nil {
		return nil, built, err
	}
	if o.OnRestore != nil {
		o.OnRestore(time.Since(start).Seconds())
	}
	res, err = runQuantum(ctx, s, j.opts.Policy)
	return res, built, err
}
