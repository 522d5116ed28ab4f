package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
)

// Pool recycles simulators across warm-restore runs. Constructing a
// Simulator is dominated by the pipeline: register files, cache
// hierarchies, predictor tables, and per-entry bookkeeping all
// allocate, and a sweep that restores hundreds of jobs from one shared
// warmup snapshot pays that cost per job. A Pool keeps finished
// simulators and hands them to the next job with the same construction
// identity, which then overwrites every piece of mutable state by
// restoring its snapshot.
//
// The contract: a simulator obtained from Get holds stale machine
// state from its previous run, and the caller MUST Restore a warmup
// snapshot into it before running. Restore with a policy-agnostic
// snapshot overwrites the core, power model, thermal network, and
// monitor, empties the report and event accumulators, and rebuilds the
// DTM policy and engine from scratch — leaving the simulator
// indistinguishable from a freshly constructed one (enforced by the
// dirty-reuse equivalence tests).
//
// A Pool is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free map[string][]*Simulator

	hits, misses uint64
}

// NewPool returns an empty simulator pool.
func NewPool() *Pool {
	return &Pool{free: make(map[string][]*Simulator)}
}

// poolKey is the construction identity a recycled simulator must
// share with the request: the machine configuration, the programs
// (they are wired into the pipeline at construction), the warmup
// length, and the fast-forward switch. The DTM policy and the
// observation flags are deliberately excluded — Get adapts them,
// because the warm restore rebuilds the policy anyway.
func poolKey(cfg config.Config, threads []Thread, opts Options) string {
	h := sha256.New()
	io.WriteString(h, "heatstroke-pool\x00")
	io.WriteString(h, cfg.Digest())
	h.Write([]byte{0})
	io.WriteString(h, ProgramsDigest(threads))
	fmt.Fprintf(h, "\x00%d\x00%t", opts.WarmupCycles, opts.DisableFastForward)
	return hex.EncodeToString(h.Sum(nil))
}

// Get returns a simulator for the given machine, threads, and options:
// a recycled one whose construction identity matches, else a freshly
// built one. Recycled simulators are re-optioned in place (policy,
// temperature tracing, event collection) and their policy rebuilt, so
// the only stale state left is what Restore overwrites. Requests with
// a Recorder bypass the pool entirely: the recorder is caller-owned
// per-job state, so those simulators are built fresh and never
// recycled.
func (p *Pool) Get(cfg config.Config, threads []Thread, opts Options) (*Simulator, error) {
	if p == nil || opts.Recorder != nil {
		return New(cfg, threads, opts)
	}
	key := poolKey(cfg, threads, opts)
	p.mu.Lock()
	stack := p.free[key]
	var s *Simulator
	if n := len(stack); n > 0 {
		s = stack[n-1]
		stack[n-1] = nil
		p.free[key] = stack[:n-1]
		p.hits++
	} else {
		p.misses++
	}
	p.mu.Unlock()
	if s == nil {
		fresh, err := New(cfg, threads, opts)
		if err != nil {
			return nil, err
		}
		fresh.poolKey = key
		return fresh, nil
	}
	opts, err := normalizeOptions(opts)
	if err != nil {
		return nil, err
	}
	s.opts = opts
	if opts.CollectEvents {
		if s.events == nil {
			s.events = &telemetry.EventLog{}
		}
	} else {
		s.events = nil
	}
	if err := s.buildPolicies(); err != nil {
		return nil, err
	}
	return s, nil
}

// Put returns s to the pool for recycling. Simulators that bypassed
// the pool (Recorder attached) or hold an open quantum are dropped;
// passing one is harmless.
func (p *Pool) Put(s *Simulator) {
	if p == nil || s == nil || s.poolKey == "" || s.qr != nil {
		return
	}
	p.mu.Lock()
	p.free[s.poolKey] = append(p.free[s.poolKey], s)
	p.mu.Unlock()
}

// Stats reports how many Gets were served by recycling versus fresh
// construction (recorder-bypassed Gets count as neither).
func (p *Pool) Stats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}
