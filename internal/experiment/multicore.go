// Multi-core experiments: the neighbor-heat attack (one core's power
// density heating a victim core across the die) and the DTM-scope
// comparison (per-core policies vs the chip-wide round-robin). Both
// run on the grid thermal solver over a NewDie(K) floorplan; they are
// the only experiments that do, so every single-core experiment stays
// on the lumped fast path byte-identically.
package experiment

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
)

// multiTopology resolves the die topology a multi-core experiment
// runs: the Config's topology when it names more than one core, else
// the two-core grid default. The solver is always the grid — the
// lumped network cannot model a second core.
func (o Options) multiTopology() config.Topology {
	top := o.Config.Topology
	if top.Cores <= 1 {
		top.Cores = 2
	}
	if top.Solver == "" || top.Solver == config.SolverLumped {
		top.Solver = config.SolverGrid
	}
	return top
}

// multiJob is one independent whole-die simulation.
type multiJob struct {
	key         string
	cfg         config.Config
	coreThreads [][]sim.Thread
	opts        sim.Options
}

// multiCoreJob builds a whole-die run: thread set per core, one DTM
// scope/policy. Jobs of one run share warm state through a warmShare;
// fork-tree prefixes do not apply to whole-die jobs.
func multiCoreJob(o Options, key string, coreThreads [][]sim.Thread, scope dtm.Scope, policy dtm.Kind) multiJob {
	cfg := *o.Config
	cfg.Run.QuantumCycles = o.Quantum
	cfg.Run.Seed = o.Seed
	cfg.Topology = o.multiTopology()
	return multiJob{
		key:         key,
		cfg:         cfg,
		coreThreads: coreThreads,
		opts: sim.Options{
			Scope:              scope,
			Policy:             policy,
			WarmupCycles:       o.Warmup,
			DisableFastForward: o.DisableFastForward,
		},
	}
}

// runMultiSweep executes whole-die jobs through the sweep engine with
// runSweep's options, so fail-fast semantics, Summary metrics and the
// per-job sim.quantum span are the same. Unless DisableWarmupReuse is
// set, the jobs share warm state (see warmShare); the Summary's
// WarmupRuns then counts jobs that simulated any core's warmup and
// WarmupReused jobs that restored every core.
func runMultiSweep(ctx context.Context, jobs []multiJob, o Options) (map[string]*sim.Result, *sweep.Summary, error) {
	if o.enumerate != nil {
		// The warm share lives in memory for one run only, so WarmKeys
		// sees an empty job list: there are no warm snapshots to ship
		// anywhere.
		o.enumerate(o, nil)
		return nil, nil, errEnumerated
	}
	var share *warmShare
	if !o.DisableWarmupReuse {
		share = newWarmShare(o, jobs)
	}
	sjobs := make([]sweep.Job[*sim.Result], len(jobs))
	for i, j := range jobs {
		sjobs[i] = sweep.Job[*sim.Result]{
			Key: j.key,
			Run: func(ctx context.Context) (*sim.Result, error) {
				opts := j.opts
				traceSimOpts(ctx, &opts)
				m, err := sim.NewMulti(j.cfg, j.coreThreads, opts)
				if err != nil {
					return nil, err
				}
				if err := share.warm(m, i); err != nil {
					return nil, err
				}
				return m.Run()
			},
		}
	}
	res, err := sweep.Run(ctx, sjobs, sweepOptions(o))
	if share != nil {
		res.Summary.WarmupRuns, res.Summary.WarmupReused = share.runs, share.reused
	}
	if err != nil {
		return nil, &res.Summary, fmt.Errorf("experiment: %w", err)
	}
	return res.ByKey(), &res.Summary, nil
}

// warmShare lets the whole-die jobs of one run share warm state: each
// core's post-warmup state under a per-core key, and the die's
// post-warmup temperatures under a die key. A core warms alone, with no
// thermal step, so its state depends on its own programs and the warm
// configuration but not on the topology; the die's depends on the
// configuration alone. Held states are compact (sim.CoreWarm), a job
// stores one only while a later job still needs it, and each is
// dropped after its last consumer. Jobs running concurrently may each
// warm a key neither found stored; warm states are deterministic, so
// the results are the same either way.
type warmShare struct {
	keys []dieKeys // per job

	mu sync.Mutex
	// left counts, per key, the jobs yet to consume it.
	left  map[string]int
	cores map[string]*sim.CoreWarm
	dies  map[string]*thermal.SolverState
	// runs counts jobs that simulated any core's warmup, reused jobs
	// that restored every core.
	runs, reused int
}

// dieKeys names a job's shareable warm state: one key per core and the
// die's.
type dieKeys struct {
	cores []string
	die   string
}

// newWarmShare keys every job and counts each key's consumers (a key
// repeated inside one die counts once). It returns nil — every job
// runs cold — when the jobs run no warmup.
func newWarmShare(o Options, jobs []multiJob) *warmShare {
	s := &warmShare{
		keys:  make([]dieKeys, len(jobs)),
		left:  make(map[string]int),
		cores: make(map[string]*sim.CoreWarm),
		dies:  make(map[string]*thermal.SolverState),
	}
	for i, j := range jobs {
		if j.opts.WarmupCycles <= 0 {
			return nil
		}
		s.keys[i] = dieKeys{cores: coreKeys(o, j), die: "die\x00" + j.cfg.WarmDigest()}
		for _, k := range s.keys[i].distinct() {
			s.left[k]++
		}
	}
	return s
}

// coreKeys returns the per-core warm keys of a whole-die job: warmKey's
// identity over the core's own threads, with the topology cleared.
func coreKeys(o Options, j multiJob) []string {
	cfg := j.cfg
	cfg.Topology = config.Topology{}
	wd := cfg.WarmDigest()
	keys := make([]string, len(j.coreThreads))
	for c, threads := range j.coreThreads {
		keys[c] = warmKeyOf(o, wd, sim.ProgramsDigest(threads), j.opts.WarmupCycles, j.opts.DisableFastForward)
	}
	return keys
}

// distinct lists the job's keys once each, cores first, die last.
func (k dieKeys) distinct() []string {
	out := make([]string, 0, len(k.cores)+1)
	for _, c := range k.cores {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return append(out, k.die)
}

// warm completes job i's warmup on m: cores and the die restore from
// stored states where the share has them, the rest warm in place (a
// key repeated inside the die warms once and is copied to the other
// cores). It then stores what later jobs still need and drops what no
// later job does. A nil share leaves m to warm up by itself.
func (s *warmShare) warm(m *sim.Simulator, i int) error {
	if s == nil {
		return nil
	}
	ks := s.keys[i]
	stored := make(map[string]*sim.CoreWarm)
	s.mu.Lock()
	for _, k := range ks.cores {
		if w := s.cores[k]; w != nil {
			stored[k] = w
		}
	}
	die := s.dies[ks.die]
	s.mu.Unlock()

	warmedAt := make(map[string]int) // key -> the core that warmed it here
	for c, k := range ks.cores {
		w := stored[k]
		if w == nil {
			src, ok := warmedAt[k]
			if !ok {
				if err := m.WarmCore(c); err != nil {
					return err
				}
				warmedAt[k] = c
				continue
			}
			w = m.CaptureCore(src)
			stored[k] = w
		}
		if err := m.RestoreCore(c, w); err != nil {
			return err
		}
	}
	if err := m.FinishWarmup(die); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(warmedAt) > 0 {
		s.runs++
	} else {
		s.reused++
	}
	for _, k := range ks.distinct() {
		s.left[k]--
		switch {
		case s.left[k] <= 0:
			delete(s.left, k)
			delete(s.cores, k)
			delete(s.dies, k)
		case k == ks.die:
			if die == nil && s.dies[k] == nil {
				st := m.Solver().State()
				s.dies[k] = &st
			}
		case s.cores[k] == nil:
			if c, ok := warmedAt[k]; ok {
				if w := stored[k]; w != nil {
					s.cores[k] = w
				} else {
					s.cores[k] = m.CaptureCore(c)
				}
			}
		}
	}
	return nil
}

// neighborBenign is the benign co-resident the baseline rows run on
// core 0: a low-power SPEC program, so the victim's baseline die is a
// normally loaded one, not an idle one.
const neighborBenign = "art"

// NeighborHeat reproduces the cross-core form of the attack: the
// victim benchmark runs ALONE on core 1 — selective sedation cannot
// touch a solo thread (the last-thread exception) and no thread on the
// victim core misbehaves — while core 0 runs either a benign neighbor
// or the Variant2 trojan. Every effect on the victim arrives through
// the silicon: the trojan's power density conducts across the die and
// drives the victim core's sensors toward the emergency threshold, so
// the victim's own stop-and-go safety net does the attacker's work.
func NeighborHeat(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	top := o.multiTopology()
	v2, err := variantThread(2, o.Config.Thermal.Scale)
	if err != nil {
		return nil, err
	}
	benign, err := specThread(neighborBenign, o.Seed)
	if err != nil {
		return nil, err
	}
	var jobs []multiJob
	for _, b := range o.Benchmarks {
		victim, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		// Core 0 hosts the neighbor, core 1 the victim; extra cores (when
		// -cores > 2) run the benign neighbor so the only variable between
		// the two rows is core 0's program.
		mk := func(neighbor sim.Thread) [][]sim.Thread {
			ct := make([][]sim.Thread, top.Cores)
			ct[0] = []sim.Thread{neighbor}
			ct[1] = []sim.Thread{victim}
			for c := 2; c < top.Cores; c++ {
				ct[c] = []sim.Thread{benign}
			}
			return ct
		}
		jobs = append(jobs,
			multiCoreJob(o, b+"/benign", mk(benign), dtm.ScopePerCore, dtm.SelectiveSedation),
			multiCoreJob(o, b+"/trojan", mk(v2), dtm.ScopePerCore, dtm.SelectiveSedation),
		)
	}
	results, sum, err := runMultiSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "Neighbor heat: victim core under a trojan neighbor (per-core sedation)",
		Columns: []string{"benchmark", "victim IPC benign", "victim IPC trojan", "slowdown",
			"victim emergencies", "victim stall%",
			"victim IntReg benign K", "victim IntReg trojan K", "trojan core peak K"},
	}
	for _, b := range o.Benchmarks {
		bn, ok1 := results[b+"/benign"]
		tr, ok2 := results[b+"/trojan"]
		if !ok1 || !ok2 {
			continue
		}
		vb, vt := bn.Cores[1], tr.Cores[1]
		ipcB, ipcT := vb.Threads[0].IPC, vt.Threads[0].IPC
		slow := 0.0
		if ipcB > 0 {
			slow = 1 - ipcT/ipcB
		}
		stall := float64(vt.StopGoCycles) / float64(tr.Cycles)
		table.Rows = append(table.Rows, []string{
			b, f2(ipcB), f2(ipcT), pct(slow),
			fmt.Sprintf("%d", vt.Emergencies), pct(stall),
			f2(vb.FinalTemps[power.UnitIntReg]), f2(vt.FinalTemps[power.UnitIntReg]),
			f2(tr.Cores[0].PeakTemp),
		})
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("%d-core %s die, grid %d; victim solo on core 1 (sedation's last-thread exception), neighbor on core 0",
			top.Cores, top.Solver, top.EffectiveGridN()),
		"victim stalls are its own safety net reacting to heat conducted from the neighbor core")
	table.Summary = sum
	return table, nil
}

// DTMScope compares where the throttle burden lands when DTM observes
// one core vs the whole die: per-core stop-and-go and sedation pin the
// penalty on whichever core crosses the threshold (under neighbor
// heat, the victim), while the chip-wide round-robin rotates a
// temperature-banded throttle over every core, attacker included.
func DTMScope(ctx context.Context, o Options) (*Table, error) {
	o = o.normalized()
	top := o.multiTopology()
	v2, err := variantThread(2, o.Config.Thermal.Scale)
	if err != nil {
		return nil, err
	}
	benign, err := specThread(neighborBenign, o.Seed)
	if err != nil {
		return nil, err
	}
	scopes := []struct {
		key    string
		scope  dtm.Scope
		policy dtm.Kind
	}{
		{"stopgo", dtm.ScopePerCore, dtm.StopAndGo},
		{"sedation", dtm.ScopePerCore, dtm.SelectiveSedation},
		{"chip-rr", dtm.ScopeChip, dtm.ChipRoundRobin},
	}
	var jobs []multiJob
	for _, b := range o.Benchmarks {
		victim, err := specThread(b, o.Seed)
		if err != nil {
			return nil, err
		}
		ct := make([][]sim.Thread, top.Cores)
		ct[0] = []sim.Thread{v2}
		ct[1] = []sim.Thread{victim}
		for c := 2; c < top.Cores; c++ {
			ct[c] = []sim.Thread{benign}
		}
		for _, sc := range scopes {
			jobs = append(jobs, multiCoreJob(o, b+"/"+sc.key, ct, sc.scope, sc.policy))
		}
	}
	results, sum, err := runMultiSweep(ctx, jobs, o)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title: "DTM scope: victim throughput under per-core vs chip-wide management (trojan on core 0)",
		Columns: []string{"benchmark", "IPC stopgo", "IPC sedation", "IPC chip-rr",
			"stall% stopgo", "stall% sedation", "stall% chip-rr"},
	}
	for _, b := range o.Benchmarks {
		row := []string{b}
		vals := make([]string, 0, 6)
		ok := true
		var ipc, stall []string
		for _, sc := range scopes {
			r, found := results[b+"/"+sc.key]
			if !found {
				ok = false
				break
			}
			v := r.Cores[1]
			ipc = append(ipc, f2(v.Threads[0].IPC))
			stall = append(stall, pct(float64(v.StopGoCycles)/float64(r.Cycles)))
		}
		if !ok {
			continue
		}
		vals = append(vals, ipc...)
		vals = append(vals, stall...)
		table.Rows = append(table.Rows, append(row, vals...))
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("%d-core %s die, grid %d; chip-rr rotates a temperature-banded throttle over all cores (CoMeT-style)",
			top.Cores, top.Solver, top.EffectiveGridN()))
	table.Summary = sum
	return table, nil
}
