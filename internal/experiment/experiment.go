// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 5): Table 1's configuration, Figures 3-6, the
// heat-sink and threshold sensitivity studies (Sections 5.5-5.6), the
// SPEC-pair false-positive study (Section 5.7), and the design-choice
// ablations DESIGN.md calls out. Each experiment runs a set of
// independent simulations through the internal/sweep engine (bounded
// parallelism, cancellation, per-job metrics) and renders a
// sweep.Table whose rows mirror what the paper plots; the sweep's
// execution Summary rides along on the table for artifact export.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
	"github.com/heatstroke-sim/heatstroke/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Config is the base machine; zero value means config.Default().
	Config *config.Config
	// Benchmarks selects the SPEC2K-like workloads; nil means all.
	Benchmarks []string
	// Quantum overrides the per-run cycle count (0 = Config's).
	Quantum int64
	// Warmup is the unmeasured warmup prefix (default
	// DefaultWarmupCycles). Every simulation of every experiment gets
	// it: all jobs are built by the soloJob/pairJob helpers, which are
	// the only place sim.Options.WarmupCycles is set.
	Warmup int64
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	// Results are bit-for-bit identical at any parallelism: jobs are
	// seeded from Seed alone, never from scheduling order.
	Parallelism int
	// Seed seeds workload generation. Unless SeedSet is true, zero is
	// a sentinel meaning "use the Config's Run.Seed".
	Seed int64
	// SeedSet marks Seed as explicitly chosen, making literal seed 0
	// requestable: with SeedSet, Seed is used verbatim even when zero.
	// Existing callers that leave it false keep the historical
	// zero-means-config-default behaviour. The serving layer needs
	// this for exact seed round-tripping in cache keys.
	SeedSet bool
	// Progress, when set, receives a snapshot after each simulation of
	// the experiment's sweep finishes (serially, monotonic Completed;
	// see sweep.Progress). The snapshot carries the finished job's
	// metrics — simulated cycles, cycles/sec, peak temperature — so
	// live consumers see the numbers the final Summary aggregates.
	Progress func(p sweep.Progress)
	// DisableWarmupReuse turns off warmup-snapshot sharing and runs
	// every job's warmup from cold: single-core warm keys and fork
	// trees, and the multi-core experiments' per-core and per-die warm
	// share. Results are identical either way (enforced by sim's
	// restore-equivalence tests); the switch exists for benchmarking
	// and debugging.
	DisableWarmupReuse bool
	// ForkTree routes the experiment through the fork-tree scheduler
	// (sweep.RunTree): jobs whose simulations share a warmup prefix —
	// same machine, programs, and warmup length, regardless of DTM
	// policy, sedation thresholds, or measurement quantum — become
	// leaves under one prefix node that simulates the shared prefix
	// once; each leaf forks from the in-memory snapshot. Tables are
	// byte-identical to the flat (and cold) paths; only the Summary's
	// fork counters and timing differ. Ignored when DisableWarmupReuse
	// is set (there is nothing to share).
	ForkTree bool
	// DisableFastForward turns off the simulator's stall fast-forward
	// in every job, including warmup prefixes (results are byte
	// identical either way; see sim.Options.DisableFastForward). The
	// differential suites use it to prove fork-tree equivalence holds
	// on both code paths.
	DisableFastForward bool
	// WarmupCache, when set, persists warmup snapshots across
	// experiment runs under their warm keys. Within one run the sweep
	// engine already shares warmups; the cache extends that across
	// runs (e.g. the daemon's on-disk store).
	WarmupCache SnapshotStore
	// CodeVersion tags warm keys so a persistent WarmupCache never
	// serves snapshots produced by a different simulator build.
	CodeVersion string
	// OnRestore, when set, is called with each warm-state restore's
	// duration in seconds (for telemetry histograms).
	OnRestore func(seconds float64)
	// simPool recycles simulators across this run's warm-restore jobs
	// (see sim.Pool); created by normalized().
	simPool *sim.Pool

	// enumerate, when set, intercepts runSweep before any simulation:
	// it receives the experiment's fully built job list (and the
	// normalized options that would run it) and runSweep returns
	// errEnumerated instead of executing. This is how WarmKeys lists
	// an experiment's warm keys without simulating — job construction
	// is cheap (program generation and digests), the sweep is not.
	enumerate func(o Options, jobs []job)
}

// ResolvedSeed returns the seed an experiment run will actually use:
// Seed verbatim when SeedSet or nonzero, else the Config's Run.Seed
// (config.Default()'s when Config is nil). Cache keys must be built
// from this, never from the raw Seed field, so that "seed omitted" and
// "seed explicitly = config default" address the same result.
func (o Options) ResolvedSeed() int64 {
	if o.SeedSet || o.Seed != 0 {
		return o.Seed
	}
	if o.Config != nil {
		return o.Config.Run.Seed
	}
	return config.Default().Run.Seed
}

func (o Options) normalized() Options {
	if o.Config == nil {
		c := config.Default()
		o.Config = &c
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.SpecNames()
	}
	if o.Quantum <= 0 {
		o.Quantum = o.Config.Run.QuantumCycles
	}
	if o.Warmup <= 0 {
		o.Warmup = DefaultWarmupCycles
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = o.Config.Run.Seed
	}
	if o.simPool == nil {
		o.simPool = sim.NewPool()
	}
	return o
}

// specThread builds one benchmark thread.
func specThread(name string, seed int64) (sim.Thread, error) {
	prog, err := workload.Spec(name, seed)
	if err != nil {
		return sim.Thread{}, err
	}
	return sim.Thread{Name: name, Prog: prog}, nil
}

// variantThread builds malicious variant n with phase durations matched
// to the thermal scale.
func variantThread(n int, scale float64) (sim.Thread, error) {
	prog, err := workload.VariantForScale(n, scale)
	if err != nil {
		return sim.Thread{}, err
	}
	return sim.Thread{Name: fmt.Sprintf("variant%d", n), Prog: prog}, nil
}

// job is one independent simulation.
type job struct {
	key     string
	cfg     config.Config
	threads []sim.Thread
	opts    sim.Options
}

// runSweep executes jobs through the sweep engine with fail-fast
// semantics and returns results by key plus the sweep Summary. Unlike
// the old runJobs helper, cancellation stops unstarted jobs from
// burning worker slots, completed results are never discarded (the
// Summary accounts for every job), and each job's wall time, simulated
// cycles/sec, and peak temperature are aggregated.
func runSweep(ctx context.Context, jobs []job, o Options) (map[string]*sim.Result, *sweep.Summary, error) {
	if o.enumerate != nil {
		o.enumerate(o, jobs)
		return nil, nil, errEnumerated
	}
	if o.ForkTree && !o.DisableWarmupReuse {
		return runForkSweep(ctx, jobs, o)
	}
	sjobs := make([]sweep.Job[*sim.Result], len(jobs))
	for i, j := range jobs {
		j := j
		sjobs[i] = sweep.Job[*sim.Result]{
			Key: j.key,
			Run: func(ctx context.Context) (*sim.Result, error) {
				return runCold(ctx, j)
			},
		}
		if j.opts.WarmupCycles > 0 && !o.DisableWarmupReuse {
			warmJob(o, j, &sjobs[i])
		}
	}
	res, err := sweep.Run(ctx, sjobs, sweepOptions(o))
	if err != nil {
		return nil, &res.Summary, fmt.Errorf("experiment: %w", err)
	}
	return res.ByKey(), &res.Summary, nil
}

// sweepOptions builds the engine options every experiment sweep uses,
// flat or fork-tree.
func sweepOptions(o Options) sweep.Options[*sim.Result] {
	return sweep.Options[*sim.Result]{
		Parallelism: o.Parallelism,
		Policy:      sweep.FailFast,
		Metrics:     simMetrics,
		OnProgress:  o.Progress,
	}
}

// simMetrics extracts the per-job measurements the sweep Summary
// aggregates.
func simMetrics(r sweep.JobResult[*sim.Result]) map[string]float64 {
	if r.Value == nil {
		return nil
	}
	m := map[string]float64{
		sweep.MetricSimCycles:   float64(r.Value.Cycles),
		sweep.MetricPeakTempK:   r.Value.PeakTemp,
		sweep.MetricEmergencies: float64(r.Value.Emergencies),
	}
	if secs := r.Elapsed.Seconds(); secs > 0 {
		m[sweep.MetricCyclesPerSec] = float64(r.Value.Cycles) / secs
	}
	return m
}

// DefaultWarmupCycles is the unmeasured warmup prefix every
// simulation runs when Options.Warmup is unset: long enough to fill
// the caches and branch predictors and settle the thermal network's
// transient from the ambient start.
const DefaultWarmupCycles = 500_000

// Table is a rendered experiment artifact (see sweep.Table for the
// ASCII/JSON/CSV encoders).
type Table = sweep.Table

// Experiment names, usable from the CLI and bench harness.
const (
	NameTable1     = "table1"
	NameFigure3    = "fig3"
	NameFigure4    = "fig4"
	NameFigure5    = "fig5"
	NameFigure6    = "fig6"
	NameHeatSink   = "heatsink"
	NameThresholds = "thresholds"
	// NameThresholdsDense is the dense threshold-sensitivity grid made
	// affordable by warmup-prefix sharing (see ThresholdsDense).
	NameThresholdsDense = "thresholds-dense"
	NameSpecPairs       = "specpairs"
	NameTiming          = "timing"
	NamePolicies        = "policies"
	NameFlatAvg         = "ablation-flatavg"
	NameAbsThresh       = "ablation-absthresh"
	NameMulti           = "ablation-multiculprit"
	NameFetch           = "ablation-fetchpolicy"
	// NameNeighborHeat and NameDTMScope are the multi-core experiments:
	// they run whole-die simulations on the grid thermal solver (see
	// multicore.go) instead of single-core jobs on the lumped network.
	NameNeighborHeat = "neighbor-heat"
	NameDTMScope     = "dtm-scope"
)

// Names lists every experiment in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, in := range registry {
		names[i] = in.Name
	}
	return names
}

// Info describes one experiment for listings and the serving layer.
type Info struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description"`
	// WarmupCycles is the unmeasured warmup prefix each of the
	// experiment's simulations runs by default (Options.Warmup
	// overrides it uniformly). Zero only for experiments that run no
	// simulations.
	WarmupCycles int64 `json:"warmup_cycles"`
	// Cores is the number of cores the experiment's die simulates by
	// default (JobRequest.Cores overrides it); 1 for every single-core
	// experiment.
	Cores int `json:"cores"`
	// Solver names the thermal solver the experiment runs on:
	// config.SolverLumped for single-core experiments (the fast path),
	// config.SolverGrid for the multi-core ones.
	Solver string `json:"solver"`
}

// registry holds the experiment metadata in presentation order.
var registry = []Info{
	{Name: NameTable1, Title: "Table 1: system parameters",
		Description: "Renders the simulated machine's architectural, power, and thermal configuration; runs no simulations."},
	{Name: NameFigure3, Title: "Figure 3: register-file access rates",
		Description: "Solo runs of every SPEC program and attack variant measuring flat-average integer-register-file accesses/cycle."},
	{Name: NameFigure4, Title: "Figure 4: temperature emergencies",
		Description: "Emergencies per OS quantum: each benchmark solo, under Variant2 attack (stop-and-go), and under selective sedation."},
	{Name: NameFigure5, Title: "Figure 5: IPC under attack and defense",
		Description: "The headline study: benchmark IPC across eleven configurations pairing each attack variant with ideal/realistic sinks and stop-and-go vs sedation."},
	{Name: NameFigure6, Title: "Figure 6: execution-time breakdown",
		Description: "Where victim cycles go under attack: busy, stalled by stop-and-go, and ICOUNT-starved fractions."},
	{Name: NameHeatSink, Title: "Heat-sink sensitivity (§5.5)",
		Description: "Victim slowdown as the convection resistance (heat-sink quality) varies, under attack and defense."},
	{Name: NameThresholds, Title: "Sedation-threshold sensitivity (§5.6)",
		Description: "Sweeps the sedation upper/lower temperature thresholds and reports emergencies and victim IPC."},
	{Name: NameThresholdsDense, Title: "Sedation-threshold dense scan (§5.6)",
		Description: "Dense 355.0-358.0 K threshold grid (14 pairs per benchmark) sharing one warmup prefix per benchmark via the fork tree."},
	{Name: NameSpecPairs, Title: "SPEC-pair false positives (§5.7)",
		Description: "Benign SPEC+SPEC pairs under selective sedation: checks normal co-schedules are not sedated."},
	{Name: NameTiming, Title: "Heat/cool timing (§3.1)",
		Description: "Measures heat-up and forced-cooling durations under Variant2 and the resulting duty cycle."},
	{Name: NamePolicies, Title: "DTM policy comparison",
		Description: "Victim IPC under each thermal-management baseline (none, stop-and-go, DVS, TTDFS, sedation) while attacked."},
	{Name: NameFlatAvg, Title: "Ablation: flat-average culprit metric (§3.2.1)",
		Description: "Replaces the EWMA with a flat average so a bursty attacker hides below steady normal threads."},
	{Name: NameAbsThresh, Title: "Ablation: absolute EWMA threshold (§3.2.1)",
		Description: "Sedates on an absolute access-rate threshold ignoring temperature, causing false positives on benign bursts."},
	{Name: NameMulti, Title: "Ablation: multi-culprit identification (§3.2.2)",
		Description: "Two simultaneous attackers: checks repeated culprit identification sedates both."},
	{Name: NameFetch, Title: "Ablation: fetch policy",
		Description: "Round-robin fetch instead of ICOUNT, isolating how much victim loss is fetch-policy bias."},
	{Name: NameNeighborHeat, Title: "Neighbor heat: cross-core attack",
		Description: "Two-core die on the grid solver: a trojan on core 0 heats a solo victim on core 1 through the silicon, past sedation's reach."},
	{Name: NameDTMScope, Title: "DTM scope: per-core vs chip-wide",
		Description: "Victim throughput under per-core stop-and-go/sedation vs the chip-wide round-robin throttle while core 0 runs the trojan."},
}

func init() {
	// Every experiment that simulates warms up, and by the same default:
	// all jobs flow through soloJob/pairJob. Table 1 renders static
	// configuration and runs nothing.
	for i := range registry {
		if registry[i].Name != NameTable1 {
			registry[i].WarmupCycles = DefaultWarmupCycles
		}
		switch registry[i].Name {
		case NameNeighborHeat, NameDTMScope:
			registry[i].Cores, registry[i].Solver = 2, config.SolverGrid
		case NameTable1:
			// Renders configuration, simulates nothing.
		default:
			registry[i].Cores, registry[i].Solver = 1, config.SolverLumped
		}
	}
}

// Infos lists every experiment's metadata in presentation order.
func Infos() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	return out
}

// Describe returns the metadata for one experiment.
func Describe(name string) (Info, bool) {
	for _, in := range registry {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

// Run executes the named experiment without cancellation.
func Run(name string, o Options) (*Table, error) {
	return RunContext(context.Background(), name, o)
}

// RunContext executes the named experiment; cancelling the context
// stops the underlying sweep (running simulations finish, pending ones
// are skipped, and an error is returned).
func RunContext(ctx context.Context, name string, o Options) (*Table, error) {
	switch name {
	case NameTable1:
		return Table1(ctx, o)
	case NameFigure3:
		return Figure3(ctx, o)
	case NameFigure4:
		return Figure4(ctx, o)
	case NameFigure5:
		return Figure5(ctx, o)
	case NameFigure6:
		return Figure6(ctx, o)
	case NameHeatSink:
		return HeatSink(ctx, o)
	case NameThresholds:
		return Thresholds(ctx, o)
	case NameThresholdsDense:
		return ThresholdsDense(ctx, o)
	case NameSpecPairs:
		return SpecPairs(ctx, o)
	case NameTiming:
		return Timing(ctx, o)
	case NamePolicies:
		return Policies(ctx, o)
	case NameFetch:
		return AblationFetchPolicy(ctx, o)
	case NameFlatAvg:
		return AblationFlatAverage(ctx, o)
	case NameAbsThresh:
		return AblationAbsoluteThreshold(ctx, o)
	case NameMulti:
		return AblationMultiCulprit(ctx, o)
	case NameNeighborHeat:
		return NeighborHeat(ctx, o)
	case NameDTMScope:
		return DTMScope(ctx, o)
	default:
		return nil, fmt.Errorf("experiment: unknown experiment %q (have %v)", name, Names())
	}
}

func sortedKeys(m map[string]*sim.Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
