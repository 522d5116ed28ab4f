// Package sim wires the full system together — SMT cores, activity-based
// power models, a thermal solver, temperature sensors, and dynamic
// thermal management — and runs OS quanta, producing the measurements
// the paper's figures report. One engine serves every die size: the
// paper's machine is one core on the lumped RC network, and a die of K
// cores shares one grid solver.
package sim

import (
	"cmp"
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	score "github.com/heatstroke-sim/heatstroke/internal/core"
	"github.com/heatstroke-sim/heatstroke/internal/cpu"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/floorplan"
	"github.com/heatstroke-sim/heatstroke/internal/isa"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/stats"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
	"github.com/heatstroke-sim/heatstroke/internal/trace"
)

// Thread is one software thread scheduled onto a hardware context.
type Thread struct {
	Name string
	Prog *isa.Program
}

// Options tune a simulation beyond the machine configuration.
type Options struct {
	// Scope selects the DTM scope (default dtm.ScopePerCore): each core
	// runs its own Policy, or one dtm.ChipRoundRobin throttles the die.
	Scope dtm.Scope
	// Policy selects each core's DTM policy (default dtm.StopAndGo).
	// Under the chip scope it must be empty or dtm.ChipRoundRobin.
	Policy dtm.Kind
	// WarmupCycles runs every core this long before measurement begins:
	// caches fill and predictors train while the die holds its steady
	// operating point. Warmup activity is excluded from every reported
	// statistic.
	WarmupCycles int64
	// CollectEvents enables the typed DTM event stream: threshold
	// crossings, sedation start/end with the culprit thread and EWMA
	// score, stop-and-go engage/release, emergency trips, and OS
	// culprit reports land in Result.Events in emission order (one
	// chip-wide timeline; per-core policies emit in core order).
	// Events are emitted only at sensor boundaries, so collection does
	// not perturb the hot path (and results stay byte-identical).
	CollectEvents bool
	// CollectSamples records every core's sensor-interval time series:
	// at each sensor boundary each core appends one trace.Sample (its
	// temperatures, power, stall flag, per-thread interval IPC and fetch
	// gates) to its Result.Samples. Like events, samples are taken only
	// at sensor boundaries and leave every other measurement
	// byte-identical.
	CollectSamples bool
	// DisableFastForward runs every cycle through the full pipeline
	// step instead of fast-forwarding provably idle stall spans. The
	// two modes are byte-identical by construction (enforced by the
	// fast-forward equivalence tests); the switch exists so differential
	// suites can prove properties on both execution paths.
	DisableFastForward bool
}

// MultiSimulator, MultiOptions and MultiResult alias Simulator,
// Options and Result only for the perfbench module, which compiles
// against these names; code in this module uses the unified names.
type (
	MultiSimulator = Simulator
	MultiOptions   = Options
	MultiResult    = Result
)

// ThreadResult is one thread's measurements over the quantum.
type ThreadResult struct {
	Name      string
	Committed uint64
	Fetched   uint64
	// IPC is committed instructions per quantum cycle (stalls included,
	// as in the paper's Figure 5).
	IPC float64
	// IntRegRate is the flat average integer-register-file access rate
	// in accesses per cycle over the whole quantum (Figure 3's metric).
	IntRegRate  float64
	Breakdown   stats.Breakdown
	Mispredicts uint64
	L2Squashes  uint64
}

// Result is one quantum's measurements. On one core it is that core's
// result; on a die of K > 1 cores it carries the chip-wide fields
// (Cycles, Emergencies, the peak, TotalPowerW, Events) and one
// per-core Result, samples included, in Cores.
type Result struct {
	Cycles  int64
	Threads []ThreadResult
	// Emergencies counts rising crossings of the emergency temperature
	// at any sensor (Figure 4's metric; on a die, by the chip's hottest
	// sensor).
	Emergencies int
	// StopGoCycles is time the whole pipeline was halted.
	StopGoCycles int64
	// PeakTemp/PeakUnit/PeakCore locate the hottest observation.
	PeakTemp float64
	PeakUnit power.Unit
	PeakCore int
	// FinalTemps are per-unit die temperatures at quantum end.
	FinalTemps [power.NumUnits]float64
	// Sedation carries the engine counters and OS reports (empty for
	// other policies).
	Sedation score.Stats
	Reports  []score.Report
	// Samples is the core's time series, one trace.Sample per sensor
	// interval, when Options.CollectSamples is set.
	Samples []trace.Sample
	// TotalPowerW is the average power over the quantum's sensed
	// intervals, summed over every core.
	TotalPowerW float64
	// Events is the quantum's typed DTM timeline when
	// Options.CollectEvents is set (see telemetry.Event).
	Events []telemetry.Event
	// Cores holds one Result per core on a die of K > 1 cores: its
	// threads, stall breakdown, sedation stats, emergencies and final
	// temperatures. It is nil on one core.
	Cores []Result
}

// Simulator drives K cores against one thermal substrate: each core
// has its own pipeline, power model, and sedation monitor, but their
// power all lands on the same die, so one core's heat is every core's
// problem — the physical channel the neighbor-heat attack exploits.
// With K = 1 on the lumped network it is the paper's machine.
type Simulator struct {
	cfg    config.Config
	solver thermal.Solver
	cores  []*coreSim
	// chip is the chip-scope policy (nil under the per-core scope).
	chip   dtm.ChipPolicy
	opts   Options
	events *telemetry.EventLog

	warmed bool
	// anchored records that the die sits at its steady operating point:
	// set by the first anchor() and by any restore of the die's state.
	// Construction leaves it false so a die whose post-warmup state is
	// restored never pays for the initial relaxation.
	anchored bool

	// powers holds the per-core power vectors handed to the solver each
	// sensor interval and coreMaxT each core's hottest sensor, both
	// reused across intervals.
	powers   [][power.NumUnits]float64
	coreMaxT []float64
}

// coreSim bundles one core's private machinery: pipeline, power model,
// sedation monitor, and (under the per-core scope) its DTM policy.
type coreSim struct {
	core    *cpu.Core
	model   *power.Model
	mon     *score.Monitor
	policy  dtm.Policy
	threads []Thread
	reports []score.Report
	// temp is the core's bound sensor read, allocated once so
	// policy.Tick never rebuilds the closure on the hot path.
	temp func(power.Unit) float64
}

// quantumRun is the state of one measurement quantum in progress: the
// loop position, the chip-wide accumulators (on one core, the core
// itself) and each core's share.
type quantumRun struct {
	done, chunks int64
	startCycle   int64
	// sensed counts the cycles of the sensor intervals sensed so far,
	// whose energy energyAccum sums.
	sensed      int64
	energyAccum float64
	// chip follows the die's hottest sensor, and peakCore the core
	// its peak was read on.
	chip     peakTracker
	peakCore int

	cores []coreQuantum
}

// coreQuantum is one core's share of a quantum in progress: its
// baselines, its hottest sensor and its samples.
type coreQuantum struct {
	peakTracker
	startStalled  uint64
	startStats    []cpu.ThreadStats
	startRF       []uint64
	lastCommitted []uint64
	// stalled is the core's stop-and-go stall flag as the current chunk
	// began, which its next sample records.
	stalled bool
	samples []trace.Sample
}

// peakTracker follows one stream of hottest-sensor readings over a
// quantum: the hottest reading and its unit, and the rising crossings
// of the emergency temperature.
type peakTracker struct {
	peak        float64
	unit        power.Unit
	above       bool
	emergencies int
}

// observe records one reading and reports whether it is the hottest
// yet and whether it crosses the emergency temperature from below.
func (p *peakTracker) observe(t float64, u power.Unit, emergencyK float64) (hotter, rising bool) {
	if hotter = t > p.peak; hotter {
		p.peak, p.unit = t, u
	}
	if rising = t >= emergencyK && !p.above; rising {
		p.emergencies++
	}
	p.above = t >= emergencyK
	return hotter, rising
}

// tileAreas are one core tile's per-unit areas. Every core's power
// model uses them: a core tile is a copy of the paper's floorplan, and
// the shared L2 spine's K-fold area is matched by the K cores' summed
// L2 power, so power density everywhere equals the single-core
// machine's.
var tileAreas = floorplan.Default().UnitAreas()

// New builds the paper's machine: one core running threads on the
// lumped network. cfg.Topology is ignored (single-core experiments run
// the paper's machine whatever die the configuration names); NewMulti
// builds the die it describes.
func New(cfg config.Config, threads []Thread, opts Options) (*Simulator, error) {
	cfg.Topology = config.Default().Topology
	return NewMulti(cfg, [][]Thread{threads}, opts)
}

// NewMulti builds a simulator for cfg.Topology.Cores cores, each
// running its own thread set, over one thermal solver.
func NewMulti(cfg config.Config, coreThreads [][]Thread, opts Options) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := cfg.Topology.Cores
	if len(coreThreads) != k {
		return nil, fmt.Errorf("sim: %d thread sets for %d cores", len(coreThreads), k)
	}
	if cfg.Thermal.SensorIntervalCycles%cfg.Sedation.SampleIntervalCycles != 0 {
		return nil, fmt.Errorf("sim: sensor interval %d must be a multiple of the sample interval %d",
			cfg.Thermal.SensorIntervalCycles, cfg.Sedation.SampleIntervalCycles)
	}
	opts, err := normalizeOptions(opts)
	if err != nil {
		return nil, err
	}
	solver, err := thermal.NewSolver(cfg.Topology, cfg.Thermal)
	if err != nil {
		return nil, err
	}

	s := &Simulator{
		cfg:      cfg,
		solver:   solver,
		opts:     opts,
		cores:    make([]*coreSim, k),
		powers:   make([][power.NumUnits]float64, k),
		coreMaxT: make([]float64, k),
	}
	if opts.CollectEvents {
		s.events = &telemetry.EventLog{}
	}
	for c, threads := range coreThreads {
		if len(threads) == 0 {
			return nil, fmt.Errorf("sim: core %d has no threads", c)
		}
		progs := make([]*isa.Program, len(threads))
		for i, t := range threads {
			if t.Prog == nil {
				return nil, fmt.Errorf("sim: core %d thread %d (%s) has no program", c, i, t.Name)
			}
			progs[i] = t.Prog
		}
		cpuCore, err := cpu.New(&cfg, progs)
		if err != nil {
			return nil, err
		}
		if opts.DisableFastForward {
			cpuCore.SetFastForward(false)
		}
		model, err := power.NewModel(power.DefaultEnergies(), cfg.Power.FrequencyHz, cfg.Power.Vdd,
			cfg.Power.EnergyScale, cfg.Power.LeakageWPerMM2, tileAreas)
		if err != nil {
			return nil, err
		}
		mon, err := score.NewMonitor(cfg.Sedation, cpuCore.Activity())
		if err != nil {
			return nil, err
		}
		cs := &coreSim{core: cpuCore, model: model, mon: mon, threads: threads}
		cs.temp = func(u power.Unit) float64 { return s.solver.CoreUnitTemp(c, u) }
		s.cores[c] = cs
	}
	if err := s.buildPolicies(); err != nil {
		return nil, err
	}
	return s, nil
}

// normalizeOptions fills in the default scope and policy and rejects
// combinations the scope cannot run.
func normalizeOptions(opts Options) (Options, error) {
	switch opts.Scope {
	case "", dtm.ScopePerCore:
		opts.Scope = dtm.ScopePerCore
		opts.Policy = cmp.Or(opts.Policy, dtm.StopAndGo)
	case dtm.ScopeChip:
		opts.Policy = cmp.Or(opts.Policy, dtm.ChipRoundRobin)
		if opts.Policy != dtm.ChipRoundRobin {
			return opts, fmt.Errorf("sim: chip scope runs %q, not %q", dtm.ChipRoundRobin, opts.Policy)
		}
	default:
		return opts, fmt.Errorf("sim: unknown DTM scope %q", opts.Scope)
	}
	return opts, nil
}

// buildPolicies constructs the DTM layer for the configured scope:
// one policy per core (per-core scope, the five paper policies), or
// one chip policy over every core's pipeline plus inert per-core
// policies (chip scope). Construction calls it once. A warm restore
// needs no rebuild: RestoreCore writes into the same core, model and
// monitor the policies hold, no policy ticks during a warmup, and
// policy constructors read only configuration and nominal machine
// parameters (DVS captures the supply voltage, which warmup never
// changes).
func (s *Simulator) buildPolicies() error {
	cool := coolingCycles(s.cfg)
	if s.opts.Scope == dtm.ScopeChip {
		pipes := make([]dtm.Pipeline, len(s.cores))
		for c, cs := range s.cores {
			cs.policy = dtm.NewNone()
			pipes[c] = cs.core
		}
		chip, err := dtm.NewChipRoundRobin(pipes, s.cfg.Thermal, cool)
		if err != nil {
			return err
		}
		dtm.SetChipEventLog(chip, s.events)
		s.chip = chip
		return nil
	}
	for _, cs := range s.cores {
		if err := cs.buildPolicy(s.opts.Policy, s.cfg, cool, s.events); err != nil {
			return err
		}
	}
	return nil
}

// buildPolicy constructs the core's DTM policy (and, for selective
// sedation, its engine).
func (cs *coreSim) buildPolicy(kind dtm.Kind, cfg config.Config, cool int64, events *telemetry.EventLog) error {
	var policy dtm.Policy
	switch kind {
	case dtm.None:
		policy = dtm.NewNone()
	case dtm.StopAndGo:
		policy = dtm.NewStopAndGo(cs.core, cfg.Thermal, cool)
	case dtm.DVS:
		policy = dtm.NewDVS(cs.core, cs.model, cfg.Thermal, cool)
	case dtm.TTDFS:
		policy = dtm.NewTTDFS(cs.core, cfg.Thermal)
	case dtm.SelectiveSedation:
		engine, err := score.NewEngine(cfg.Sedation, cs.mon, cs.core, cool,
			func(r score.Report) {
				cs.reports = append(cs.reports, r)
				events.Emit(telemetry.Event{Cycle: r.Cycle, Kind: telemetry.KindOSReport,
					Unit: r.Unit.String(), Thread: r.Thread, Rate: r.Rate})
			})
		if err != nil {
			return err
		}
		engine.SetEvents(events)
		if policy, err = dtm.NewSelectiveSedation(cs.core, cfg.Thermal, engine, cool); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sim: unknown policy %q", kind)
	}
	dtm.SetEventLog(policy, events)
	cs.policy = policy
	return nil
}

// coolingCycles converts Table 1's thermal-RC cooling time into scaled
// cycles; stop-and-go stalls this long per emergency and selective
// sedation derives its re-examination delay from it.
func coolingCycles(cfg config.Config) int64 {
	ms := cfg.Thermal.CoolingTimeMs
	if ms <= 0 {
		ms = 10
	}
	seconds := ms * 1e-3 / cfg.Thermal.Scale
	return int64(seconds * cfg.Power.FrequencyHz)
}

// Core exposes core 0's pipeline (for tests and examples).
func (s *Simulator) Core() *cpu.Core { return s.cores[0].core }

// Monitor exposes core 0's sedation monitor.
func (s *Simulator) Monitor() *score.Monitor { return s.cores[0].mon }

// Policy exposes core 0's DTM policy.
func (s *Simulator) Policy() dtm.Policy { return s.cores[0].policy }

// Solver exposes the thermal substrate, anchored at its steady
// operating point.
func (s *Simulator) Solver() thermal.Solver {
	s.anchor()
	return s.solver
}

// steadyPowers fills the power scratch with every core's power vector
// at the typical activity rates: the operating point the die is
// anchored at. It reads only the power models' static parameters and
// supply voltage, never the programs, so every die of one
// configuration anchors identically.
func (s *Simulator) steadyPowers() [][power.NumUnits]float64 {
	for c, cs := range s.cores {
		s.powers[c] = cs.model.SteadyPowers(power.TypicalRates())
	}
	return s.powers
}

// anchor relaxes the die to its steady operating point, once. It runs
// lazily, on the first warmup (RunCycles runs a pending one) or Solver
// call. The cores'
// warmup never touches the solver, and the lumped network's steady
// state is a direct solve, so anchoring before or after the cores warm
// gives the same bits.
func (s *Simulator) anchor() {
	if s.anchored {
		return
	}
	s.anchored = true
	s.solver.InitSteadyCores(s.steadyPowers())
}

// warmup runs every core's warmup (if pending) and closes it.
func (s *Simulator) warmup() error {
	if s.warmed {
		return nil
	}
	if s.opts.WarmupCycles > 0 {
		for _, cs := range s.cores {
			cs.warm(s.opts.WarmupCycles)
		}
	}
	return s.finishWarmup(nil)
}

// warm runs one core's share of the warmup. It never touches the die:
// a core warms alone, with no thermal step, which is what makes its
// post-warmup state shareable across dies.
func (cs *coreSim) warm(cycles int64) {
	cs.core.Run(cycles)
	cs.model.Prime(cs.core.Activity())
	cs.mon.Prime()
}

// finishWarmup closes the warmup: the die takes die's temperatures
// when given, else it is anchored (if not yet). Both solvers' steady
// states are exact, so a die anchored before the warmup needs no
// second anchor after it.
func (s *Simulator) finishWarmup(die *thermal.SolverState) error {
	s.warmed = true
	if die != nil {
		s.anchored = true
		return s.solver.SetState(*die)
	}
	s.anchor()
	return nil
}

// Run simulates one OS quantum and returns its measurements.
func (s *Simulator) Run() (*Result, error) {
	return s.RunCycles(s.cfg.Run.QuantumCycles)
}

// RunCycles simulates one measurement quantum of the given number of
// cycles on every core and returns its measurements. It runs the
// warmup first if it is still pending. The quantum advances one sample
// chunk at a time; cores run in index order within each chunk, and the
// solver steps once per sensor interval over every core's power, so
// core order never affects the physics. A tail shorter than one sensor
// interval is simulated but not sensed: it steps no solver, ticks no
// policy, takes no sample and adds nothing to TotalPowerW.
func (s *Simulator) RunCycles(quantum int64) (*Result, error) {
	qr, err := s.openQuantum(quantum)
	if err != nil {
		return nil, err
	}
	for qr.done < quantum {
		if err := s.runChunk(qr); err != nil {
			return nil, err
		}
	}
	return s.closeQuantum(qr), nil
}

// openQuantum runs the warmup (if pending) and takes every per-quantum
// baseline.
func (s *Simulator) openQuantum(quantum int64) (*quantumRun, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("sim: quantum %d must be positive", quantum)
	}
	if err := s.warmup(); err != nil {
		return nil, err
	}

	// closeQuantum copies the quantum's events out into its Result, so
	// nothing outside the quantum reads the log: each quantum reuses the
	// log's backing storage instead of letting a long-lived simulator
	// grow it without bound.
	s.events.Reset()

	qr := &quantumRun{
		startCycle: s.cores[0].core.Cycle(),
		chip:       peakTracker{peak: -1},
		cores:      make([]coreQuantum, len(s.cores)),
	}
	sample := int64(s.cfg.Sedation.SampleIntervalCycles)
	boundaries := (quantum + sample - 1) / sample / (int64(s.cfg.Thermal.SensorIntervalCycles) / sample)
	for c, cs := range s.cores {
		n := len(cs.threads)
		cq := &qr.cores[c]
		cq.peak = -1
		cq.startStalled = cs.core.StalledCycles()
		cq.startStats = make([]cpu.ThreadStats, n)
		cq.startRF = make([]uint64, n)
		cq.lastCommitted = make([]uint64, n)
		for tid := range cs.threads {
			cq.startStats[tid] = cs.core.Stats(tid)
			cq.startRF[tid] = cs.core.Activity().Thread(tid, power.UnitIntReg)
			cq.lastCommitted[tid] = cq.startStats[tid].Committed
		}
		if s.opts.CollectSamples {
			cq.samples = sampleBuffer(boundaries, n)
		}
	}
	return qr, nil
}

// sampleBuffer returns an empty sample slice with room for a quantum's
// boundaries, each slot's per-thread slices already cut from two
// shared arrays, so taking a sample never allocates.
func sampleBuffer(boundaries int64, threads int) []trace.Sample {
	buf := make([]trace.Sample, boundaries)
	ipc := make([]float64, len(buf)*threads)
	sedated := make([]bool, len(buf)*threads)
	for i := range buf {
		lo, hi := i*threads, (i+1)*threads
		buf[i].ThreadIPC, buf[i].ThreadSedated = ipc[lo:hi:hi], sedated[lo:hi:hi]
	}
	return buf[:0]
}

// runChunk advances the quantum by one sample chunk: every core runs
// one sample interval and its monitor samples, and at a sensor
// boundary the die senses.
func (s *Simulator) runChunk(qr *quantumRun) error {
	sample := int64(s.cfg.Sedation.SampleIntervalCycles)
	for c, cs := range s.cores {
		// The stall flag feeds the samples only; the gated-cycle count
		// comes from the core's own accounting, which stays exact even
		// if a policy ever toggles the stall mid-chunk.
		qr.cores[c].stalled = cs.core.GlobalStalled()
		cs.core.Run(sample)
		cs.mon.Sample()
	}
	qr.done += sample
	qr.chunks++
	if qr.chunks%(int64(s.cfg.Thermal.SensorIntervalCycles)/sample) != 0 {
		return nil
	}
	return s.sense(qr)
}

// sense runs one sensor boundary: every core's power interval, one
// solver step, the peak and emergency bookkeeping, the chip's
// emergency event, the DTM tick, and the samples.
func (s *Simulator) sense(qr *quantumRun) error {
	interval := int64(s.cfg.Thermal.SensorIntervalCycles)
	secondsPerSensor := float64(interval) / s.cfg.Power.FrequencyHz
	emergencyK := s.cfg.Thermal.EmergencyK
	total := 0.0
	for c, cs := range s.cores {
		if err := cs.model.Interval(cs.core.Activity(), interval, &s.powers[c]); err != nil {
			return err
		}
		total += thermal.TotalPower(s.powers[c])
	}
	qr.energyAccum += total * secondsPerSensor
	qr.sensed += interval
	s.solver.StepCores(s.powers, secondsPerSensor)

	cycle := s.cores[0].core.Cycle()
	chipMax, chipMaxU, chipMaxCore := -1.0, power.Unit(0), 0
	for c := range s.cores {
		maxU, maxT := s.solver.CoreMaxUnit(c)
		s.coreMaxT[c] = maxT
		qr.cores[c].observe(maxT, maxU, emergencyK)
		if maxT > chipMax {
			chipMax, chipMaxU, chipMaxCore = maxT, maxU, c
		}
	}
	hotter, rising := qr.chip.observe(chipMax, chipMaxU, emergencyK)
	if hotter {
		qr.peakCore = chipMaxCore
	}
	if rising {
		s.events.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.KindEmergency,
			Unit: chipMaxU.String(), Thread: -1, TempK: chipMax})
	}

	if s.chip != nil {
		s.chip.TickChip(cycle, s.coreMaxT)
	} else {
		for c, cs := range s.cores {
			cs.policy.Tick(cycle, s.coreMaxT[c], cs.temp)
		}
	}
	if s.opts.CollectSamples {
		for c, cs := range s.cores {
			cs.sample(&qr.cores[c], &s.powers[c], float64(interval))
		}
	}
	return nil
}

// sample appends the core's observation of the boundary just sensed to
// its quantum's samples, into a slot sampleBuffer cut.
func (cs *coreSim) sample(cq *coreQuantum, p *[power.NumUnits]float64, interval float64) {
	cq.samples = cq.samples[:len(cq.samples)+1]
	smp := &cq.samples[len(cq.samples)-1]
	smp.Cycle = cs.core.Cycle()
	smp.Stalled = cq.stalled
	smp.TotalPowerW = thermal.TotalPower(*p)
	for u := power.Unit(0); u < power.NumUnits; u++ {
		smp.UnitTempK[u] = cs.temp(u)
	}
	for tid := range cs.threads {
		cur := cs.core.Stats(tid).Committed
		smp.ThreadIPC[tid] = float64(cur-cq.lastCommitted[tid]) / interval
		cq.lastCommitted[tid] = cur
		smp.ThreadSedated[tid] = !cs.core.FetchEnabled(tid)
	}
}

// closeQuantum assembles the quantum's measurements.
func (s *Simulator) closeQuantum(qr *quantumRun) *Result {
	elapsed := s.cores[0].core.Cycle() - qr.startCycle
	cores := make([]Result, len(s.cores))
	for c, cs := range s.cores {
		cores[c] = cs.result(&qr.cores[c], elapsed)
	}
	res := &cores[0]
	if len(cores) > 1 {
		res = &Result{Cycles: elapsed, Emergencies: qr.chip.emergencies, PeakTemp: qr.chip.peak,
			PeakUnit: qr.chip.unit, PeakCore: qr.peakCore, Cores: cores}
	}
	if qr.sensed > 0 {
		res.TotalPowerW = qr.energyAccum / (float64(qr.sensed) / s.cfg.Power.FrequencyHz)
	}
	if s.events != nil {
		res.Events = append(res.Events, s.events.Events...)
	}
	return res
}

// result assembles one core's measurements over the quantum.
func (cs *coreSim) result(cq *coreQuantum, elapsed int64) Result {
	r := Result{
		Cycles:       elapsed,
		Emergencies:  cq.emergencies,
		StopGoCycles: int64(cs.core.StalledCycles() - cq.startStalled),
		PeakTemp:     cq.peak,
		PeakUnit:     cq.unit,
		Samples:      cq.samples,
		Threads:      make([]ThreadResult, 0, len(cs.threads)),
	}
	for u := power.Unit(0); u < power.NumUnits; u++ {
		r.FinalTemps[u] = cs.temp(u)
	}
	if eng := cs.policy.Engine(); eng != nil {
		r.Sedation = eng.Stats()
	}
	r.Reports = append(r.Reports, cs.reports...)
	for tid, t := range cs.threads {
		st := cs.core.Stats(tid).Sub(cq.startStats[tid])
		sed := int64(st.SedatedCycles)
		normal := max(elapsed-r.StopGoCycles-sed, 0)
		r.Threads = append(r.Threads, ThreadResult{
			Name:       t.Name,
			Committed:  st.Committed,
			Fetched:    st.Fetched,
			IPC:        st.IPC(elapsed),
			IntRegRate: float64(cs.core.Activity().Thread(tid, power.UnitIntReg)-cq.startRF[tid]) / float64(elapsed),
			Breakdown: stats.Breakdown{
				NormalCycles:   normal,
				CoolingCycles:  r.StopGoCycles,
				SedationCycles: sed,
			},
			Mispredicts: st.Mispredicts,
			L2Squashes:  st.L2Squashes,
		})
	}
	return r
}
