// Package sim wires the full system together — SMT cores, activity-based
// power models, a thermal solver, temperature sensors, and dynamic
// thermal management — and runs OS quanta, producing the measurements
// the paper's figures report. One engine serves every die size: the
// paper's machine is one core on the lumped RC network, and a die of K
// cores shares one grid solver.
package sim

import (
	"fmt"
	"strconv"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	score "github.com/heatstroke-sim/heatstroke/internal/core"
	"github.com/heatstroke-sim/heatstroke/internal/cpu"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/floorplan"
	"github.com/heatstroke-sim/heatstroke/internal/isa"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/stats"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry"
	"github.com/heatstroke-sim/heatstroke/internal/telemetry/tracing"
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
	// TraceTemps records each core's IntReg die temperature every
	// sensor interval into its Result.RFTrace.
	TraceTemps bool
	// WarmupCycles runs every core this long before measurement begins:
	// caches fill and predictors train while the die holds its steady
	// operating point. Warmup activity is excluded from every reported
	// statistic.
	WarmupCycles int64
	// Recorder, when set, receives one trace.Sample per sensor interval
	// (temperatures, power, stall state, per-thread interval IPC). It
	// records a single core: NewMulti rejects it on a die of K > 1.
	Recorder *trace.Recorder
	// CollectEvents enables the typed DTM event stream: threshold
	// crossings, sedation start/end with the culprit thread and EWMA
	// score, stop-and-go engage/release, emergency trips, and OS
	// culprit reports land in Result.Events in emission order (one
	// chip-wide timeline; per-core policies emit in core order).
	// Events are emitted only at sensor boundaries, so collection does
	// not perturb the hot path (and results stay byte-identical).
	CollectEvents bool
	// DisableFastForward runs every cycle through the full pipeline
	// step instead of fast-forwarding provably idle stall spans. The
	// two modes are byte-identical by construction (enforced by the
	// fast-forward equivalence tests); the switch exists so differential
	// suites can prove properties on both execution paths.
	DisableFastForward bool
	// Tracer, when set, records one "sim.quantum" span per measurement
	// quantum (BeginRun through FinishRun) parented under TraceParent.
	// Spans carry wall-clock boundaries plus cycle/temperature attrs and
	// never feed back into simulation state, so results are
	// byte-identical with and without them (enforced by the tracing
	// determinism guard). With Tracer nil the entire cost is one nil
	// check per quantum — zero allocations, like the disabled sensor
	// pipeline.
	Tracer *tracing.Tracer
	// TraceParent is the span context quantum spans parent under
	// (typically the per-sweep-job span). Ignored when invalid.
	TraceParent tracing.SpanContext
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
// per-core Result in Cores.
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
	// RFTrace is the IntReg temperature per sensor interval when
	// Options.TraceTemps is set.
	RFTrace []float64
	// TotalPowerW is the average power over the quantum, summed over
	// every core.
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

	// sampleScratch is the reusable sensor-interval observation handed
	// to the recorder. RecordCopy deep-copies it into recorder-owned
	// storage, so refilling the same scratch every interval is safe and
	// keeps the record path allocation-free.
	sampleScratch trace.Sample
	warmed        bool
	// started flips at the first BeginRun; WarmupSnapshot refuses to
	// run after it (the state would no longer be policy-agnostic).
	started bool
	// anchored records that the die sits at its steady operating point:
	// set by the first anchor() and by any restore of the die's state.
	// Construction leaves it false so a die whose post-warmup state is
	// restored never pays for the initial relaxation.
	anchored bool
	// coresRestored records a RestoreCore since construction: the
	// warmup's end then rebuilds the DTM policies over the restored
	// cores.
	coresRestored bool
	// poolKey is the construction identity under which a Pool recycles
	// this simulator; empty for simulators built outside a pool.
	poolKey string
	// qr is the measurement quantum in progress between BeginRun and
	// FinishRun (nil otherwise). Snapshot captures it, so a simulation
	// can fork mid-quantum at any sensor boundary.
	qr *quantumRun

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

// quantumRun is the live state of one measurement quantum: the
// serializable loop position and partial accumulators, so a quantum
// can pause at a chunk boundary, be snapshotted, and resume — in this
// simulator or a forked one.
type quantumRun struct {
	QuantumState
	// traceStartNS is the quantum's wall-clock open time, captured only
	// when a tracer is attached (zero otherwise).
	traceStartNS int64
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
	if opts.Recorder != nil && k > 1 {
		return nil, fmt.Errorf("sim: the trace recorder observes one core, not %d", k)
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
	if opts.Recorder != nil {
		s.sampleScratch.ThreadIPC = make([]float64, len(coreThreads[0]))
		s.sampleScratch.ThreadSedated = make([]bool, len(coreThreads[0]))
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
		if opts.Policy == "" {
			opts.Policy = dtm.StopAndGo
		}
	case dtm.ScopeChip:
		if opts.Policy == "" {
			opts.Policy = dtm.ChipRoundRobin
		}
		if opts.Policy != dtm.ChipRoundRobin {
			return opts, fmt.Errorf("sim: chip scope runs %q, not %q", dtm.ChipRoundRobin, opts.Policy)
		}
	default:
		return opts, fmt.Errorf("sim: unknown DTM scope %q", opts.Scope)
	}
	return opts, nil
}

// buildPolicies constructs the DTM layer for the configured scope,
// replacing any previous one: one policy per core (per-core scope, the
// five paper policies), or one chip policy over every core's pipeline
// plus inert per-core policies (chip scope). Construction calls it
// once; a warm restore calls it again, so a recycled simulator's
// policies are indistinguishable from freshly built ones. Policy
// constructors read only configuration and nominal machine parameters
// (DVS captures the supply voltage, which warmup never changes), so
// building before warmup and rebuilding after a warm restore yield
// identical policies.
func (s *Simulator) buildPolicies() error {
	cool := coolingCycles(s.cfg)
	s.chip = nil
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
// lazily, on the first warmup, BeginRun, Snapshot or Solver call. The
// cores' warmup never touches the solver, and the lumped network's
// steady state is a direct solve, so anchoring before or after the
// cores warm gives the same bits.
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
	if s.coresRestored {
		// As a warm-sentinel Restore does: policies start fresh over the
		// restored cores and their supply voltages.
		s.coresRestored = false
		if err := s.buildPolicies(); err != nil {
			return err
		}
	}
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

// RunCycles simulates the given number of cycles on every core.
func (s *Simulator) RunCycles(quantum int64) (*Result, error) {
	if err := s.BeginRun(quantum); err != nil {
		return nil, err
	}
	if _, err := s.StepRun(quantum); err != nil {
		return nil, err
	}
	return s.FinishRun()
}

// BeginRun opens a measurement quantum: it runs the warmup (if
// pending) and anchors every per-quantum baseline. Advance the quantum
// with StepRun and close it with FinishRun; RunCycles is exactly that
// composition. Only one quantum may be in progress at a time.
func (s *Simulator) BeginRun(quantum int64) error {
	if quantum <= 0 {
		return fmt.Errorf("sim: quantum %d must be positive", quantum)
	}
	if s.qr != nil {
		return fmt.Errorf("sim: a quantum is already in progress (%d of %d cycles done)", s.qr.Done, s.qr.Quantum)
	}
	if err := s.warmup(); err != nil {
		return err
	}
	s.started = true

	// FinishRun copies the open quantum's events out into its Result,
	// so nothing outside the quantum reads the log: each BeginRun reuses
	// the log's backing storage instead of letting a long-lived
	// simulator grow it without bound.
	s.events.Reset()

	qr := &quantumRun{QuantumState: QuantumState{
		Quantum:    quantum,
		StartCycle: s.cores[0].core.Cycle(),
		PeakTemp:   -1,
		Cores:      make([]CoreQuantumState, len(s.cores)),
	}}
	for c, cs := range s.cores {
		n := len(cs.threads)
		cq := &qr.Cores[c]
		cq.PeakTemp = -1
		cq.StartStalled = cs.core.StalledCycles()
		cq.StartStats = make([]cpu.ThreadStats, n)
		cq.StartRF = make([]uint64, n)
		cq.LastCommitted = make([]uint64, n)
		for tid := range cs.threads {
			cq.StartStats[tid] = cs.core.Stats(tid)
			cq.StartRF[tid] = cs.core.Activity().Thread(tid, power.UnitIntReg)
			cq.LastCommitted[tid] = cq.StartStats[tid].Committed
		}
		if s.opts.TraceTemps {
			// One entry per sensor boundary: size the trace up front so
			// the appends in StepRun never grow the backing array.
			cq.RFTrace = make([]float64, 0, quantum/int64(s.cfg.Thermal.SensorIntervalCycles)+1)
		}
	}
	if s.opts.Tracer != nil {
		qr.traceStartNS = time.Now().UnixNano()
	}
	s.qr = qr
	return nil
}

// StepRun advances the open quantum until at least upTo of its cycles
// are done (clamped to the quantum length), stopping at a sample-chunk
// boundary, and reports whether the quantum is complete. Cores advance
// in index order within each chunk; the solver steps once per sensor
// interval over every core's power, so core order never affects the
// physics. Every sensor boundary inside the advanced span runs exactly
// as it would have in a single RunCycles call, so pausing — and
// forking via Snapshot — at any chunk boundary is invisible to the
// results.
func (s *Simulator) StepRun(upTo int64) (bool, error) {
	qr := s.qr
	if qr == nil {
		return false, fmt.Errorf("sim: StepRun without BeginRun")
	}
	if upTo > qr.Quantum {
		upTo = qr.Quantum
	}
	sample := int64(s.cfg.Sedation.SampleIntervalCycles)
	interval := int64(s.cfg.Thermal.SensorIntervalCycles)
	sensorEvery := interval / sample
	secondsPerSensor := float64(interval) / s.cfg.Power.FrequencyHz
	emergencyK := s.cfg.Thermal.EmergencyK
	for qr.Done < upTo {
		// stalled feeds the trace recorder only; the gated-cycle count
		// comes from the core's own accounting, which stays exact even
		// if a policy ever toggles the stall mid-chunk.
		stalled := s.cores[0].core.GlobalStalled()
		for _, cs := range s.cores {
			cs.core.Run(sample)
			cs.mon.Sample()
		}
		qr.Done += sample
		qr.Chunks++
		if qr.Chunks%sensorEvery != 0 {
			continue
		}

		total := 0.0
		for c, cs := range s.cores {
			if err := cs.model.Interval(cs.core.Activity(), interval, &s.powers[c]); err != nil {
				return false, err
			}
			total += thermal.TotalPower(s.powers[c])
		}
		qr.EnergyAccum += total * secondsPerSensor
		s.solver.StepCores(s.powers, secondsPerSensor)

		cycle := s.cores[0].core.Cycle()
		chipMax, chipMaxU, chipMaxCore := -1.0, power.Unit(0), 0
		for c := range s.cores {
			maxU, maxT := s.solver.CoreMaxUnit(c)
			s.coreMaxT[c] = maxT
			cq := &qr.Cores[c]
			if maxT > cq.PeakTemp {
				cq.PeakTemp, cq.PeakUnit = maxT, maxU
			}
			if maxT >= emergencyK {
				if !cq.AboveEmergency {
					cq.Emergencies++
					cq.AboveEmergency = true
				}
			} else {
				cq.AboveEmergency = false
			}
			if maxT > chipMax {
				chipMax, chipMaxU, chipMaxCore = maxT, maxU, c
			}
		}
		if chipMax > qr.PeakTemp {
			qr.PeakTemp, qr.PeakUnit, qr.PeakCore = chipMax, chipMaxU, chipMaxCore
		}
		if chipMax >= emergencyK {
			if !qr.AboveEmergency {
				qr.Emergencies++
				qr.AboveEmergency = true
				s.events.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.KindEmergency,
					Unit: chipMaxU.String(), Thread: -1, TempK: chipMax})
			}
		} else {
			qr.AboveEmergency = false
		}

		if s.chip != nil {
			s.chip.TickChip(cycle, s.coreMaxT)
		} else {
			for c, cs := range s.cores {
				cs.policy.Tick(cycle, s.coreMaxT[c], cs.temp)
			}
		}
		if s.opts.TraceTemps {
			for c := range s.cores {
				qr.Cores[c].RFTrace = append(qr.Cores[c].RFTrace, s.solver.CoreUnitTemp(c, power.UnitIntReg))
			}
		}
		if s.opts.Recorder != nil {
			s.record(stalled, qr.Cores[0].LastCommitted)
		}
	}
	return qr.Done >= qr.Quantum, nil
}

// record captures one trace sample of the single core at a sensor
// boundary into the reusable scratch and hands it to the recorder by
// copy.
func (s *Simulator) record(stalled bool, lastCommitted []uint64) {
	cs := s.cores[0]
	sample := &s.sampleScratch
	sample.Cycle = cs.core.Cycle()
	sample.Stalled = stalled
	sample.TotalPowerW = thermal.TotalPower(s.powers[0])
	for u := power.Unit(0); u < power.NumUnits; u++ {
		sample.UnitTempK[u] = s.solver.CoreUnitTemp(0, u)
	}
	interval := float64(s.cfg.Thermal.SensorIntervalCycles)
	for tid := range cs.threads {
		cur := cs.core.Stats(tid).Committed
		sample.ThreadIPC[tid] = float64(cur-lastCommitted[tid]) / interval
		lastCommitted[tid] = cur
		sample.ThreadSedated[tid] = !cs.core.FetchEnabled(tid)
	}
	s.opts.Recorder.RecordCopy(sample)
}

// RunProgress reports the open quantum's position (cycles done, total);
// both are zero when no quantum is in progress.
func (s *Simulator) RunProgress() (done, quantum int64) {
	if s.qr == nil {
		return 0, 0
	}
	return s.qr.Done, s.qr.Quantum
}

// FinishRun closes the open quantum and returns its measurements. It
// finalizes at the quantum's current position, so a caller that
// stepped only part of the quantum gets a correspondingly shorter
// Result (RunCycles always steps to completion first).
func (s *Simulator) FinishRun() (*Result, error) {
	qr := s.qr
	if qr == nil {
		return nil, fmt.Errorf("sim: FinishRun without BeginRun")
	}
	s.qr = nil
	elapsed := s.cores[0].core.Cycle() - qr.StartCycle
	cores := make([]Result, len(s.cores))
	for c, cs := range s.cores {
		cores[c] = cs.result(&qr.Cores[c], elapsed)
	}
	res := &cores[0]
	if len(cores) > 1 {
		res = &Result{Cycles: elapsed, Emergencies: qr.Emergencies, PeakTemp: qr.PeakTemp,
			PeakUnit: qr.PeakUnit, PeakCore: qr.PeakCore, Cores: cores}
	}
	res.TotalPowerW = qr.EnergyAccum / (float64(elapsed) / s.cfg.Power.FrequencyHz)
	if s.events != nil {
		res.Events = append(res.Events, s.events.Events...)
	}
	s.traceQuantum(res, qr.traceStartNS)
	return res, nil
}

// result assembles one core's measurements over the quantum.
func (cs *coreSim) result(cq *CoreQuantumState, elapsed int64) Result {
	r := Result{
		Cycles:       elapsed,
		Emergencies:  cq.Emergencies,
		StopGoCycles: int64(cs.core.StalledCycles() - cq.StartStalled),
		PeakTemp:     cq.PeakTemp,
		PeakUnit:     cq.PeakUnit,
		RFTrace:      cq.RFTrace,
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
		st := cs.core.Stats(tid).Sub(cq.StartStats[tid])
		sed := int64(st.SedatedCycles)
		normal := max(elapsed-r.StopGoCycles-sed, 0)
		r.Threads = append(r.Threads, ThreadResult{
			Name:       t.Name,
			Committed:  st.Committed,
			Fetched:    st.Fetched,
			IPC:        st.IPC(elapsed),
			IntRegRate: float64(cs.core.Activity().Thread(tid, power.UnitIntReg)-cq.StartRF[tid]) / float64(elapsed),
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

// traceQuantum records the quantum-boundary span when a tracer is
// attached. The nil check is the entire disabled-path cost: no time
// reads, no allocations, no branch inside the cycle loop.
func (s *Simulator) traceQuantum(res *Result, startNS int64) {
	tr := s.opts.Tracer
	if tr == nil {
		return
	}
	parent := s.opts.TraceParent
	if !parent.Valid() {
		return
	}
	tr.Emit(parent, "sim.quantum", startNS, time.Now().UnixNano(), map[string]string{
		"cycles":      strconv.FormatInt(res.Cycles, 10),
		"peak_temp_k": strconv.FormatFloat(res.PeakTemp, 'f', 2, 64),
		"policy":      string(s.opts.Policy),
	})
}
