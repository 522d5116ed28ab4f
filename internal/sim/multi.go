package sim

import (
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
)

// MultiOptions tune a multi-core simulation.
type MultiOptions struct {
	// Scope selects the DTM scope (default dtm.ScopePerCore).
	Scope dtm.Scope
	// Policy selects each core's DTM policy under the per-core scope
	// (default dtm.StopAndGo). Under the chip scope it must be empty or
	// dtm.ChipRoundRobin — the chip scope's one policy.
	Policy dtm.Kind
	// WarmupCycles runs every core this long before measurement begins,
	// then re-anchors the die at its steady operating point.
	WarmupCycles int64
	// TraceTemps records each core's IntReg temperature per sensor
	// interval into its CoreResult.RFTrace.
	TraceTemps bool
	// CollectEvents enables the typed DTM event stream (one merged
	// chip-wide timeline; per-core policies emit in core order).
	CollectEvents bool
	// DisableFastForward disables the stall fast-forward on every core.
	DisableFastForward bool
}

// MultiResult is one quantum's measurements over the whole die.
type MultiResult struct {
	Cycles int64
	// Cores holds one per-core Result: its threads, stall breakdowns,
	// sedation stats, per-core emergencies, and final temperatures.
	Cores []Result
	// Emergencies counts rising crossings of the emergency temperature
	// by the chip's hottest sensor (the DoS metric on a shared die).
	Emergencies int
	// PeakTemp/PeakUnit/PeakCore locate the hottest observation.
	PeakTemp float64
	PeakUnit power.Unit
	PeakCore int
	// Events is the merged chip-wide DTM timeline when
	// MultiOptions.CollectEvents is set.
	Events []telemetry.Event
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

// MultiSimulator drives K cores against one shared thermal substrate:
// each core has its own pipeline, power model, and monitor, but their
// power all lands on the same die, so one core's heat is every core's
// problem — the physical channel the neighbor-heat attack exploits.
type MultiSimulator struct {
	cfg    config.Config
	solver thermal.Solver
	cores  []*coreSim
	chip   dtm.ChipPolicy
	opts   MultiOptions
	events *telemetry.EventLog

	warmed  bool
	started bool
	mqr     *multiQuantumRun
	// anchored records that the die sits at its steady operating point:
	// set by the first anchor() and by any restore of the die's state.
	// NewMulti leaves it false so a die whose post-warmup state is
	// restored never pays for the initial relaxation.
	anchored bool
	// coresRestored records a RestoreCore since construction: the
	// warmup's end then rebuilds the DTM policies over the restored
	// cores.
	coresRestored bool

	// powersScratch holds the per-core power vectors handed to the
	// solver each sensor interval, reused across intervals.
	powersScratch [][power.NumUnits]float64
	coreMaxT      []float64
}

// multiQuantumRun is the live state of one whole-die measurement
// quantum, the multi-core analogue of quantumRun: lifted into a struct
// so a quantum can pause at a chunk boundary, snapshot, and resume.
type multiQuantumRun struct {
	quantum int64
	done    int64
	chunks  int64

	res            *MultiResult
	aboveEmergency bool
	coreAbove      []bool
	eventsStart    int

	startCycle   int64
	startStalled []uint64
	startStats   [][]cpu.ThreadStats
	startRF      [][]uint64
}

// NewMulti builds a simulator for cfg.Topology.Cores cores, each
// running its own thread set, over one shared thermal solver.
func NewMulti(cfg config.Config, coreThreads [][]Thread, opts MultiOptions) (*MultiSimulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := cfg.Topology.Cores
	if k < 1 {
		k = 1
	}
	if len(coreThreads) != k {
		return nil, fmt.Errorf("sim: %d thread sets for %d cores", len(coreThreads), k)
	}
	if cfg.Thermal.SensorIntervalCycles%cfg.Sedation.SampleIntervalCycles != 0 {
		return nil, fmt.Errorf("sim: sensor interval %d must be a multiple of the sample interval %d",
			cfg.Thermal.SensorIntervalCycles, cfg.Sedation.SampleIntervalCycles)
	}
	if opts.Scope == "" {
		opts.Scope = dtm.ScopePerCore
	}
	switch opts.Scope {
	case dtm.ScopePerCore:
		if opts.Policy == "" {
			opts.Policy = dtm.StopAndGo
		}
	case dtm.ScopeChip:
		if opts.Policy == "" {
			opts.Policy = dtm.ChipRoundRobin
		}
		if opts.Policy != dtm.ChipRoundRobin {
			return nil, fmt.Errorf("sim: chip scope runs %q, not %q", dtm.ChipRoundRobin, opts.Policy)
		}
	default:
		return nil, fmt.Errorf("sim: unknown DTM scope %q", opts.Scope)
	}

	solver, err := thermal.NewSolver(cfg.Topology, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	if solver.Cores() != k {
		return nil, fmt.Errorf("sim: solver models %d cores, topology %d", solver.Cores(), k)
	}

	m := &MultiSimulator{
		cfg:           cfg,
		solver:        solver,
		opts:          opts,
		cores:         make([]*coreSim, k),
		powersScratch: make([][power.NumUnits]float64, k),
		coreMaxT:      make([]float64, k),
	}
	if opts.CollectEvents {
		m.events = &telemetry.EventLog{}
	}

	// Each core's power model uses the single-core tile areas: a core
	// tile is a copy of the paper's floorplan, and the shared L2 spine's
	// K-fold area is matched by the K cores' summed L2 power, so power
	// density everywhere equals the single-core machine's.
	areas := floorplan.Default().UnitAreas()
	for c := 0; c < k; c++ {
		threads := coreThreads[c]
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
			cfg.Power.EnergyScale, cfg.Power.LeakageWPerMM2, areas)
		if err != nil {
			return nil, err
		}
		mon, err := score.NewMonitor(cfg.Sedation, cpuCore.Activity())
		if err != nil {
			return nil, err
		}
		cs := &coreSim{core: cpuCore, model: model, mon: mon, threads: threads}
		c := c
		cs.temp = func(u power.Unit) float64 { return m.solver.CoreUnitTemp(c, u) }
		m.cores[c] = cs
	}
	if err := m.buildPolicies(); err != nil {
		return nil, err
	}
	return m, nil
}

// steadyPowers is every core's power vector at the typical activity
// rates: the operating point the die is anchored at. It reads only the
// power models' static parameters and supply voltage, never the
// programs, so every die of one configuration anchors identically.
func (m *MultiSimulator) steadyPowers() [][power.NumUnits]float64 {
	steady := make([][power.NumUnits]float64, len(m.cores))
	for c, cs := range m.cores {
		steady[c] = cs.model.SteadyPowers(power.TypicalRates())
	}
	return steady
}

// anchor relaxes the die to its steady operating point from ambient,
// once. It runs lazily, on the first warmup, BeginRun, Snapshot or
// Solver call. The cores' warmup never touches the solver, so
// anchoring before or after they warm gives the same bits.
func (m *MultiSimulator) anchor() {
	if m.anchored {
		return
	}
	m.anchored = true
	m.solver.InitSteadyCores(m.steadyPowers())
}

// buildPolicies constructs the DTM layer for the configured scope:
// one policy per core (per-core scope, the five single-core policies
// unchanged) or one chip policy over every core's pipeline plus inert
// per-core policies (chip scope).
func (m *MultiSimulator) buildPolicies() error {
	cool := coolingCyclesFor(m.cfg)
	if m.opts.Scope == dtm.ScopeChip {
		pipes := make([]dtm.Pipeline, len(m.cores))
		for c, cs := range m.cores {
			cs.policy = dtm.NewNone()
			pipes[c] = cs.core
		}
		chip, err := dtm.NewChipRoundRobin(pipes, m.cfg.Thermal, cool)
		if err != nil {
			return err
		}
		dtm.SetChipEventLog(chip, m.events)
		m.chip = chip
		return nil
	}
	m.chip = nil
	for _, cs := range m.cores {
		p, err := buildCorePolicy(m.opts.Policy, m.cfg, cs.core, cs.model, cs.mon,
			cool, m.events, &cs.reports)
		if err != nil {
			return err
		}
		cs.policy = p
	}
	return nil
}

// Cores returns the die's core count.
func (m *MultiSimulator) Cores() int { return len(m.cores) }

// Solver exposes the shared thermal substrate, anchored at its steady
// operating point.
func (m *MultiSimulator) Solver() thermal.Solver {
	m.anchor()
	return m.solver
}

// Core exposes one core's pipeline (for tests).
func (m *MultiSimulator) Core(c int) *cpu.Core { return m.cores[c].core }

// ChipPolicy exposes the chip-scope policy (nil under per-core scope).
func (m *MultiSimulator) ChipPolicy() dtm.ChipPolicy { return m.chip }

// warmup mirrors the single-core warmup on every core, then re-anchors
// the shared die at its steady operating point.
func (m *MultiSimulator) warmup() error {
	if m.warmed {
		return nil
	}
	if m.opts.WarmupCycles > 0 {
		for _, cs := range m.cores {
			cs.warm(m.opts.WarmupCycles)
		}
	}
	return m.finishWarmup(nil)
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
// when given, else it is anchored (if not yet) and re-anchored at the
// steady operating point, as a cold warmup does.
func (m *MultiSimulator) finishWarmup(die *thermal.SolverState) error {
	m.warmed = true
	if m.coresRestored {
		// As the single-core warm-sentinel Restore does: policies start
		// fresh over the restored cores and their supply voltages.
		m.coresRestored = false
		if err := m.buildPolicies(); err != nil {
			return err
		}
	}
	if die != nil {
		m.anchored = true
		return m.solver.SetState(*die)
	}
	m.anchor()
	if m.opts.WarmupCycles > 0 {
		m.solver.InitSteadyCores(m.steadyPowers())
	}
	return nil
}

// Run simulates one OS quantum and returns whole-die measurements.
func (m *MultiSimulator) Run() (*MultiResult, error) {
	return m.RunCycles(m.cfg.Run.QuantumCycles)
}

// RunCycles simulates the given number of cycles on every core.
func (m *MultiSimulator) RunCycles(quantum int64) (*MultiResult, error) {
	if err := m.BeginRun(quantum); err != nil {
		return nil, err
	}
	if _, err := m.StepRun(quantum); err != nil {
		return nil, err
	}
	return m.FinishRun()
}

// BeginRun opens a whole-die measurement quantum.
func (m *MultiSimulator) BeginRun(quantum int64) error {
	if quantum <= 0 {
		return fmt.Errorf("sim: quantum %d must be positive", quantum)
	}
	if m.mqr != nil {
		return fmt.Errorf("sim: a quantum is already in progress (%d of %d cycles done)", m.mqr.done, m.mqr.quantum)
	}
	if err := m.warmup(); err != nil {
		return err
	}
	m.started = true
	m.events.Reset()

	k := len(m.cores)
	mqr := &multiQuantumRun{
		quantum:      quantum,
		res:          &MultiResult{PeakTemp: -1, Cores: make([]Result, k)},
		coreAbove:    make([]bool, k),
		eventsStart:  m.events.Len(),
		startCycle:   m.cores[0].core.Cycle(),
		startStalled: make([]uint64, k),
		startStats:   make([][]cpu.ThreadStats, k),
		startRF:      make([][]uint64, k),
	}
	for c, cs := range m.cores {
		mqr.startStalled[c] = cs.core.StalledCycles()
		mqr.startStats[c] = make([]cpu.ThreadStats, len(cs.threads))
		mqr.startRF[c] = make([]uint64, len(cs.threads))
		for tid := range cs.threads {
			mqr.startStats[c][tid] = cs.core.Stats(tid)
			mqr.startRF[c][tid] = cs.core.Activity().Thread(tid, power.UnitIntReg)
		}
		mqr.res.Cores[c].PeakTemp = -1
		if m.opts.TraceTemps {
			mqr.res.Cores[c].RFTrace = make([]float64, 0, quantum/int64(m.cfg.Thermal.SensorIntervalCycles)+1)
		}
	}
	m.mqr = mqr
	return nil
}

// StepRun advances the open quantum until at least upTo of its cycles
// are done, stopping at a sample-chunk boundary, and reports whether
// the quantum is complete. Cores advance in index order within each
// chunk; the shared solver steps once per sensor interval over every
// core's power, so core order never affects the physics.
func (m *MultiSimulator) StepRun(upTo int64) (bool, error) {
	mqr := m.mqr
	if mqr == nil {
		return false, fmt.Errorf("sim: StepRun without BeginRun")
	}
	if upTo > mqr.quantum {
		upTo = mqr.quantum
	}
	sample := int64(m.cfg.Sedation.SampleIntervalCycles)
	sensorEvery := int64(m.cfg.Thermal.SensorIntervalCycles) / sample
	secondsPerSensor := float64(m.cfg.Thermal.SensorIntervalCycles) / m.cfg.Power.FrequencyHz
	res := mqr.res
	for mqr.done < upTo {
		for _, cs := range m.cores {
			cs.core.Run(sample)
			cs.mon.Sample()
		}
		mqr.done += sample
		mqr.chunks++

		if mqr.chunks%sensorEvery != 0 {
			continue
		}
		for c, cs := range m.cores {
			if err := cs.model.Interval(cs.core.Activity(),
				int64(m.cfg.Thermal.SensorIntervalCycles), &m.powersScratch[c]); err != nil {
				return false, err
			}
		}
		m.solver.StepCores(m.powersScratch, secondsPerSensor)

		cycle := m.cores[0].core.Cycle()
		chipMax, chipMaxU, chipMaxCore := -1.0, power.Unit(0), 0
		for c := range m.cores {
			maxU, maxT := m.solver.CoreMaxUnit(c)
			m.coreMaxT[c] = maxT
			cr := &res.Cores[c]
			if maxT > cr.PeakTemp {
				cr.PeakTemp, cr.PeakUnit = maxT, maxU
			}
			if maxT >= m.cfg.Thermal.EmergencyK {
				if !mqr.coreAbove[c] {
					cr.Emergencies++
					mqr.coreAbove[c] = true
				}
			} else {
				mqr.coreAbove[c] = false
			}
			if maxT > chipMax {
				chipMax, chipMaxU, chipMaxCore = maxT, maxU, c
			}
		}
		if chipMax > res.PeakTemp {
			res.PeakTemp, res.PeakUnit, res.PeakCore = chipMax, chipMaxU, chipMaxCore
		}
		if chipMax >= m.cfg.Thermal.EmergencyK {
			if !mqr.aboveEmergency {
				res.Emergencies++
				mqr.aboveEmergency = true
				m.events.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.KindEmergency,
					Unit: chipMaxU.String(), Thread: -1, TempK: chipMax})
			}
		} else {
			mqr.aboveEmergency = false
		}

		if m.chip != nil {
			m.chip.TickChip(cycle, m.coreMaxT)
		} else {
			for c, cs := range m.cores {
				cs.policy.Tick(cycle, m.coreMaxT[c], cs.temp)
			}
		}
		if m.opts.TraceTemps {
			for c := range m.cores {
				res.Cores[c].RFTrace = append(res.Cores[c].RFTrace,
					m.solver.CoreUnitTemp(c, power.UnitIntReg))
			}
		}
	}
	return mqr.done >= mqr.quantum, nil
}

// FinishRun closes the open quantum and returns its measurements.
func (m *MultiSimulator) FinishRun() (*MultiResult, error) {
	mqr := m.mqr
	if mqr == nil {
		return nil, fmt.Errorf("sim: FinishRun without BeginRun")
	}
	m.mqr = nil
	res := mqr.res
	elapsed := m.cores[0].core.Cycle() - mqr.startCycle
	res.Cycles = elapsed

	for c, cs := range m.cores {
		cr := &res.Cores[c]
		cr.Cycles = elapsed
		cr.StopGoCycles = int64(cs.core.StalledCycles() - mqr.startStalled[c])
		for u := power.Unit(0); u < power.NumUnits; u++ {
			cr.FinalTemps[u] = m.solver.CoreUnitTemp(c, u)
		}
		if eng := cs.policy.Engine(); eng != nil {
			cr.Sedation = eng.Stats()
		}
		cr.Reports = append(cr.Reports, cs.reports...)
		cr.Threads = make([]ThreadResult, 0, len(cs.threads))
		for tid, t := range cs.threads {
			st := cs.core.Stats(tid).Sub(mqr.startStats[c][tid])
			sed := int64(st.SedatedCycles)
			cooling := cr.StopGoCycles
			normal := elapsed - cooling - sed
			if normal < 0 {
				normal = 0
			}
			cr.Threads = append(cr.Threads, ThreadResult{
				Name:       t.Name,
				Committed:  st.Committed,
				Fetched:    st.Fetched,
				IPC:        st.IPC(elapsed),
				IntRegRate: float64(cs.core.Activity().Thread(tid, power.UnitIntReg)-mqr.startRF[c][tid]) / float64(elapsed),
				Breakdown: stats.Breakdown{
					NormalCycles:   normal,
					CoolingCycles:  cooling,
					SedationCycles: sed,
				},
				Mispredicts: st.Mispredicts,
				L2Squashes:  st.L2Squashes,
			})
		}
	}
	if m.events != nil {
		res.Events = append(res.Events, m.events.Events[mqr.eventsStart:]...)
	}
	return res, nil
}
