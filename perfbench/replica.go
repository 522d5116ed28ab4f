package main

import (
	"fmt"
	"time"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	score "github.com/heatstroke-sim/heatstroke/internal/core"
	"github.com/heatstroke-sim/heatstroke/internal/cpu"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/floorplan"
	"github.com/heatstroke-sim/heatstroke/internal/isa"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
)

// layerClock sums the host time and counts of every layer call a
// replica makes. Init time is split by where the call sits: at
// construction (build) or re-anchoring the die after warmup (warm),
// which the warmup time also covers.
type layerClock struct {
	cpu, warmup, initBuild, initWarm, step, core, power, dtm time.Duration

	cycles                           int64 // measured core-cycles the cpu calls ran
	buildInits, warmups              int64 // each warmup re-anchors once
	steps, samples, intervals, ticks int64
}

// sub returns the calls made since base.
func (c layerClock) sub(base layerClock) layerClock {
	return layerClock{
		cpu: c.cpu - base.cpu, warmup: c.warmup - base.warmup,
		initBuild: c.initBuild - base.initBuild, initWarm: c.initWarm - base.initWarm,
		step: c.step - base.step, core: c.core - base.core, power: c.power - base.power, dtm: c.dtm - base.dtm,
		cycles: c.cycles - base.cycles, buildInits: c.buildInits - base.buildInits, warmups: c.warmups - base.warmups,
		steps:   c.steps - base.steps,
		samples: c.samples - base.samples, intervals: c.intervals - base.intervals, ticks: c.ticks - base.ticks,
	}
}

// substrate is the thermal model a replica steps: the lumped network
// of the single-core simulator or the solver of the multi-core one.
type substrate interface {
	initSteady(p [][power.NumUnits]float64)
	step(p [][power.NumUnits]float64, seconds float64)
	maxUnit(core int) (power.Unit, float64)
	unitTemp(core int) func(power.Unit) float64
}

type lumped struct{ net *thermal.Network }

func (l lumped) initSteady(p [][power.NumUnits]float64)         { l.net.InitSteady(p[0]) }
func (l lumped) step(p [][power.NumUnits]float64, secs float64) { l.net.Step(p[0], secs) }
func (l lumped) maxUnit(int) (power.Unit, float64)              { return l.net.MaxUnit() }
func (l lumped) unitTemp(int) func(power.Unit) float64          { return l.net.UnitTemp }

type solver struct{ s thermal.Solver }

func (g solver) initSteady(p [][power.NumUnits]float64)         { g.s.InitSteadyCores(p) }
func (g solver) step(p [][power.NumUnits]float64, secs float64) { g.s.StepCores(p, secs) }
func (g solver) maxUnit(c int) (power.Unit, float64)            { return g.s.CoreMaxUnit(c) }
func (g solver) unitTemp(c int) func(power.Unit) float64 {
	return func(u power.Unit) float64 { return g.s.CoreUnitTemp(c, u) }
}

// replicaSpec is one simulation as sim.New or sim.NewMulti would build
// it: multi selects the multi-core simulator (a thermal.Solver for
// cfg.Topology) over the single-core one (the lumped network).
type replicaSpec struct {
	cfg    config.Config
	progs  [][]*isa.Program // per core
	multi  bool
	scope  dtm.Scope
	policy dtm.Kind
	warmup int64
}

type replicaCore struct {
	core     *cpu.Core
	nthreads int
	model    *power.Model
	mon      *score.Monitor
	policy   dtm.Policy
	temp     func(power.Unit) float64
}

// replica is the shadow quantum loop: it builds every layer with its
// public constructor and steps them in the order sim does, timing each
// call into a layer. Its results must match sim exactly; the traced
// run checks that before it reports the split.
type replica struct {
	cfg      config.Config
	cores    []*replicaCore
	sub      substrate
	chip     dtm.ChipPolicy
	warmupN  int64
	warmed   bool
	powers   [][power.NumUnits]float64
	coreMaxT []float64
	clk      *layerClock
}

// coolingCycles mirrors sim's conversion of the cooling time into
// scaled cycles.
func coolingCycles(cfg config.Config) int64 {
	msecs := cfg.Thermal.CoolingTimeMs
	if msecs <= 0 {
		msecs = 10
	}
	return int64(msecs * 1e-3 / cfg.Thermal.Scale * cfg.Power.FrequencyHz)
}

func newReplica(spec replicaSpec, clk *layerClock) (*replica, error) {
	cfg := spec.cfg
	k := len(spec.progs)
	r := &replica{cfg: cfg, warmupN: spec.warmup, clk: clk,
		powers: make([][power.NumUnits]float64, k), coreMaxT: make([]float64, k)}
	if spec.multi {
		s, err := thermal.NewSolver(cfg.Topology, cfg.Thermal)
		if err != nil {
			return nil, err
		}
		if s.Cores() != k {
			return nil, fmt.Errorf("replica: solver models %d cores, spec %d", s.Cores(), k)
		}
		r.sub = solver{s}
	} else {
		if k != 1 {
			return nil, fmt.Errorf("replica: single-core spec with %d cores", k)
		}
		net, err := thermal.New(floorplan.Default(), cfg.Thermal)
		if err != nil {
			return nil, err
		}
		r.sub = lumped{net}
	}
	areas := floorplan.Default().UnitAreas()
	cool := coolingCycles(cfg)
	scope := spec.scope
	if scope == "" {
		scope = dtm.ScopePerCore
	}
	for c, progs := range spec.progs {
		cc, err := cpu.New(&cfg, progs)
		if err != nil {
			return nil, err
		}
		model, err := power.NewModel(power.DefaultEnergies(), cfg.Power.FrequencyHz, cfg.Power.Vdd,
			cfg.Power.EnergyScale, cfg.Power.LeakageWPerMM2, areas)
		if err != nil {
			return nil, err
		}
		mon, err := score.NewMonitor(cfg.Sedation, cc.Activity())
		if err != nil {
			return nil, err
		}
		rc := &replicaCore{core: cc, nthreads: len(progs), model: model, mon: mon, temp: r.sub.unitTemp(c)}
		kind := spec.policy
		if scope == dtm.ScopeChip {
			kind = dtm.None
		}
		if rc.policy, err = corePolicy(kind, cfg, rc, cool); err != nil {
			return nil, err
		}
		r.cores = append(r.cores, rc)
	}
	if scope == dtm.ScopeChip {
		pipes := make([]dtm.Pipeline, k)
		for c, rc := range r.cores {
			pipes[c] = rc.core
		}
		chip, err := dtm.NewChipRoundRobin(pipes, cfg.Thermal, cool)
		if err != nil {
			return nil, err
		}
		r.chip = chip
	}
	r.initSteady(&clk.initBuild)
	clk.buildInits++
	return r, nil
}

// corePolicy builds one core's DTM policy as sim does for the kinds the
// benchmark runs.
func corePolicy(kind dtm.Kind, cfg config.Config, rc *replicaCore, cool int64) (dtm.Policy, error) {
	switch kind {
	case dtm.None:
		return dtm.NewNone(), nil
	case "", dtm.StopAndGo:
		return dtm.NewStopAndGo(rc.core, cfg.Thermal, cool), nil
	case dtm.SelectiveSedation:
		eng, err := score.NewEngine(cfg.Sedation, rc.mon, rc.core, cool, func(score.Report) {})
		if err != nil {
			return nil, err
		}
		return dtm.NewSelectiveSedation(rc.core, cfg.Thermal, eng, cool)
	default:
		return nil, fmt.Errorf("replica: policy %q not replicated", kind)
	}
}

// initSteady anchors the die at the steady state of every core's
// typical power, timing the thermal call into into.
func (r *replica) initSteady(into *time.Duration) {
	steady := make([][power.NumUnits]float64, len(r.cores))
	for c, rc := range r.cores {
		steady[c] = rc.model.SteadyPowers(power.TypicalRates())
	}
	t := time.Now()
	r.sub.initSteady(steady)
	*into += time.Since(t)
}

func (r *replica) warmup() {
	if r.warmed {
		return
	}
	r.warmed = true
	if r.warmupN <= 0 {
		return
	}
	t := time.Now()
	for _, rc := range r.cores {
		rc.core.Run(r.warmupN)
		rc.model.Prime(rc.core.Activity())
		rc.mon.Prime()
	}
	r.initSteady(&r.clk.initWarm)
	r.clk.warmup += time.Since(t)
	r.clk.warmups++
}

// coreResult is one core's quantum measurements.
type coreResult struct {
	stall       int64
	peak        float64
	emergencies int
	threads     []cpu.ThreadStats
}

// replicaResult is one quantum's measurements, chip-wide and per core.
type replicaResult struct {
	cycles      int64
	peak        float64
	emergencies int
	cores       []coreResult
}

// run simulates one measurement quantum (running the warmup first if
// it is still pending), mirroring sim's BeginRun/StepRun/FinishRun.
func (r *replica) run(quantum int64) (*replicaResult, error) {
	r.warmup()
	clk := r.clk
	k := len(r.cores)
	startCycle := r.cores[0].core.Cycle()
	startStall := make([]uint64, k)
	startStats := make([][]cpu.ThreadStats, k)
	res := &replicaResult{peak: -1, cores: make([]coreResult, k)}
	for c, rc := range r.cores {
		startStall[c] = rc.core.StalledCycles()
		for tid := 0; tid < rc.nthreads; tid++ {
			startStats[c] = append(startStats[c], rc.core.Stats(tid))
		}
		res.cores[c].peak = -1
	}
	above := false
	coreAbove := make([]bool, k)
	sample := int64(r.cfg.Sedation.SampleIntervalCycles)
	sensorCycles := int64(r.cfg.Thermal.SensorIntervalCycles)
	sensorEvery := sensorCycles / sample
	secs := float64(sensorCycles) / r.cfg.Power.FrequencyHz
	emergencyK := r.cfg.Thermal.EmergencyK
	for done, chunks := int64(0), int64(0); done < quantum; {
		for _, rc := range r.cores {
			t := time.Now()
			rc.core.Run(sample)
			t1 := time.Now()
			rc.mon.Sample()
			clk.core += time.Since(t1)
			clk.cpu += t1.Sub(t)
		}
		clk.cycles += sample * int64(k)
		clk.samples += int64(k)
		done += sample
		chunks++
		if chunks%sensorEvery != 0 {
			continue
		}
		t := time.Now()
		for c, rc := range r.cores {
			if err := rc.model.Interval(rc.core.Activity(), sensorCycles, &r.powers[c]); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		r.sub.step(r.powers, secs)
		t2 := time.Now()
		clk.power += t1.Sub(t)
		clk.step += t2.Sub(t1)
		clk.intervals += int64(k)
		clk.steps++

		chipMax := -1.0
		for c := range r.cores {
			_, maxT := r.sub.maxUnit(c)
			r.coreMaxT[c] = maxT
			cr := &res.cores[c]
			if maxT > cr.peak {
				cr.peak = maxT
			}
			if maxT >= emergencyK {
				if !coreAbove[c] {
					cr.emergencies++
					coreAbove[c] = true
				}
			} else {
				coreAbove[c] = false
			}
			if maxT > chipMax {
				chipMax = maxT
			}
		}
		if chipMax > res.peak {
			res.peak = chipMax
		}
		if chipMax >= emergencyK {
			if !above {
				res.emergencies++
				above = true
			}
		} else {
			above = false
		}
		cycle := r.cores[0].core.Cycle()
		t3 := time.Now()
		if r.chip != nil {
			r.chip.TickChip(cycle, r.coreMaxT)
		} else {
			for c, rc := range r.cores {
				rc.policy.Tick(cycle, r.coreMaxT[c], rc.temp)
			}
		}
		clk.dtm += time.Since(t3)
		clk.ticks++
	}
	res.cycles = r.cores[0].core.Cycle() - startCycle
	for c, rc := range r.cores {
		cr := &res.cores[c]
		cr.stall = int64(rc.core.StalledCycles() - startStall[c])
		for tid, base := range startStats[c] {
			cr.threads = append(cr.threads, rc.core.Stats(tid).Sub(base))
		}
	}
	return res, nil
}

// matchCore compares one core's replica measurements with sim's.
func matchCore(where string, got coreResult, want *sim.Result) error {
	if got.stall != want.StopGoCycles {
		return fmt.Errorf("%s: stall cycles %d, sim %d", where, got.stall, want.StopGoCycles)
	}
	if got.peak != want.PeakTemp || got.emergencies != want.Emergencies {
		return fmt.Errorf("%s: peak %v K / %d emergencies, sim %v K / %d",
			where, got.peak, got.emergencies, want.PeakTemp, want.Emergencies)
	}
	if len(got.threads) != len(want.Threads) {
		return fmt.Errorf("%s: %d threads, sim %d", where, len(got.threads), len(want.Threads))
	}
	for i, st := range got.threads {
		w := want.Threads[i]
		if st.Committed != w.Committed || st.Fetched != w.Fetched || st.Mispredicts != w.Mispredicts ||
			st.L2Squashes != w.L2Squashes || int64(st.SedatedCycles) != w.Breakdown.SedationCycles {
			return fmt.Errorf("%s thread %d: committed/fetched/mispredicts/l2/sedated %d/%d/%d/%d/%d, sim %d/%d/%d/%d/%d",
				where, i, st.Committed, st.Fetched, st.Mispredicts, st.L2Squashes, st.SedatedCycles,
				w.Committed, w.Fetched, w.Mispredicts, w.L2Squashes, w.Breakdown.SedationCycles)
		}
	}
	return nil
}

// matchSingle checks a single-core replica quantum against sim.Simulator's.
func matchSingle(got *replicaResult, want *sim.Result) error {
	if got.cycles != want.Cycles {
		return fmt.Errorf("cycles %d, sim %d", got.cycles, want.Cycles)
	}
	return matchCore("core 0", got.cores[0], want)
}

// matchMulti checks a whole-die replica quantum against sim.MultiSimulator's.
func matchMulti(got *replicaResult, want *sim.MultiResult) error {
	if got.cycles != want.Cycles || got.peak != want.PeakTemp || got.emergencies != want.Emergencies {
		return fmt.Errorf("die: cycles/peak/emergencies %d/%v/%d, sim %d/%v/%d",
			got.cycles, got.peak, got.emergencies, want.Cycles, want.PeakTemp, want.Emergencies)
	}
	if len(got.cores) != len(want.Cores) {
		return fmt.Errorf("die: %d cores, sim %d", len(got.cores), len(want.Cores))
	}
	for c := range got.cores {
		if err := matchCore(fmt.Sprintf("core %d", c), got.cores[c], &want.Cores[c]); err != nil {
			return err
		}
	}
	return nil
}
