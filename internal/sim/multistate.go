package sim

import (
	"fmt"
	"slices"

	score "github.com/heatstroke-sim/heatstroke/internal/core"
	"github.com/heatstroke-sim/heatstroke/internal/cpu"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/power"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
)

// MultiCoreState is one core's private state inside a whole-die
// snapshot: the same composition the single-core MachineState carries,
// minus the thermal substrate, which is shared and lives once in
// MultiState.Solver.
type MultiCoreState struct {
	Core    cpu.CoreState
	Model   power.ModelState
	Monitor score.MonitorState
	Engine  *score.EngineState
	DTM     *dtm.State
	Reports []score.Report
}

// Clone returns a deep copy.
func (cs MultiCoreState) Clone() MultiCoreState {
	out := cs
	out.Core = cs.Core.Clone()
	out.Monitor = cs.Monitor.Clone()
	if cs.Engine != nil {
		es := cs.Engine.Clone()
		out.Engine = &es
	}
	if cs.DTM != nil {
		ds := cs.DTM.Clone()
		out.DTM = &ds
	}
	out.Reports = slices.Clone(cs.Reports)
	return out
}

// MultiState is the whole-die extension of MachineState: every core's
// private state, the shared solver's temperatures, and the chip-scope
// policy state when one is active.
type MultiState struct {
	Scope  dtm.Scope
	Cores  []MultiCoreState
	Solver thermal.SolverState
	// Chip is non-nil only under the chip scope.
	Chip *dtm.ChipState
	// Quantum is non-nil when the snapshot was taken mid-quantum.
	Quantum *MultiQuantumState
}

// Clone returns a deep copy.
func (st *MultiState) Clone() *MultiState {
	out := *st
	out.Cores = make([]MultiCoreState, len(st.Cores))
	for i, cs := range st.Cores {
		out.Cores[i] = cs.Clone()
	}
	out.Solver = st.Solver.Clone()
	if st.Chip != nil {
		ch := st.Chip.Clone()
		out.Chip = &ch
	}
	if st.Quantum != nil {
		qs := st.Quantum.Clone()
		out.Quantum = &qs
	}
	return &out
}

// MultiQuantumState is the serializable state of a whole-die
// measurement quantum in progress: everything multiQuantumRun holds,
// so a mid-quantum fork's child finishes with a MultiResult deep-equal
// to the unforked original's.
type MultiQuantumState struct {
	Quantum int64
	Done    int64
	Chunks  int64

	AboveEmergency bool
	CoreAbove      []bool
	EventsStart    int

	StartCycle   int64
	StartStalled []uint64
	StartStats   [][]cpu.ThreadStats
	StartRF      [][]uint64

	// Partial chip-level Result accumulators.
	PeakTemp    float64
	PeakUnit    power.Unit
	PeakCore    int
	Emergencies int

	// Partial per-core accumulators, index-aligned with Cores.
	CorePeakTemp    []float64
	CorePeakUnit    []power.Unit
	CoreEmergencies []int
	CoreRFTrace     [][]float64
}

// Clone returns a deep copy.
func (q MultiQuantumState) Clone() MultiQuantumState {
	out := q
	out.CoreAbove = slices.Clone(q.CoreAbove)
	out.StartStalled = slices.Clone(q.StartStalled)
	out.StartStats = make([][]cpu.ThreadStats, len(q.StartStats))
	for i, s := range q.StartStats {
		out.StartStats[i] = slices.Clone(s)
	}
	out.StartRF = make([][]uint64, len(q.StartRF))
	for i, s := range q.StartRF {
		out.StartRF[i] = slices.Clone(s)
	}
	out.CorePeakTemp = slices.Clone(q.CorePeakTemp)
	out.CorePeakUnit = slices.Clone(q.CorePeakUnit)
	out.CoreEmergencies = slices.Clone(q.CoreEmergencies)
	out.CoreRFTrace = make([][]float64, len(q.CoreRFTrace))
	for i, s := range q.CoreRFTrace {
		out.CoreRFTrace[i] = slices.Clone(s)
	}
	return out
}

// MultiProgramsDigest hashes every core's thread identity, core order
// included, so a whole-die snapshot can prove it was built from the
// same per-core programs it is being restored into.
func MultiProgramsDigest(coreThreads [][]Thread) string {
	all := make([]Thread, 0, len(coreThreads)*2+len(coreThreads))
	for _, threads := range coreThreads {
		// A core-boundary marker thread keeps {[A B]} and {[A] [B]}
		// distinct.
		all = append(all, Thread{Name: "\x00core"})
		all = append(all, threads...)
	}
	return ProgramsDigest(all)
}

// policyLabel is the MachineState.Policy value a MultiSimulator
// snapshot carries: the per-core kind, or the chip policy's kind.
func (m *MultiSimulator) policyLabel() dtm.Kind {
	if m.opts.Scope == dtm.ScopeChip {
		return dtm.ChipRoundRobin
	}
	return m.opts.Policy
}

// Snapshot captures the whole die's mutable state. The returned state
// shares no memory with the simulator.
func (m *MultiSimulator) Snapshot() (*MachineState, error) {
	m.anchor()
	coreThreads := make([][]Thread, len(m.cores))
	for c, cs := range m.cores {
		coreThreads[c] = cs.threads
	}
	ms := &MachineState{
		Version:          StateVersion,
		ConfigDigest:     m.cfg.Digest(),
		WarmConfigDigest: m.cfg.WarmDigest(),
		ProgsDigest:      MultiProgramsDigest(coreThreads),
		Policy:           m.policyLabel(),
		Warmed:           m.warmed,
	}
	mst := &MultiState{
		Scope:  m.opts.Scope,
		Cores:  make([]MultiCoreState, len(m.cores)),
		Solver: m.solver.State().Clone(),
	}
	for c, cs := range m.cores {
		st := MultiCoreState{
			Core:    cs.core.Snapshot(),
			Model:   cs.model.Snapshot(),
			Monitor: cs.mon.Snapshot(),
		}
		ds, err := dtm.Snapshot(cs.policy)
		if err != nil {
			return nil, err
		}
		st.DTM = &ds
		if eng := cs.policy.Engine(); eng != nil {
			es := eng.Snapshot()
			st.Engine = &es
		}
		if len(cs.reports) > 0 {
			st.Reports = slices.Clone(cs.reports)
		}
		mst.Cores[c] = st
	}
	if m.chip != nil {
		ch, err := dtm.SnapshotChip(m.chip)
		if err != nil {
			return nil, err
		}
		mst.Chip = &ch
	}
	if m.events != nil && len(m.events.Events) > 0 {
		ms.Events = slices.Clone(m.events.Events)
	}
	if mqr := m.mqr; mqr != nil {
		qs := MultiQuantumState{
			Quantum:         mqr.quantum,
			Done:            mqr.done,
			Chunks:          mqr.chunks,
			AboveEmergency:  mqr.aboveEmergency,
			CoreAbove:       slices.Clone(mqr.coreAbove),
			EventsStart:     mqr.eventsStart,
			StartCycle:      mqr.startCycle,
			StartStalled:    slices.Clone(mqr.startStalled),
			PeakTemp:        mqr.res.PeakTemp,
			PeakUnit:        mqr.res.PeakUnit,
			PeakCore:        mqr.res.PeakCore,
			Emergencies:     mqr.res.Emergencies,
			StartStats:      make([][]cpu.ThreadStats, len(m.cores)),
			StartRF:         make([][]uint64, len(m.cores)),
			CorePeakTemp:    make([]float64, len(m.cores)),
			CorePeakUnit:    make([]power.Unit, len(m.cores)),
			CoreEmergencies: make([]int, len(m.cores)),
			CoreRFTrace:     make([][]float64, len(m.cores)),
		}
		for c := range m.cores {
			qs.StartStats[c] = slices.Clone(mqr.startStats[c])
			qs.StartRF[c] = slices.Clone(mqr.startRF[c])
			qs.CorePeakTemp[c] = mqr.res.Cores[c].PeakTemp
			qs.CorePeakUnit[c] = mqr.res.Cores[c].PeakUnit
			qs.CoreEmergencies[c] = mqr.res.Cores[c].Emergencies
			qs.CoreRFTrace[c] = slices.Clone(mqr.res.Cores[c].RFTrace)
		}
		mst.Quantum = &qs
	}
	ms.Multi = mst
	return ms, nil
}

// Restore loads a whole-die snapshot into m, which must have been
// built from the same configuration, per-core threads, scope, and
// policy. After Restore, continuing m is deep-equal-indistinguishable
// from continuing the simulator that produced ms.
func (m *MultiSimulator) Restore(ms *MachineState) error {
	if ms.Version != StateVersion {
		return fmt.Errorf("sim: snapshot format v%d, this build reads v%d", ms.Version, StateVersion)
	}
	mst := ms.Multi
	if mst == nil {
		return fmt.Errorf("sim: single-core snapshot cannot restore into a %d-core simulator", len(m.cores))
	}
	if d := m.cfg.Digest(); ms.ConfigDigest != d {
		return fmt.Errorf("sim: snapshot built from config %.12s.., simulator runs %.12s..", ms.ConfigDigest, d)
	}
	coreThreads := make([][]Thread, len(m.cores))
	for c, cs := range m.cores {
		coreThreads[c] = cs.threads
	}
	if d := MultiProgramsDigest(coreThreads); ms.ProgsDigest != d {
		return fmt.Errorf("sim: snapshot built from programs %.12s.., simulator runs %.12s..", ms.ProgsDigest, d)
	}
	if mst.Scope != m.opts.Scope {
		return fmt.Errorf("sim: snapshot carries %q scope state, simulator runs %q", mst.Scope, m.opts.Scope)
	}
	if ms.Policy != m.policyLabel() {
		return fmt.Errorf("sim: snapshot carries %q policy state, simulator runs %q", ms.Policy, m.policyLabel())
	}
	if len(mst.Cores) != len(m.cores) {
		return fmt.Errorf("sim: snapshot has %d cores, simulator %d", len(mst.Cores), len(m.cores))
	}
	for c, cs := range m.cores {
		st := mst.Cores[c]
		if err := cs.core.Restore(st.Core); err != nil {
			return fmt.Errorf("sim: core %d: %w", c, err)
		}
		if err := cs.model.Restore(st.Model); err != nil {
			return fmt.Errorf("sim: core %d: %w", c, err)
		}
		if err := cs.mon.Restore(st.Monitor); err != nil {
			return fmt.Errorf("sim: core %d: %w", c, err)
		}
		if st.DTM == nil {
			return fmt.Errorf("sim: core %d snapshot missing policy state", c)
		}
		if err := dtm.Restore(cs.policy, *st.DTM); err != nil {
			return fmt.Errorf("sim: core %d: %w", c, err)
		}
		if eng := cs.policy.Engine(); eng != nil {
			if st.Engine == nil {
				return fmt.Errorf("sim: core %d sedation snapshot missing engine state", c)
			}
			if err := eng.Restore(*st.Engine); err != nil {
				return fmt.Errorf("sim: core %d: %w", c, err)
			}
		}
		cs.reports = append(cs.reports[:0], st.Reports...)
	}
	if err := m.solver.SetState(mst.Solver.Clone()); err != nil {
		return err
	}
	m.anchored = true
	if m.chip != nil {
		if mst.Chip == nil {
			return fmt.Errorf("sim: chip-scope snapshot missing chip policy state")
		}
		if err := dtm.RestoreChip(m.chip, *mst.Chip); err != nil {
			return err
		}
	}
	if m.events != nil {
		m.events.Events = append(m.events.Events[:0], ms.Events...)
	}
	m.warmed = ms.Warmed
	m.coresRestored = false
	if q := mst.Quantum; q != nil {
		k := len(m.cores)
		if len(q.CoreAbove) != k || len(q.StartStalled) != k || len(q.StartStats) != k ||
			len(q.StartRF) != k || len(q.CorePeakTemp) != k || len(q.CorePeakUnit) != k ||
			len(q.CoreEmergencies) != k || len(q.CoreRFTrace) != k {
			return fmt.Errorf("sim: quantum state core counts disagree with %d cores", k)
		}
		if q.Quantum <= 0 || q.Done < 0 || q.Chunks < 0 {
			return fmt.Errorf("sim: quantum state position %d/%d (chunks %d) invalid", q.Done, q.Quantum, q.Chunks)
		}
		for c, cs := range m.cores {
			if len(q.StartStats[c]) != len(cs.threads) || len(q.StartRF[c]) != len(cs.threads) {
				return fmt.Errorf("sim: quantum state has %d/%d contexts for core %d, want %d",
					len(q.StartStats[c]), len(q.StartRF[c]), c, len(cs.threads))
			}
		}
		res := &MultiResult{
			PeakTemp:    q.PeakTemp,
			PeakUnit:    q.PeakUnit,
			PeakCore:    q.PeakCore,
			Emergencies: q.Emergencies,
			Cores:       make([]Result, k),
		}
		mqr := &multiQuantumRun{
			quantum:        q.Quantum,
			done:           q.Done,
			chunks:         q.Chunks,
			res:            res,
			aboveEmergency: q.AboveEmergency,
			coreAbove:      slices.Clone(q.CoreAbove),
			eventsStart:    q.EventsStart,
			startCycle:     q.StartCycle,
			startStalled:   slices.Clone(q.StartStalled),
			startStats:     make([][]cpu.ThreadStats, k),
			startRF:        make([][]uint64, k),
		}
		for c := range m.cores {
			mqr.startStats[c] = slices.Clone(q.StartStats[c])
			mqr.startRF[c] = slices.Clone(q.StartRF[c])
			res.Cores[c].PeakTemp = q.CorePeakTemp[c]
			res.Cores[c].PeakUnit = q.CorePeakUnit[c]
			res.Cores[c].Emergencies = q.CoreEmergencies[c]
			res.Cores[c].RFTrace = slices.Clone(q.CoreRFTrace[c])
		}
		m.mqr = mqr
		m.started = true
	} else {
		m.mqr = nil
	}
	return nil
}

// CoreWarm is one core's post-warmup state in the compact form a
// whole-die sweep holds between jobs: pipeline, power model and
// sedation monitor. It carries no DTM state (warmup never ticks a
// policy) and no thermal state (a core warms alone, with no thermal
// step), so it restores into any core running the same programs on a
// machine of the same warm configuration, under any DTM scope or
// policy, on a die of any size or grid resolution.
type CoreWarm struct {
	ProgsDigest string
	Core        cpu.CompactState
	Model       power.ModelState
	Monitor     score.MonitorState
}

// WarmCore simulates core c's warmup in place. Together with
// RestoreCore and FinishWarmup it assembles a warmup core by core:
// each core is either warmed here or restored from a CoreWarm, then
// FinishWarmup closes the warmup. Run performs the same steps on
// every core itself when the caller assembles nothing.
func (m *MultiSimulator) WarmCore(c int) error {
	if err := m.checkWarmable(c); err != nil {
		return err
	}
	m.cores[c].warm(m.opts.WarmupCycles)
	return nil
}

// CaptureCore returns core c's state, typically right after WarmCore.
// The state shares no memory with the simulator.
func (m *MultiSimulator) CaptureCore(c int) *CoreWarm {
	cs := m.cores[c]
	return &CoreWarm{
		ProgsDigest: ProgramsDigest(cs.threads),
		Core:        cs.core.CompactSnapshot(),
		Model:       cs.model.Snapshot(),
		Monitor:     cs.mon.Snapshot(),
	}
}

// RestoreCore loads w into core c in place of WarmCore; FinishWarmup
// then rebuilds the DTM policies over the restored cores. w is
// read-only and may be restored into many cores concurrently.
func (m *MultiSimulator) RestoreCore(c int, w *CoreWarm) error {
	if err := m.checkWarmable(c); err != nil {
		return err
	}
	cs := m.cores[c]
	if d := ProgramsDigest(cs.threads); w.ProgsDigest != d {
		return fmt.Errorf("sim: core %d warm state built from programs %.12s.., core runs %.12s..", c, w.ProgsDigest, d)
	}
	if err := cs.core.RestoreCompact(w.Core); err != nil {
		return fmt.Errorf("sim: core %d: %w", c, err)
	}
	if err := cs.model.Restore(w.Model); err != nil {
		return fmt.Errorf("sim: core %d: %w", c, err)
	}
	if err := cs.mon.Restore(w.Monitor); err != nil {
		return fmt.Errorf("sim: core %d: %w", c, err)
	}
	cs.reports = cs.reports[:0]
	m.coresRestored = true
	return nil
}

// FinishWarmup closes a warmup assembled by WarmCore and RestoreCore.
// With die set, the die takes its temperatures: the Solver().State()
// of another simulator of the same configuration right after its
// warmup (the post-warmup die depends on the configuration alone, not
// on the programs). Otherwise the die is anchored and re-anchored as a
// cold warmup does.
func (m *MultiSimulator) FinishWarmup(die *thermal.SolverState) error {
	if m.warmed || m.started {
		return fmt.Errorf("sim: warmup already finished")
	}
	return m.finishWarmup(die)
}

func (m *MultiSimulator) checkWarmable(c int) error {
	if c < 0 || c >= len(m.cores) {
		return fmt.Errorf("sim: core %d of %d", c, len(m.cores))
	}
	if m.warmed || m.started {
		return fmt.Errorf("sim: core %d warmup after the warmup finished", c)
	}
	return nil
}
