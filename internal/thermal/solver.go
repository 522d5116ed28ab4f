package thermal

import (
	"fmt"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/floorplan"
	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// Solver is the thermal substrate a simulation drives: per-core power
// vectors go in, per-core block temperatures come out. Two
// implementations exist. Lumped wraps the paper's per-block RC Network
// (single core only — the byte-identical fast path every single-core
// experiment still runs on), and Grid meshes a multi-core die with a
// HotSpot-style 2D stencil so heat conducts across core boundaries.
type Solver interface {
	// Cores returns the number of cores the substrate models.
	Cores() int
	// StepCores advances the substrate by seconds of wall-clock time
	// under per-core per-unit power (p[core][unit], watts). len(p)
	// must equal Cores().
	StepCores(p [][power.NumUnits]float64, seconds float64)
	// InitSteadyCores sets the substrate to the steady state for the
	// given per-core power vectors (the pre-run operating point).
	InitSteadyCores(p [][power.NumUnits]float64)
	// CoreUnitTemp reads the sensor of unit u on the given core: the
	// area-weighted temperature of the block hosting it.
	CoreUnitTemp(core int, u power.Unit) float64
	// CoreMaxUnit returns the hottest unit of one core.
	CoreMaxUnit(core int) (power.Unit, float64)
	// SinkTemp returns the heat-sink node temperature.
	SinkTemp() float64
	// Ideal reports whether the substrate models an infinite heat sink.
	Ideal() bool
	// State and SetState snapshot/restore the mutable state (node
	// temperatures); geometry and conductances are rebuilt from config.
	State() SolverState
	SetState(SolverState) error
}

// SolverState is the serializable state of any Solver: its node
// temperatures tagged with the solver kind, so a snapshot taken under
// one solver cannot silently restore into another.
type SolverState struct {
	Kind  string
	Temps []float64
}

// NewSolver builds the solver named by the topology: the lumped
// network over the default single-core floorplan, or the grid over a
// NewDie(Cores) die.
func NewSolver(top config.Topology, t config.Thermal) (Solver, error) {
	switch top.Solver {
	case "", config.SolverLumped:
		if top.Cores > 1 {
			return nil, fmt.Errorf("thermal: the lumped solver models a single core, not %d", top.Cores)
		}
		nw, err := New(floorplan.Default(), t)
		if err != nil {
			return nil, err
		}
		return Lumped{nw}, nil
	case config.SolverGrid:
		die, err := floorplan.NewDie(max(1, top.Cores))
		if err != nil {
			return nil, err
		}
		return NewGrid(die, t, top.EffectiveGridN())
	default:
		return nil, fmt.Errorf("thermal: unknown solver %q", top.Solver)
	}
}

// Lumped adapts the single-core Network to the Solver interface. It
// adds no arithmetic of its own: StepCores forwards p[0] to
// Network.Step, so a simulation driven through the adapter heats
// bit-identically to one driven against the Network directly.
type Lumped struct {
	*Network
}

// Cores returns 1: the lumped network models the paper's single core.
func (l Lumped) Cores() int { return 1 }

// StepCores forwards the single core's power vector to Network.Step.
func (l Lumped) StepCores(p [][power.NumUnits]float64, seconds float64) {
	l.Network.Step(p[0], seconds)
}

// InitSteadyCores forwards to Network.InitSteady.
func (l Lumped) InitSteadyCores(p [][power.NumUnits]float64) {
	l.Network.InitSteady(p[0])
}

// CoreUnitTemp reads unit u's block temperature (core must be 0).
func (l Lumped) CoreUnitTemp(core int, u power.Unit) float64 {
	return l.Network.UnitTemp(u)
}

// CoreMaxUnit returns the hottest unit.
func (l Lumped) CoreMaxUnit(core int) (power.Unit, float64) {
	return l.Network.MaxUnit()
}

// State snapshots the network's node temperatures (die blocks,
// spreader sections, sink); everything else is derived from the
// floorplan and package parameters at construction.
func (l Lumped) State() SolverState {
	return SolverState{Kind: config.SolverLumped, Temps: append([]float64(nil), l.temps...)}
}

// SetState restores a lumped snapshot. Kind and node count (2*blocks+1)
// must match.
func (l Lumped) SetState(st SolverState) error {
	if st.Kind != config.SolverLumped {
		return fmt.Errorf("thermal: %q state cannot restore into the lumped solver", st.Kind)
	}
	if len(st.Temps) != len(l.temps) {
		return fmt.Errorf("thermal: state has %d nodes, want %d", len(st.Temps), len(l.temps))
	}
	copy(l.temps, st.Temps)
	return nil
}
