package thermal

import (
	"math"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/floorplan"
	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// testModel builds the power model over the default floorplan's areas.
func testModel(t testing.TB, cfg config.Config) *power.Model {
	t.Helper()
	m, err := power.NewModel(power.DefaultEnergies(), cfg.Power.FrequencyHz, cfg.Power.Vdd,
		cfg.Power.EnergyScale, cfg.Power.LeakageWPerMM2, floorplan.Default().UnitAreas())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestGrid(t testing.TB, cores, gridN int, th config.Thermal) *Grid {
	t.Helper()
	die, err := floorplan.NewDie(cores)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(die, th, gridN)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// burstPowers returns a power vector with an integer-cluster burst on
// top of the typical mix — the attack's shape, deliberately stronger
// than any DTM policy would permit (used to probe coupling).
func burstPowers(m *power.Model) [power.NumUnits]float64 {
	p := m.SteadyPowers(power.TypicalRates())
	p[power.UnitIntReg] *= 8
	p[power.UnitIntExec] *= 3
	p[power.UnitIntQ] *= 3
	return p
}

// opBurstPowers returns an integer burst at the operational envelope:
// it drives the lumped IntReg just past the 358.5 K emergency
// threshold, the hottest any DTM-governed run gets.
func opBurstPowers(m *power.Model) [power.NumUnits]float64 {
	p := m.SteadyPowers(power.TypicalRates())
	p[power.UnitIntReg] *= 2
	p[power.UnitIntExec] *= 1.5
	p[power.UnitIntQ] *= 1.5
	return p
}

// TestGridLumpedAgreement is the cross-check the refactor hinges on:
// on the matched single-core configuration, the 1-core grid and the
// paper's lumped network must agree on every block sensor — at the
// steady operating point within 1.2 K, and within 3 K through an
// integer-burst transient at the operational envelope (block
// excursions capped near the 358.5 K emergency threshold, the hottest
// any DTM-governed run gets). The bounds are documented in DESIGN.md
// §15 and enforced by CI's grid-smoke job. Exact equality is not
// expected: the grid resolves intra-block lateral spreading that the
// lumped center-to-center resistances overestimate, so beyond the
// envelope the grid runs cooler by ~0.65 K per watt of block power.
func TestGridLumpedAgreement(t *testing.T) {
	cfg := config.Default()
	m := testModel(t, cfg)
	nw, err := New(floorplan.Default(), cfg.Thermal)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGrid(t, 1, config.DefaultGridN, cfg.Thermal)

	steady := m.SteadyPowers(power.TypicalRates())
	nw.InitSteady(steady)
	g.InitSteadyCores([][power.NumUnits]float64{steady})
	for u := power.Unit(0); u < power.NumUnits; u++ {
		l, gr := nw.UnitTemp(u), g.CoreUnitTemp(0, u)
		if d := math.Abs(l - gr); d > 1.2 {
			t.Errorf("steady %s: lumped %.3f K vs grid %.3f K (|d|=%.3f)", u, l, gr, d)
		}
	}

	// Transient: one sensor interval at a time, an envelope-level
	// integer burst with a cooldown tail, the duty-cycled shape the
	// attack produces under DTM.
	interval := float64(cfg.Thermal.SensorIntervalCycles) / cfg.Power.FrequencyHz
	burst := opBurstPowers(m)
	worst, peak := 0.0, 0.0
	for i := 0; i < 600; i++ {
		p := burst
		if i%100 >= 60 {
			p = steady
		}
		nw.Step(p, interval)
		g.StepCores([][power.NumUnits]float64{p}, interval)
		for u := power.Unit(0); u < power.NumUnits; u++ {
			if d := math.Abs(nw.UnitTemp(u) - g.CoreUnitTemp(0, u)); d > worst {
				worst = d
			}
		}
		if l := nw.UnitTemp(power.UnitIntReg); l > peak {
			peak = l
		}
	}
	t.Logf("lumped peak %.2f K; worst transient block disagreement %.3f K", peak, worst)
	if peak < cfg.Thermal.EmergencyK {
		t.Errorf("burst too weak to probe the envelope: lumped peak %.2f K below emergency %.2f K",
			peak, cfg.Thermal.EmergencyK)
	}
	if worst > 3 {
		t.Errorf("transient disagreement %.3f K exceeds the documented 3 K bound", worst)
	}
}

// TestGridCrossCoreCoupling checks the attack channel exists and has
// the right shape: an integer burst on core 0 of a 2-core die heats
// core 1's IntReg — by a measurable amount, but less than it heats its
// own — and the far core of a 4-core die heats less than the near one.
func TestGridCrossCoreCoupling(t *testing.T) {
	cfg := config.Default()
	m := testModel(t, cfg)
	g := newTestGrid(t, 2, config.DefaultGridN, cfg.Thermal)
	steady := m.SteadyPowers(power.TypicalRates())
	idle := m.SteadyPowers([power.NumUnits]float64{})
	g.InitSteadyCores([][power.NumUnits]float64{steady, idle})
	v0 := g.CoreUnitTemp(1, power.UnitIntReg)

	burst := burstPowers(m)
	interval := float64(cfg.Thermal.SensorIntervalCycles) / cfg.Power.FrequencyHz
	for i := 0; i < 2000; i++ {
		g.StepCores([][power.NumUnits]float64{burst, idle}, interval)
	}
	self := g.CoreUnitTemp(0, power.UnitIntReg)
	victim := g.CoreUnitTemp(1, power.UnitIntReg)
	t.Logf("after burst: core0 IntReg %.2f K, core1 IntReg %.2f K (was %.2f K)", self, victim, v0)
	if victim-v0 < 0.5 {
		t.Errorf("core 1 IntReg rose only %.3f K under a core-0 burst; no cross-core coupling", victim-v0)
	}
	if victim >= self {
		t.Errorf("victim (%.2f K) at least as hot as the attacker (%.2f K)", victim, self)
	}
}

// TestGridSnapshotRestore: a restored grid must continue bit-
// identically to the original.
func TestGridSnapshotRestore(t *testing.T) {
	cfg := config.Default()
	m := testModel(t, cfg)
	g := newTestGrid(t, 2, 16, cfg.Thermal)
	steady := m.SteadyPowers(power.TypicalRates())
	pp := [][power.NumUnits]float64{burstPowers(m), steady}
	g.InitSteadyCores(pp)
	g.StepCores(pp, 1e-4)

	st := g.State()
	if st.Kind != config.SolverGrid {
		t.Fatalf("state kind %q", st.Kind)
	}
	// Diverge, then restore and replay.
	g.StepCores(pp, 3e-4)
	after := g.State()
	if err := g.SetState(st); err != nil {
		t.Fatal(err)
	}
	g.StepCores(pp, 3e-4)
	if !reflect.DeepEqual(g.State().Temps, after.Temps) {
		t.Error("restored grid did not replay bit-identically")
	}

	// Cross-kind and wrong-size states are rejected.
	if err := g.SetState(SolverState{Kind: config.SolverLumped, Temps: st.Temps}); err == nil {
		t.Error("lumped state restored into a grid")
	}
	if err := g.SetState(SolverState{Kind: config.SolverGrid, Temps: st.Temps[:5]}); err == nil {
		t.Error("truncated state restored into a grid")
	}
	nw, err := New(floorplan.Default(), cfg.Thermal)
	if err != nil {
		t.Fatal(err)
	}
	if err := (Lumped{nw}).SetState(st); err == nil {
		t.Error("grid state restored into the lumped network")
	}
}

// TestGridDeterminism: two grids driven through the same history agree
// bit-for-bit (the property -parallel and fork-tree runs rely on).
func TestGridDeterminism(t *testing.T) {
	cfg := config.Default()
	m := testModel(t, cfg)
	mk := func() *Grid {
		g := newTestGrid(t, 2, config.DefaultGridN, cfg.Thermal)
		g.InitSteadyCores([][power.NumUnits]float64{m.SteadyPowers(power.TypicalRates()), m.SteadyPowers(power.TypicalRates())})
		return g
	}
	a, b := mk(), mk()
	burst := burstPowers(m)
	steady := m.SteadyPowers(power.TypicalRates())
	for i := 0; i < 200; i++ {
		p := [][power.NumUnits]float64{burst, steady}
		if i%3 == 0 {
			p[0], p[1] = p[1], p[0]
		}
		a.StepCores(p, 5e-6)
		b.StepCores(p, 5e-6)
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Error("identical histories diverged")
	}
}

// TestGridIdealSink: with an ideal package the grid, like the lumped
// network, never moves off its initial operating point.
func TestGridIdealSink(t *testing.T) {
	cfg := config.Default()
	cfg.Thermal.IdealSink = true
	m := testModel(t, cfg)
	g := newTestGrid(t, 1, 16, cfg.Thermal)
	steady := m.SteadyPowers(power.TypicalRates())
	g.InitSteadyCores([][power.NumUnits]float64{steady})
	before := g.State()
	g.StepCores([][power.NumUnits]float64{burstPowers(m)}, 1e-3)
	if !reflect.DeepEqual(before.Temps, g.State().Temps) {
		t.Error("ideal-sink grid moved")
	}
}

// TestNewSolver covers the constructor dispatch and its error paths.
func TestNewSolver(t *testing.T) {
	cfg := config.Default()
	s, err := NewSolver(cfg.Topology, cfg.Thermal)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(Lumped); !ok || s.Cores() != 1 {
		t.Errorf("default topology built %T with %d cores", s, s.Cores())
	}
	top := config.Topology{Cores: 2, Solver: config.SolverGrid}
	s, err = NewSolver(top, cfg.Thermal)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := s.(*Grid); !ok || g.Cores() != 2 {
		t.Errorf("grid topology built %T with %d cores", s, s.Cores())
	}
	nx, ny := s.(*Grid).Dims()
	if ny != config.DefaultGridN || nx != 2*config.DefaultGridN {
		t.Errorf("2-core default mesh %dx%d", nx, ny)
	}
	if _, err := NewSolver(config.Topology{Cores: 2, Solver: config.SolverLumped}, cfg.Thermal); err == nil {
		t.Error("multi-core lumped accepted")
	}
	if _, err := NewSolver(config.Topology{Cores: 1, Solver: "spice"}, cfg.Thermal); err == nil {
		t.Error("unknown solver accepted")
	}
}

// BenchmarkGridThermalStep compares one sensor interval of thermal
// integration: the paper's 27-node lumped network against the 64x64
// two-layer grid (8193 nodes) on the same single-core die.
func BenchmarkGridThermalStep(b *testing.B) {
	cfg := config.Default()
	m := testModel(b, cfg)
	steady := m.SteadyPowers(power.TypicalRates())
	burst := burstPowers(m)
	interval := float64(cfg.Thermal.SensorIntervalCycles) / cfg.Power.FrequencyHz

	b.Run("lumped27", func(b *testing.B) {
		nw, err := New(floorplan.Default(), cfg.Thermal)
		if err != nil {
			b.Fatal(err)
		}
		nw.InitSteady(steady)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.Step(burst, interval)
		}
	})
	b.Run("grid64", func(b *testing.B) {
		g := newTestGrid(b, 1, 64, cfg.Thermal)
		g.InitSteadyCores([][power.NumUnits]float64{steady})
		p := [][power.NumUnits]float64{burst}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.StepCores(p, interval)
		}
	})
}
