package thermal

import (
	"fmt"
	"math"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/floorplan"
	"github.com/heatstroke-sim/heatstroke/internal/power"
)

func netWith(t *testing.T, th config.Thermal) *Network {
	t.Helper()
	n, err := New(floorplan.Default(), th)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func defaultThermal() config.Thermal { return config.Default().Thermal }

// uniformPower returns P watts on every unit.
func uniformPower(p float64) [power.NumUnits]float64 {
	var out [power.NumUnits]float64
	for u := range out {
		out[u] = p
	}
	return out
}

// steadySolver is one solver under the steady-state invariant tests.
type steadySolver struct {
	name string
	s    Solver
}

// steadySolvers returns both solvers: the lumped network and the grid
// at 1, 2 and 4 cores, at GridN 16 to keep the tests quick.
func steadySolvers(t *testing.T, th config.Thermal) []steadySolver {
	t.Helper()
	out := []steadySolver{{"lumped", Lumped{netWith(t, th)}}}
	for _, k := range []int{1, 2, 4} {
		out = append(out, steadySolver{fmt.Sprintf("grid/%d-core", k), newTestGrid(t, k, 16, th)})
	}
	return out
}

func TestSteadyStateSinkBalance(t *testing.T) {
	th := defaultThermal()
	for _, c := range steadySolvers(t, th) {
		t.Run(c.name, func(t *testing.T) {
			k := c.s.Cores()
			p := make([][power.NumUnits]float64, k)
			var total float64
			for core := range p {
				p[core] = uniformPower(2 + float64(core)) // 24 W on core 0
				total += TotalPower(p[core])
			}
			c.s.InitSteadyCores(p)
			// In steady state all heat leaves through the convection
			// resistance, provisioned per core on a die:
			// T_sink - T_amb = P_total * R_conv / K.
			want := th.AmbientK + total*th.ConvectionRes/float64(k)
			sink := c.s.SinkTemp()
			t.Logf("sink balance off by %.3g K", sink-want)
			if math.Abs(sink-want) > 1e-6 {
				t.Errorf("sink temp %.9f, want %.9f", sink, want)
			}
			// Every source sits on the die, so no node is cooler than
			// the sink.
			for i, temp := range c.s.State().Temps {
				if temp < sink {
					t.Fatalf("node %d at %.6f K, below the sink's %.6f K", i, temp, sink)
				}
			}
		})
	}
	// Lumped die blocks sit above their spreader sections, which sit
	// above the sink.
	nw := netWith(t, th)
	nw.InitSteady(uniformPower(2))
	for u := power.Unit(0); u < power.NumUnits; u++ {
		i := nw.Floorplan().BlockFor(u)
		if nw.BlockTemp(i) <= nw.SpreaderTemp(i) || nw.SpreaderTemp(i) <= nw.SinkTemp() {
			t.Errorf("%s: temperature inversion die=%.2f spreader=%.2f sink=%.2f",
				u, nw.BlockTemp(i), nw.SpreaderTemp(i), nw.SinkTemp())
		}
	}
}

// TestSteadyStateIsStepFixedPoint: stepping from a steady state under
// the same power moves no node. Both solves are exact to rounding, so
// the bound is tight.
func TestSteadyStateIsStepFixedPoint(t *testing.T) {
	th := defaultThermal()
	for _, c := range steadySolvers(t, th) {
		t.Run(c.name, func(t *testing.T) {
			p := make([][power.NumUnits]float64, c.s.Cores())
			for core := range p {
				p[core] = uniformPower(1.5 - 0.25*float64(core))
			}
			c.s.InitSteadyCores(p)
			before := c.s.State().Temps
			for i := 0; i < 100; i++ {
				c.s.StepCores(p, 5e-6)
			}
			var drift float64
			for i, temp := range c.s.State().Temps {
				drift = max(drift, math.Abs(temp-before[i]))
			}
			t.Logf("largest drift %.3g K", drift)
			if drift > 1e-6 {
				t.Errorf("steady state drifted %.3g K", drift)
			}
		})
	}
}

func TestHeatingMonotonic(t *testing.T) {
	th := defaultThermal()
	nw := netWith(t, th)
	base := uniformPower(1)
	nw.InitSteady(base)
	hot := base
	hot[power.UnitIntReg] += 5
	prev := nw.UnitTemp(power.UnitIntReg)
	for i := 0; i < 50; i++ {
		nw.Step(hot, 20e-6)
		cur := nw.UnitTemp(power.UnitIntReg)
		if cur < prev-1e-9 {
			t.Fatalf("step %d: temperature fell while heating (%.4f -> %.4f)", i, prev, cur)
		}
		prev = cur
	}
	if rise := prev - 0; prev < nw.SpreaderTemp(nw.Floorplan().BlockFor(power.UnitIntReg)) {
		t.Errorf("hot die block must exceed its spreader (rise %.2f)", rise)
	}
	// Hottest unit is the one being heated.
	if u, _ := nw.MaxUnit(); u != power.UnitIntReg {
		t.Errorf("hottest unit %s, want IntReg", u)
	}
}

func TestCoolingDecaysTowardIdle(t *testing.T) {
	th := defaultThermal()
	nw := netWith(t, th)
	base := uniformPower(1)
	hot := base
	hot[power.UnitIntReg] += 8
	nw.InitSteady(hot)
	peak := nw.UnitTemp(power.UnitIntReg)
	// Drop the attack power; temperature must decay monotonically
	// toward the new steady state without undershooting.
	nw2 := netWith(t, th)
	nw2.InitSteady(base)
	floor := nw2.UnitTemp(power.UnitIntReg)
	prev := peak
	for i := 0; i < 400; i++ {
		nw.Step(base, 50e-6)
		cur := nw.UnitTemp(power.UnitIntReg)
		if cur > prev+1e-9 {
			t.Fatalf("temperature rose while cooling at step %d", i)
		}
		prev = cur
	}
	if prev < floor-0.5 {
		t.Errorf("cooled below the idle steady state: %.3f < %.3f", prev, floor)
	}
	if peak-prev < (peak-floor)*0.5 {
		t.Errorf("barely cooled: peak %.2f now %.2f floor %.2f", peak, prev, floor)
	}
}

// TestHeatFasterThanCool verifies the asymmetry heat stroke relies on:
// from the operating point, a power spike crosses a +3K band much
// faster than the same band is re-crossed downward after the spike
// ends (Section 2.1: heating is local and fast, cooling waits on the
// package).
func TestHeatFasterThanCool(t *testing.T) {
	th := defaultThermal()
	nw := netWith(t, th)
	base := uniformPower(1.5)
	nw.InitSteady(base)
	start := nw.UnitTemp(power.UnitIntReg)
	target := start + 3

	hot := base
	hot[power.UnitIntReg] += 10
	dt := 10e-6
	heatSteps := 0
	for nw.UnitTemp(power.UnitIntReg) < target {
		nw.Step(hot, dt)
		heatSteps++
		if heatSteps > 1_000_000 {
			t.Fatal("never reached target while heating")
		}
	}
	// Let the hot spot develop fully, then cool.
	for i := 0; i < 2000; i++ {
		nw.Step(hot, dt)
	}
	coolSteps := 0
	for nw.UnitTemp(power.UnitIntReg) > target {
		nw.Step(base, dt)
		coolSteps++
		if coolSteps > 10_000_000 {
			t.Fatal("never cooled back to target")
		}
	}
	if float64(coolSteps) < 2*float64(heatSteps) {
		t.Errorf("cooling (%d steps) should be much slower than heating (%d steps)", coolSteps, heatSteps)
	}
}

func TestIdealSinkNeverMoves(t *testing.T) {
	th := defaultThermal()
	th.IdealSink = true
	nw := netWith(t, th)
	nw.InitSteady(uniformPower(1))
	before := nw.UnitTemp(power.UnitIntReg)
	nw.Step(uniformPower(50), 1e-3)
	if nw.UnitTemp(power.UnitIntReg) != before {
		t.Error("ideal sink must hold temperatures")
	}
	if !nw.Ideal() {
		t.Error("Ideal() should report true")
	}
}

func TestScaleSpeedsDynamics(t *testing.T) {
	measure := func(scale float64) int {
		th := defaultThermal()
		th.Scale = scale
		nw := netWith(t, th)
		base := uniformPower(1)
		nw.InitSteady(base)
		target := nw.UnitTemp(power.UnitIntReg) + 2
		hot := base
		hot[power.UnitIntReg] += 8
		steps := 0
		for nw.UnitTemp(power.UnitIntReg) < target {
			nw.Step(hot, 5e-6)
			steps++
			if steps > 10_000_000 {
				break
			}
		}
		return steps
	}
	s1 := measure(1)
	s4 := measure(4)
	ratio := float64(s1) / float64(s4)
	if ratio < 3 || ratio > 5.5 {
		t.Errorf("scale 4 should heat ~4x faster: ratio %.2f (steps %d vs %d)", ratio, s1, s4)
	}
}

func TestStepStabilityUnderLongInterval(t *testing.T) {
	// A single long Step must substep and stay finite/positive.
	th := defaultThermal()
	th.Scale = 64
	nw := netWith(t, th)
	nw.InitSteady(uniformPower(1))
	nw.Step(uniformPower(4), 0.01)
	for u := power.Unit(0); u < power.NumUnits; u++ {
		temp := nw.UnitTemp(u)
		if math.IsNaN(temp) || temp < th.AmbientK || temp > 1000 {
			t.Fatalf("%s temperature %f diverged", u, temp)
		}
	}
}

func TestNewErrors(t *testing.T) {
	th := defaultThermal()
	th.ConvectionRes = 0
	if _, err := New(floorplan.Default(), th); err == nil {
		t.Error("zero convection resistance should fail")
	}
	th = defaultThermal()
	th.Scale = 0
	if _, err := New(floorplan.Default(), th); err == nil {
		t.Error("zero scale should fail")
	}
}

func TestSolveLinear(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x := solveLinear(a, b)
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solve = %v", x)
	}
}

func TestTotalPower(t *testing.T) {
	var p [power.NumUnits]float64
	p[0], p[3] = 1.5, 2.5
	if TotalPower(p) != 4 {
		t.Error("TotalPower wrong")
	}
}

func TestLateralHeatFlow(t *testing.T) {
	// Heating only the register file raises its neighbours (IntQ,
	// IntExec) more than a far-away block (FPMul).
	th := defaultThermal()
	nw := netWith(t, th)
	base := uniformPower(1)
	nw.InitSteady(base)
	before := map[power.Unit]float64{}
	for _, u := range []power.Unit{power.UnitIntQ, power.UnitIntExec, power.UnitFPMul} {
		before[u] = nw.UnitTemp(u)
	}
	hot := base
	hot[power.UnitIntReg] += 10
	for i := 0; i < 3000; i++ {
		nw.Step(hot, 10e-6)
	}
	dIntQ := nw.UnitTemp(power.UnitIntQ) - before[power.UnitIntQ]
	dExec := nw.UnitTemp(power.UnitIntExec) - before[power.UnitIntExec]
	dFPMul := nw.UnitTemp(power.UnitFPMul) - before[power.UnitFPMul]
	if dIntQ <= dFPMul || dExec <= dFPMul {
		t.Errorf("lateral flow wrong: neighbours +%.2f/+%.2f, far block +%.2f", dIntQ, dExec, dFPMul)
	}
	if dIntQ <= 0 {
		t.Error("neighbour should warm up")
	}
}
