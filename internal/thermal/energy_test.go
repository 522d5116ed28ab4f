package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/floorplan"
	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// energyBalanceTol bounds one Euler substep's relative energy
// imbalance. The update conserves energy exactly in real arithmetic:
// every conductance's flux enters one node and leaves the other with
// the same magnitude (the CSR row and the grid stencil both form
// (T_j - T_k) * g, whose negation is exact), so Σ C_i ΔT_i equals
// dt (P_in + g_amb (T_amb - T_sink)). What float64 leaves is rounding
// of each new temperature to its ~350 K magnitude, about 3e-14 K per
// node weighted by the node's capacitance; the sink, whose
// capacitance is the package's, dominates. Over the runs below the
// worst relative imbalance is about 1e-8 on the lumped network and
// 4e-8 on the grid (K-fold sink). 1e-6 keeps a 25x margin above both
// and sits four orders of magnitude below the imbalance that losing
// one unit's power produces (a unit carries ~1/15 of the total).
const energyBalanceTol = 1e-6

// TestEnergyBalance makes conservation of energy an executable check
// on both solvers: for every forward-Euler substep under random power,
// the heat stored (Σ C_i ΔT_i, summed node by node — differencing the
// total heat content would cancel catastrophically at ~350 K) equals
// the power injected plus the heat the sink drew from ambient, times
// dt. Checked on the lumped network and on the grid at 1, 2 and 4
// cores.
func TestEnergyBalance(t *testing.T) {
	th := config.Default().Thermal
	nw, err := New(floorplan.Default(), th)
	if err != nil {
		t.Fatal(err)
	}
	// Both solvers keep the sink as their last node and swap their
	// temperature buffers each substep, so temps points at the field.
	type solverCase struct {
		name             string
		s                Solver
		temps            *[]float64
		caps             []float64
		gAmb, amb, dtMax float64
	}
	cases := []solverCase{{"lumped", Lumped{nw}, &nw.temps, nw.caps, nw.gAmb, nw.amb, nw.dtMax}}
	for _, k := range []int{1, 2, 4} {
		g := newTestGrid(t, k, 16, th)
		caps := make([]float64, len(g.temps))
		for i := range caps {
			caps[i] = g.capSink
			if i < 2*g.nc {
				caps[i] = g.capSp
			}
			if i < g.nc {
				caps[i] = g.capDie
			}
		}
		cases = append(cases, solverCase{fmt.Sprintf("grid/%d-core", k), g, &g.temps, caps, g.gAmb, g.amb, g.dtMax})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := c.s.Cores()
			rng := rand.New(rand.NewSource(int64(k)))
			p := make([][power.NumUnits]float64, k)
			for core := range p {
				for u := range p[core] {
					p[core][u] = 4
				}
			}
			c.s.InitSteadyCores(p) // start at an operating point, ~350 K
			worst := 0.0
			for step := 0; step < 400; step++ {
				pIn := 0.0
				for core := range p {
					for u := range p[core] {
						p[core][u] = 8 * rng.Float64()
						pIn += p[core][u]
					}
				}
				// One substep: any span up to the stability bound.
				dt := c.dtMax * (0.05 + 0.95*rng.Float64())
				before := slices.Clone(*c.temps)
				c.s.StepCores(p, dt)
				stored := 0.0
				for i, temp := range *c.temps {
					stored += c.caps[i] * (temp - before[i])
				}
				want := dt * (pIn + c.gAmb*(c.amb-before[len(before)-1]))
				rel := math.Abs(stored-want) / (dt * pIn)
				worst = max(worst, rel)
				if rel > energyBalanceTol {
					t.Fatalf("substep %d: stored %.6g J, injected+ambient %.6g J (relative imbalance %.2g)",
						step, stored, want, rel)
				}
			}
			t.Logf("worst relative imbalance %.2g", worst)
		})
	}
}
