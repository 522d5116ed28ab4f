package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// initSteadySOR is the grid's original steady-state solve, successive
// over-relaxation, kept as the executable specification of
// InitSteadyCores. It sweeps until no node moves by more than tol
// kelvin in one sweep; the solver shipped it at tol 1e-8 K. That is a
// per-sweep displacement, not an error bound: under an integer burst,
// SOR at 1e-8 K sits 2.4e-7 K from the converged field at GridN 16,
// 1.1e-6 K at 32 and 4.4e-6 K at 64.
func (g *Grid) initSteadySOR(p [][power.NumUnits]float64, tol float64) {
	g.powersToCells(p)
	const (
		omega   = 1.8
		maxIter = 200_000
	)
	T := g.temps
	nx, ny, nc := g.nx, g.ny, g.nc
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		relax := func(c int, num, den float64) {
			nt := (1-omega)*T[c] + omega*num/den
			if d := math.Abs(nt - T[c]); d > maxDelta {
				maxDelta = d
			}
			T[c] = nt
		}
		for j := 0; j < ny; j++ {
			row := j * nx
			for i := 0; i < nx; i++ {
				c := row + i
				num := g.cellPower[c] + g.gVert*T[nc+c]
				den := g.gVert
				if i > 0 {
					num += g.gxDie * T[c-1]
					den += g.gxDie
				}
				if i < nx-1 {
					num += g.gxDie * T[c+1]
					den += g.gxDie
				}
				if j > 0 {
					num += g.gyDie * T[c-nx]
					den += g.gyDie
				}
				if j < ny-1 {
					num += g.gyDie * T[c+nx]
					den += g.gyDie
				}
				relax(c, num, den)
			}
		}
		for j := 0; j < ny; j++ {
			row := j * nx
			for i := 0; i < nx; i++ {
				c := row + i
				n := nc + c
				num := g.gVert*T[c] + g.gSinkCell[c]*T[g.sink]
				den := g.gVert + g.gSinkCell[c]
				if i > 0 {
					num += g.gxSp * T[n-1]
					den += g.gxSp
				}
				if i < nx-1 {
					num += g.gxSp * T[n+1]
					den += g.gxSp
				}
				if j > 0 {
					num += g.gySp * T[n-nx]
					den += g.gySp
				}
				if j < ny-1 {
					num += g.gySp * T[n+nx]
					den += g.gySp
				}
				relax(n, num, den)
			}
		}
		num := g.gAmb * g.amb
		den := g.gAmb
		for c := 0; c < nc; c++ {
			num += g.gSinkCell[c] * T[nc+c]
			den += g.gSinkCell[c]
		}
		relax(g.sink, num, den)
		if maxDelta < tol {
			return
		}
	}
}

// attackPowers returns k cores' power vectors: an integer burst on core
// 0, the typical mix on the rest.
func attackPowers(m *power.Model, k int) [][power.NumUnits]float64 {
	p := make([][power.NumUnits]float64, k)
	for core := range p {
		p[core] = m.SteadyPowers(power.TypicalRates())
	}
	p[0] = burstPowers(m)
	return p
}

// TestGridSteadyMatchesSOR pins the steady-state solve to its
// specification. On small grids SOR run to its floating-point floor
// (sweeps that move no node by 1e-12 K; rounding keeps it from 1e-13)
// is the converged field to ~1e-11 K, and the solve must agree within
// 1e-9 K. At the default GridN it must agree within 1e-5 K with SOR at
// the 1e-8 K tolerance the grid once shipped, which stops ~1e-6 K short
// of convergence. A second solve from the solver's own result makes no
// iteration and leaves every bit in place: that is what lets a die be
// anchored once.
func TestGridSteadyMatchesSOR(t *testing.T) {
	cfg := config.Default()
	m := testModel(t, cfg)
	for _, c := range []struct {
		gridN, cores  int
		sorTol, bound float64
	}{
		{8, 1, 1e-12, 1e-9}, {8, 2, 1e-12, 1e-9},
		{16, 1, 1e-12, 1e-9}, {16, 2, 1e-12, 1e-9},
		{32, 1, 1e-8, 1e-5}, {32, 2, 1e-8, 1e-5}, {32, 4, 1e-8, 1e-5},
	} {
		t.Run(fmt.Sprintf("grid%d/%d-core", c.gridN, c.cores), func(t *testing.T) {
			p := attackPowers(m, c.cores)
			g := newTestGrid(t, c.cores, c.gridN, cfg.Thermal)
			g.powersToCells(p)
			iters := g.solveSteady()
			if iters >= len(g.temps) {
				t.Fatalf("no convergence in %d iterations", iters)
			}
			solved := g.State()
			g.InitSteadyCores(p)
			if again := g.solveSteady(); again != 0 || !reflect.DeepEqual(g.State(), solved) {
				t.Fatalf("a solve from the solver's own result made %d iterations or moved a bit", again)
			}

			spec := newTestGrid(t, c.cores, c.gridN, cfg.Thermal)
			spec.initSteadySOR(p, c.sorTol)
			var worst float64
			for i, temp := range solved.Temps {
				worst = max(worst, math.Abs(temp-spec.temps[i]))
			}
			t.Logf("%d iterations; largest difference from SOR at tol %g: %.3g K", iters, c.sorTol, worst)
			if worst > c.bound {
				t.Errorf("solve is %.3g K from SOR at tol %g, want within %g K", worst, c.sorTol, c.bound)
			}
		})
	}
}

// TestSteadyStateMonotonic: adding power to any unit of any core never
// lowers any node's steady temperature, on either solver. Every node
// in fact rises — the sink alone rises by ΔP/gAmb — so the check is
// strict.
func TestSteadyStateMonotonic(t *testing.T) {
	for _, c := range steadySolvers(t, defaultThermal()) {
		t.Run(c.name, func(t *testing.T) {
			k := c.s.Cores()
			rng := rand.New(rand.NewSource(int64(k)))
			p := make([][power.NumUnits]float64, k)
			for core := range p {
				p[core] = randomPower(rng)
			}
			c.s.InitSteadyCores(p)
			smallest := math.Inf(1)
			for trial := 0; trial < 20; trial++ {
				before := c.s.State().Temps
				core, u := rng.Intn(k), rng.Intn(int(power.NumUnits))
				p[core][u] += 0.1 + 2*rng.Float64()
				c.s.InitSteadyCores(p)
				for i, temp := range c.s.State().Temps {
					rise := temp - before[i]
					smallest = min(smallest, rise)
					if rise <= 0 {
						t.Fatalf("trial %d: more power on core %d unit %d moved node %d by %.3g K", trial, core, u, i, rise)
					}
				}
			}
			t.Logf("smallest node rise %.3g K", smallest)
		})
	}
}

// TestGridResolutionConvergence: the default GridN resolves the
// cross-core coupling neighbor-heat measures. A burst on core 0 of a
// 2-core die raises the victim core's steady IntReg by ΔK; each
// doubling of the mesh from 16 to 32 to 64 cells per core edge moves
// ΔK less than the one before, and GridN 32 sits within 0.1% of 64.
func TestGridResolutionConvergence(t *testing.T) {
	cfg := config.Default()
	m := testModel(t, cfg)
	steady := m.SteadyPowers(power.TypicalRates())
	var dk []float64
	for _, n := range []int{16, 32, 64} {
		g := newTestGrid(t, 2, n, cfg.Thermal)
		g.InitSteadyCores([][power.NumUnits]float64{steady, steady})
		base := g.CoreUnitTemp(1, power.UnitIntReg)
		g.InitSteadyCores(attackPowers(m, 2))
		dk = append(dk, g.CoreUnitTemp(1, power.UnitIntReg)-base)
	}
	t.Logf("victim IntReg rise at GridN 16/32/64: %.4f / %.4f / %.4f K", dk[0], dk[1], dk[2])
	if math.Abs(dk[2]-dk[1]) >= math.Abs(dk[1]-dk[0]) {
		t.Errorf("ΔK does not settle: GridN 16→32 moves it %.3g K, 32→64 %.3g K", dk[1]-dk[0], dk[2]-dk[1])
	}
	if rel := math.Abs(dk[1]-dk[2]) / dk[2]; rel > 1e-3 {
		t.Errorf("GridN 32 is %.3g%% from GridN 64, want within 0.1%%", 100*rel)
	}
}

// BenchmarkGridSteady measures one from-ambient anchor of a 2-core and
// a 4-core die at the default GridN, under the typical activity every
// die is anchored at: the steady-state solve each cold whole-die job
// runs once.
func BenchmarkGridSteady(b *testing.B) {
	cfg := config.Default()
	m := testModel(b, cfg)
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("die%d", k), func(b *testing.B) {
			g := newTestGrid(b, k, config.DefaultGridN, cfg.Thermal)
			p := make([][power.NumUnits]float64, k)
			for core := range p {
				p[core] = m.SteadyPowers(power.TypicalRates())
			}
			ambient := g.State()
			g.InitSteadyCores(p) // allocates the solve's vectors
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.SetState(ambient); err != nil {
					b.Fatal(err)
				}
				g.InitSteadyCores(p)
			}
		})
	}
}
