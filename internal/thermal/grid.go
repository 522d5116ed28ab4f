// Grid is the multi-core thermal substrate: a HotSpot-style 2D finite
// difference mesh (SNIPPETS.md #1 lineage) with one cell layer for the
// silicon die, one for the copper spreader, and a lumped sink node.
// Unlike the per-block Network, the mesh resolves gradients *within*
// and *across* blocks, so heat injected on one core conducts through
// the shared silicon and spreader into its neighbour — the physical
// channel the neighbor-heat attack exploits.
//
// Power maps die blocks -> cells by area fraction (a block's watts
// spread uniformly over the cells it covers), and sensors map back
// cells -> blocks the same way (a block reads the area-weighted mean
// of its cells). The vertical and sink conductances are chosen so
// their per-block totals equal the lumped network's exactly; with one
// core, the two models share an operating point and differ only by
// intra-block lateral resolution (bounded by TestGridLumpedAgreement).
package thermal

import (
	"fmt"
	"math"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/floorplan"
	"github.com/heatstroke-sim/heatstroke/internal/power"
)

// cellFrac is one cell's share of a block: frac of the block's area
// (and therefore of its power) that falls into cell.
type cellFrac struct {
	cell int32
	frac float64
}

// Grid meshes a floorplan.Die. Node layout: die cells [0, nc),
// spreader cells [nc, 2nc), sink node 2nc.
type Grid struct {
	die    *floorplan.Die
	nx, ny int
	nc     int
	sink   int
	cw, ch float64

	temps     []float64
	tempsNext []float64

	// Uniform per-cell caps and stencil conductances (cells are all
	// the same size; only the sink path varies per cell).
	capDie, capSp, capSink float64
	gxDie, gyDie, gVert    float64
	gxSp, gySp             float64
	gSinkCell              []float64
	gAmb, amb              float64
	ideal                  bool
	dtMax                  float64

	// diag is the diagonal of the mesh's conductance matrix, each
	// node's total conductance: it sets the Euler stability bound and
	// preconditions the steady-state solve. cgR, cgD and cgQ are that
	// solve's residual, search direction and matrix product, allocated
	// on the first anchor.
	diag          []float64
	cgR, cgD, cgQ []float64

	// blockCells maps each die block onto its cells; blockPower and
	// cellPower are scatter scratch.
	blockCells [][]cellFrac
	blockPower []float64
	cellPower  []float64

	planSeconds float64
	planSteps   int
	planDt      float64
}

// NewGrid meshes the die with gridN cells along its height (one core
// tile edge, so per-core resolution is independent of the core count)
// and proportionally many along its width.
//
// The sink is provisioned per core: a K-core die gets K times the
// single-core sink capacitance and K times its ambient conductance
// (ConvectionRes/K). A fixed 0.8 K/W package would drift ~18 K hotter
// per added core's power and swamp every threshold in the config;
// per-core provisioning keeps each core at the paper's single-core
// operating point, so what the multi-core experiments measure is the
// lateral cross-core coupling and nothing else. See DESIGN.md §15.
func NewGrid(die *floorplan.Die, t config.Thermal, gridN int) (*Grid, error) {
	if t.ConvectionRes <= 0 || t.Scale <= 0 || t.DieThicknessM <= 0 {
		return nil, fmt.Errorf("thermal: convection resistance, scale and die thickness must be positive")
	}
	if gridN < 4 {
		return nil, fmt.Errorf("thermal: grid resolution %d too coarse", gridN)
	}
	ny := gridN
	nx := int(math.Round(die.W * float64(ny) / die.H))
	if nx < 4 {
		nx = 4
	}
	nc := nx * ny
	g := &Grid{
		die:  die,
		nx:   nx,
		ny:   ny,
		nc:   nc,
		sink: 2 * nc,
		cw:   die.W / float64(nx),
		ch:   die.H / float64(ny),

		temps:     make([]float64, 2*nc+1),
		tempsNext: make([]float64, 2*nc+1),

		gSinkCell:  make([]float64, nc),
		gAmb:       float64(die.NCores) / t.ConvectionRes,
		amb:        t.AmbientK,
		ideal:      t.IdealSink,
		blockCells: make([][]cellFrac, len(die.Blocks)),
		blockPower: make([]float64, len(die.Blocks)),
		cellPower:  make([]float64, nc),
	}

	dieCapF := t.DieCapFactor
	if dieCapF <= 0 {
		dieCapF = 1
	}
	spCapF := t.SpreaderCapFactor
	if spCapF <= 0 {
		spCapF = 1
	}
	spSinkK := t.SpreadToSinkK
	if spSinkK <= 0 {
		spSinkK = 3.1e-3
	}
	sinkCap := t.SinkCapJPerK
	if sinkCap <= 0 {
		sinkCap = 300
	}

	cellArea := g.cw * g.ch
	g.capDie = CSi * cellArea * t.DieThicknessM * dieCapF / t.Scale
	g.capSp = CCu * cellArea * SpreaderThicknessM * spCapF / t.Scale
	g.capSink = sinkCap * float64(die.NCores) / t.Scale

	// Lateral stencil conductances between cell centers (SNIPPETS.md
	// #1 form: g = K * thickness * edge / pitch).
	g.gxDie = KSi * t.DieThicknessM * g.ch / g.cw
	g.gyDie = KSi * t.DieThicknessM * g.cw / g.ch
	g.gxSp = KCu * SpreaderThicknessM * g.ch / g.cw
	g.gySp = KCu * SpreaderThicknessM * g.cw / g.ch
	// Vertical die->spreader conductance per cell: silicon plus TIM in
	// series over the cell area. Cells covering a block sum to exactly
	// the lumped network's per-block vertical conductance.
	g.gVert = 1 / (t.DieThicknessM/(KSi*cellArea) + TIMThicknessM/(KTIM*cellArea))

	// Block <-> cell area fractions, and each block's lumped sink
	// conductance sqrt(A)/spSinkK distributed over its cells by the
	// same fractions — keeping the grid's total sink path equal to the
	// lumped network's, so the two models share a steady state.
	for bi, b := range die.Blocks {
		bArea := b.Area()
		gSinkBlock := math.Sqrt(bArea) / spSinkK
		i0 := int(b.X / g.cw)
		i1 := int(math.Ceil((b.X + b.W) / g.cw))
		j0 := int(b.Y / g.ch)
		j1 := int(math.Ceil((b.Y + b.H) / g.ch))
		for j := max(0, j0); j < min(ny, j1); j++ {
			y0, y1 := float64(j)*g.ch, float64(j+1)*g.ch
			oy := math.Min(y1, b.Y+b.H) - math.Max(y0, b.Y)
			if oy <= 0 {
				continue
			}
			for i := max(0, i0); i < min(nx, i1); i++ {
				x0, x1 := float64(i)*g.cw, float64(i+1)*g.cw
				ox := math.Min(x1, b.X+b.W) - math.Max(x0, b.X)
				if ox <= 0 {
					continue
				}
				frac := ox * oy / bArea
				cell := int32(j*nx + i)
				g.blockCells[bi] = append(g.blockCells[bi], cellFrac{cell: cell, frac: frac})
				g.gSinkCell[cell] += gSinkBlock * frac
			}
		}
	}

	// Each node's total conductance, and the stability bound: the
	// stiffest node limits the Euler substep, with the same tau/4
	// margin the lumped network uses.
	g.diag = make([]float64, 2*nc+1)
	g.dtMax = math.Inf(1)
	consider := func(n int, cap, gSum float64) {
		g.diag[n] = gSum
		if tau := cap / gSum; tau/4 < g.dtMax {
			g.dtMax = tau / 4
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c := j*nx + i
			lat := func(gx, gy float64) float64 {
				var s float64
				if i > 0 {
					s += gx
				}
				if i < nx-1 {
					s += gx
				}
				if j > 0 {
					s += gy
				}
				if j < ny-1 {
					s += gy
				}
				return s
			}
			consider(c, g.capDie, lat(g.gxDie, g.gyDie)+g.gVert)
			consider(nc+c, g.capSp, lat(g.gxSp, g.gySp)+g.gVert+g.gSinkCell[c])
		}
	}
	var gSinkSum float64
	for _, gs := range g.gSinkCell {
		gSinkSum += gs
	}
	consider(g.sink, g.capSink, gSinkSum+g.gAmb)

	init := t.AmbientK
	if t.InitialK > 0 {
		init = t.InitialK
	}
	for i := range g.temps {
		g.temps[i] = init
	}
	return g, nil
}

// Cores returns the die's core count.
func (g *Grid) Cores() int { return g.die.NCores }

// Ideal reports whether the grid models an infinite sink.
func (g *Grid) Ideal() bool { return g.ideal }

// Dims returns the mesh dimensions (cells along x, cells along y).
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// Die returns the floorplan the grid meshes.
func (g *Grid) Die() *floorplan.Die { return g.die }

// powersToCells folds per-core unit powers onto die blocks (the
// shared L2 accumulates every core's contribution) and scatters block
// watts onto cells by area fraction.
func (g *Grid) powersToCells(p [][power.NumUnits]float64) {
	for i := range g.blockPower {
		g.blockPower[i] = 0
	}
	for core := range p {
		for u := power.Unit(0); u < power.NumUnits; u++ {
			if bi := g.die.BlockFor(core, u); bi >= 0 {
				g.blockPower[bi] += p[core][u]
			}
		}
	}
	for i := range g.cellPower {
		g.cellPower[i] = 0
	}
	for bi, cells := range g.blockCells {
		w := g.blockPower[bi]
		if w == 0 {
			continue
		}
		for _, cf := range cells {
			g.cellPower[cf.cell] += w * cf.frac
		}
	}
}

// StepCores advances the mesh by seconds under per-core power, using
// as many forward-Euler substeps as stability requires. With an ideal
// sink, temperatures do not move (matching the lumped network).
func (g *Grid) StepCores(p [][power.NumUnits]float64, seconds float64) {
	if g.ideal || seconds <= 0 {
		return
	}
	g.powersToCells(p)
	steps, dt := g.plan(seconds)
	for s := 0; s < steps; s++ {
		g.substep(dt)
	}
}

func (g *Grid) substep(dt float64) {
	T, out := g.temps, g.tempsNext
	nx, ny, nc := g.nx, g.ny, g.nc
	// Die layer: power in, lateral silicon conduction, vertical path
	// down to the spreader. Boundaries are adiabatic.
	for j := 0; j < ny; j++ {
		row := j * nx
		for i := 0; i < nx; i++ {
			c := row + i
			t := T[c]
			acc := g.cellPower[c] + g.gVert*(T[nc+c]-t)
			if i > 0 {
				acc += g.gxDie * (T[c-1] - t)
			}
			if i < nx-1 {
				acc += g.gxDie * (T[c+1] - t)
			}
			if j > 0 {
				acc += g.gyDie * (T[c-nx] - t)
			}
			if j < ny-1 {
				acc += g.gyDie * (T[c+nx] - t)
			}
			out[c] = t + dt*acc/g.capDie
		}
	}
	// Spreader layer and sink.
	sinkT := T[g.sink]
	var sinkAcc float64
	for j := 0; j < ny; j++ {
		row := j * nx
		for i := 0; i < nx; i++ {
			c := row + i
			n := nc + c
			t := T[n]
			acc := g.gVert * (T[c] - t)
			if i > 0 {
				acc += g.gxSp * (T[n-1] - t)
			}
			if i < nx-1 {
				acc += g.gxSp * (T[n+1] - t)
			}
			if j > 0 {
				acc += g.gySp * (T[n-nx] - t)
			}
			if j < ny-1 {
				acc += g.gySp * (T[n+nx] - t)
			}
			acc += g.gSinkCell[c] * (sinkT - t)
			sinkAcc += g.gSinkCell[c] * (t - sinkT)
			out[n] = t + dt*acc/g.capSp
		}
	}
	out[g.sink] = sinkT + dt*(sinkAcc+g.gAmb*(g.amb-sinkT))/g.capSink
	g.temps, g.tempsNext = out, T
}

// plan returns the substep count and size for one span, cached like
// the lumped network's.
func (g *Grid) plan(seconds float64) (int, float64) {
	if seconds != g.planSeconds || g.planSteps == 0 {
		steps := int(math.Ceil(seconds / g.dtMax))
		if steps < 1 {
			steps = 1
		}
		g.planSeconds, g.planSteps, g.planDt = seconds, steps, seconds/float64(steps)
	}
	return g.planSteps, g.planDt
}

// steadyTol is where the steady-state solve stops, in kelvin: every
// node's residual heat flow over its total conductance, the correction
// one Jacobi sweep would still make, is at most this. Rounding floors
// that figure near 1e-13 K at operating temperatures.
const steadyTol = 1e-10

// InitSteadyCores sets the mesh to the steady state for the given
// per-core power vectors.
func (g *Grid) InitSteadyCores(p [][power.NumUnits]float64) {
	g.powersToCells(p)
	g.solveSteady()
}

// solveSteady solves A·T = b for the temperatures and returns the
// iteration count. A is the conductance matrix substep integrates
// (die layer, spreader layer, one sink row) and b the cell powers plus
// the sink's draw from ambient. A is symmetric, and positive definite
// because the sink conducts to ambient (gAmb > 0), so conjugate
// gradients preconditioned by A's diagonal converge, in exact
// arithmetic within one iteration per node: that caps the loop. The
// solve starts from the current temperatures and runs serially in a
// fixed order, so it is deterministic. It stops only on a recomputed
// residual, so a solve from its own result makes no iteration and
// leaves every bit in place.
func (g *Grid) solveSteady() int {
	if g.cgR == nil {
		g.cgR = make([]float64, len(g.temps))
		g.cgD = make([]float64, len(g.temps))
		g.cgQ = make([]float64, len(g.temps))
	}
	T, r, d, q, diag := g.temps, g.cgR, g.cgD, g.cgQ, g.diag
	// restart sets r to the true residual b − A·T and d to the
	// preconditioned residual, and returns r·d.
	restart := func() float64 {
		g.mulA(r, T)
		for c := 0; c < g.nc; c++ {
			r[c] = g.cellPower[c] - r[c]
		}
		for n := g.nc; n < g.sink; n++ {
			r[n] = -r[n]
		}
		r[g.sink] = g.gAmb*g.amb - r[g.sink]
		var rz float64
		for i := range r {
			d[i] = r[i] / diag[i]
			rz += r[i] * d[i]
		}
		return rz
	}
	converged := func() bool {
		for i, ri := range r {
			if math.Abs(ri) > steadyTol*diag[i] {
				return false
			}
		}
		return true
	}
	rz := restart()
	iter := 0
	for ; iter < len(T); iter++ {
		if converged() {
			// r is updated by recurrence, and rounding drifts it from
			// b − A·T: confirm on the true residual, and restart from
			// it if that has not converged.
			if rz = restart(); converged() {
				break
			}
		}
		g.mulA(q, d)
		var dq float64
		for i := range d {
			dq += d[i] * q[i]
		}
		alpha := rz / dq
		var rzNext float64
		for i := range T {
			T[i] += alpha * d[i]
			r[i] -= alpha * q[i]
			rzNext += r[i] * r[i] / diag[i]
		}
		beta := rzNext / rz
		rz = rzNext
		for i := range d {
			d[i] = r[i]/diag[i] + beta*d[i]
		}
	}
	return iter
}

// mulA sets y = A·x over the stencil substep integrates, every term a
// conductance times a difference, so a uniform field draws only the
// sink's flow to ambient.
func (g *Grid) mulA(y, x []float64) {
	nx, ny, nc := g.nx, g.ny, g.nc
	for j := 0; j < ny; j++ {
		row := j * nx
		for i := 0; i < nx; i++ {
			c := row + i
			t := x[c]
			acc := g.gVert * (t - x[nc+c])
			if i > 0 {
				acc += g.gxDie * (t - x[c-1])
			}
			if i < nx-1 {
				acc += g.gxDie * (t - x[c+1])
			}
			if j > 0 {
				acc += g.gyDie * (t - x[c-nx])
			}
			if j < ny-1 {
				acc += g.gyDie * (t - x[c+nx])
			}
			y[c] = acc
		}
	}
	sinkX := x[g.sink]
	var sinkAcc float64
	for j := 0; j < ny; j++ {
		row := j * nx
		for i := 0; i < nx; i++ {
			c := row + i
			n := nc + c
			t := x[n]
			acc := g.gVert * (t - x[c])
			if i > 0 {
				acc += g.gxSp * (t - x[n-1])
			}
			if i < nx-1 {
				acc += g.gxSp * (t - x[n+1])
			}
			if j > 0 {
				acc += g.gySp * (t - x[n-nx])
			}
			if j < ny-1 {
				acc += g.gySp * (t - x[n+nx])
			}
			acc += g.gSinkCell[c] * (t - sinkX)
			sinkAcc += g.gSinkCell[c] * (sinkX - t)
			y[n] = acc
		}
	}
	y[g.sink] = sinkAcc + g.gAmb*sinkX
}

// CoreUnitTemp reads the sensor of unit u on the given core: the
// area-weighted mean die temperature over the hosting block's cells.
func (g *Grid) CoreUnitTemp(core int, u power.Unit) float64 {
	bi := g.die.BlockFor(core, u)
	if bi < 0 {
		return g.amb
	}
	return g.BlockTemp(bi)
}

// BlockTemp returns die block bi's area-weighted mean temperature.
func (g *Grid) BlockTemp(bi int) float64 {
	var t float64
	for _, cf := range g.blockCells[bi] {
		t += g.temps[cf.cell] * cf.frac
	}
	return t
}

// SinkTemp returns the sink node temperature.
func (g *Grid) SinkTemp() float64 { return g.temps[g.sink] }

// CoreMaxUnit returns the hottest unit of one core.
func (g *Grid) CoreMaxUnit(core int) (power.Unit, float64) {
	best := power.Unit(0)
	bestT := math.Inf(-1)
	for u := power.Unit(0); u < power.NumUnits; u++ {
		if t := g.CoreUnitTemp(core, u); t > bestT {
			best, bestT = u, t
		}
	}
	return best, bestT
}

// State snapshots the mesh temperatures.
func (g *Grid) State() SolverState {
	return SolverState{Kind: config.SolverGrid, Temps: append([]float64(nil), g.temps...)}
}

// SetState restores a grid snapshot. Kind and node count must match.
func (g *Grid) SetState(st SolverState) error {
	if st.Kind != config.SolverGrid {
		return fmt.Errorf("thermal: %q state cannot restore into the grid solver", st.Kind)
	}
	if len(st.Temps) != len(g.temps) {
		return fmt.Errorf("thermal: grid state has %d nodes, want %d", len(st.Temps), len(g.temps))
	}
	copy(g.temps, st.Temps)
	return nil
}
