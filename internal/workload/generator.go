package workload

import (
	"fmt"
	"math/rand"

	"github.com/heatstroke-sim/heatstroke/internal/isa"
)

// Memory-stream layout. Each stream strides through a power-of-two
// footprint chosen against the Table 1 cache geometry:
//
//	hot:  8 KB   — always hits the 64 KB L1
//	warm: 128 KB — exceeds the 64 KB L1 (mostly misses), hits the 2 MB
//	              L2 after one warmup pass
//	cold: 16 MB  — misses the 2 MB L2, goes to memory
//
// Addresses are thread-private (the pipeline offsets them per context).
const (
	hotBase  = 0x0010_0000
	warmBase = 0x0100_0000
	coldBase = 0x1000_0000

	hotMask  = 8<<10 - 1
	warmMask = 128<<10 - 1
	coldMask = 16<<20 - 1

	hotStride  = 8
	warmStride = 64  // one L1 line per access
	coldStride = 128 // one L2 line per access
)

// Register conventions used by generated programs.
const (
	regHotOff    = 1
	regWarmOff   = 2
	regColdOff   = 3
	regHotBase   = 4
	regWarmBase  = 5
	regColdBase  = 6
	regAddr      = 7
	regSink      = 8 // load destination
	regRand      = 9 // xorshift state
	regScratch   = 10
	regStoreV    = 11
	regDep       = 12 // zero, but data-dependent on the last cold load
	regOne       = 13
	regAccBase   = 16 // r16.. integer accumulators
	regConstBase = 24 // r24..r27: read-only ALU operands
	numConsts    = 4
	fpConstBase  = 12 // f12..f15: read-only FP operands (never written)
)

// Stats describes the realized composition of a generated program.
type Stats struct {
	BodyInsts int
	Mix       map[string]int // realized static counts by category
}

// Generate synthesizes a looping program from a profile. The same
// profile and seed always produce the same program.
func Generate(p Profile, seed int64) (*isa.Program, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(p.Name))<<32))
	b := isa.NewBuilder(p.Name)
	emitPrologue(b, rng)

	// Build the unit schedule for the loop body with deterministic
	// per-category counts (including the warm/cold/flaky splits), then
	// shuffle it so the categories interleave.
	var units []string
	add := func(kind string, n int) {
		for i := 0; i < n; i++ {
			units = append(units, kind)
		}
	}
	count := func(frac float64, of int) int { return int(frac*float64(of) + 0.5) }
	addMem := func(kind string, n int) {
		cold := count(p.ColdFrac, n)
		warm := count(p.WarmFrac, n)
		if cold+warm > n {
			warm = n - cold
		}
		add(kind+":c", cold)
		add(kind+":w", warm)
		add(kind+":h", n-cold-warm)
	}
	add("int", count(p.IntFrac, p.BodyUnits))
	add("mul", count(p.MulFrac, p.BodyUnits))
	add("fp", count(p.FPFrac, p.BodyUnits))
	addMem("load", count(p.LoadFrac, p.BodyUnits))
	addMem("store", count(p.StoreFrac, p.BodyUnits))
	nBranch := count(p.BranchFrac, p.BodyUnits)
	nFlaky := count(p.FlakyFrac, nBranch)
	add("branch:f", nFlaky)
	add("branch:b", nBranch-nFlaky)
	if len(units) == 0 {
		return nil, Stats{}, fmt.Errorf("workload: profile %s produced an empty body", p.Name)
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })

	st := Stats{Mix: make(map[string]int)}
	g := &bodyGen{b: b, p: p, rng: rng, stats: &st}
	b.Label("body")
	prevLen := b.Len()
	for _, kind := range units {
		switch kind {
		case "int":
			g.intOp()
		case "mul":
			g.mulOp()
		case "fp":
			g.fpOp()
		case "load:h", "load:w", "load:c":
			g.memOp(false, kind[5])
		case "store:h", "store:w", "store:c":
			g.memOp(true, kind[6])
		case "branch:f":
			g.branch(true)
		case "branch:b":
			g.branch(false)
		}
		st.Mix[kind]++
	}
	b.Br("body")
	st.BodyInsts = b.Len() - prevLen + 1
	prog, err := b.Build()
	if err != nil {
		return nil, Stats{}, err
	}
	return prog, st, nil
}

// Spec generates the named SPEC2K-like benchmark.
func Spec(name string, seed int64) (*isa.Program, error) {
	p, err := SpecProfile(name)
	if err != nil {
		return nil, err
	}
	prog, _, err := Generate(p, seed)
	return prog, err
}

func emitPrologue(b *isa.Builder, rng *rand.Rand) {
	b.MovI(regHotBase, hotBase)
	b.MovI(regWarmBase, warmBase)
	b.MovI(regColdBase, coldBase)
	b.MovI(regHotOff, 0)
	b.MovI(regWarmOff, int64(rng.Intn(warmMask+1))&^7)
	b.MovI(regColdOff, int64(rng.Intn(coldMask+1))&^127)
	b.MovI(regRand, int64(rng.Uint32())|1)
	b.MovI(regStoreV, 7)
	b.MovI(regDep, 0)
	b.MovI(regOne, 1)
	for i := 0; i < 8; i++ {
		b.MovI(uint8(regAccBase+i), int64(i+1))
	}
	for i := 0; i < numConsts; i++ {
		b.MovI(uint8(regConstBase+i), int64(2*i+3))
	}
}

type bodyGen struct {
	b        *isa.Builder
	p        Profile
	rng      *rand.Rand
	stats    *Stats
	accNext  int
	labelSeq int
}

func (g *bodyGen) acc() uint8 {
	r := uint8(regAccBase + g.accNext%g.p.Accumulators)
	g.accNext++
	return r
}

var intOps = []isa.Op{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpAnd, isa.OpOr}

// konst returns a read-only integer operand register; keeping second
// operands read-only keeps the accumulator chains independent, so the
// profile's Accumulators field directly controls ILP.
func (g *bodyGen) konst() uint8 {
	return uint8(regConstBase + g.rng.Intn(numConsts))
}

func (g *bodyGen) intOp() {
	a := g.acc()
	op := intOps[g.rng.Intn(len(intOps))]
	if g.rng.Intn(2) == 0 {
		g.b.ALUImm(op, a, a, int64(g.rng.Intn(255)+1))
	} else {
		g.b.ALU(op, a, a, g.konst())
	}
}

func (g *bodyGen) mulOp() {
	a := g.acc()
	g.b.ALU(isa.OpMul, a, a, g.konst())
}

func (g *bodyGen) fpOp() {
	// FP accumulators rotate over f0..f(Accumulators-1); the second
	// operand is a read-only FP register so chains stay independent.
	i := uint8(g.accNext % g.p.Accumulators)
	g.accNext++
	j := uint8(fpConstBase + g.rng.Intn(numConsts))
	op := isa.OpFAdd
	if g.rng.Intn(3) == 0 {
		op = isa.OpFMul
	}
	g.b.FP(op, i, i, j)
}

// memOp emits one load or store to the hot ('h'), warm ('w'), or cold
// ('c') stream:
//
//	addl off, off, stride
//	and  off, off, mask
//	addl r7, base, off
//	ldq/stq ...
//
// Cold references with DependentLoads also thread regDep through the
// address so consecutive cold misses serialize (pointer-chasing).
func (g *bodyGen) memOp(store bool, stream byte) {
	var off, base uint8
	var stride, mask int64
	cold := false
	switch stream {
	case 'c':
		off, base, stride, mask = regColdOff, regColdBase, coldStride, coldMask
		cold = true
	case 'w':
		off, base, stride, mask = regWarmOff, regWarmBase, warmStride, warmMask
	default:
		off, base, stride, mask = regHotOff, regHotBase, hotStride, hotMask
	}
	g.b.ALUImm(isa.OpAdd, off, off, stride)
	g.b.ALUImm(isa.OpAnd, off, off, mask)
	if cold && g.p.DependentLoads {
		g.b.ALU(isa.OpAdd, off, off, regDep)
	}
	g.b.ALU(isa.OpAdd, regAddr, base, off)
	if store {
		g.b.Store(regStoreV, regAddr, 0)
		return
	}
	g.b.Load(regSink, regAddr, 0)
	if cold && g.p.DependentLoads {
		// regDep = regSink & 0: value is always zero but depends on the
		// load, so the next cold address waits for this miss.
		g.b.ALUImm(isa.OpAnd, regDep, regSink, 0)
	}
}

// branch emits either a hard-to-predict data-dependent branch (xorshift
// low bit) or a strongly biased always-taken branch.
func (g *bodyGen) branch(flaky bool) {
	g.labelSeq++
	label := fmt.Sprintf("sk%d", g.labelSeq)
	if flaky {
		// xorshift64 (13,7,17) keeps the branch stream effectively
		// random to the predictor.
		g.b.ALUImm(isa.OpShl, regScratch, regRand, 13)
		g.b.ALU(isa.OpXor, regRand, regRand, regScratch)
		g.b.ALUImm(isa.OpShr, regScratch, regRand, 7)
		g.b.ALU(isa.OpXor, regRand, regRand, regScratch)
		g.b.ALUImm(isa.OpShl, regScratch, regRand, 17)
		g.b.ALU(isa.OpXor, regRand, regRand, regScratch)
		g.b.ALUImm(isa.OpAnd, regScratch, regRand, 1)
		g.b.Bnez(regScratch, label)
	} else {
		g.b.Bnez(regOne, label)
	}
	filler := g.acc()
	g.b.ALUImm(isa.OpAdd, filler, filler, 1) // not-taken filler
	g.b.Label(label)
}
