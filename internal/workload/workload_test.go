package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/heatstroke-sim/heatstroke/internal/isa"
)

func TestSpecProfilesValidate(t *testing.T) {
	names := SpecNames()
	if len(names) < 16 {
		t.Fatalf("only %d benchmarks, want >= 16", len(names))
	}
	for _, n := range names {
		p, err := SpecProfile(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", n, err)
		}
		if p.Name != n {
			t.Errorf("profile %s has Name %q", n, p.Name)
		}
	}
	if _, err := SpecProfile("quake3"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestSpecNamesSorted(t *testing.T) {
	names := SpecNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := Generate(specProfiles["gcc"], 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(specProfiles["gcc"], 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("inst %d differs", i)
		}
	}
	c, _, err := Generate(specProfiles["gcc"], 8)
	if err != nil {
		t.Fatal(err)
	}
	same := c.Len() == a.Len()
	if same {
		for i := range a.Insts {
			if a.Insts[i] != c.Insts[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical programs")
	}
}

func TestGenerateMixCounts(t *testing.T) {
	p := specProfiles["crafty"]
	_, st, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range st.Mix {
		total += n
	}
	// Each category's unit count should be within rounding of the
	// requested fraction.
	checks := []struct {
		kinds []string
		frac  float64
	}{
		{[]string{"int"}, p.IntFrac},
		{[]string{"mul"}, p.MulFrac},
		{[]string{"load:h", "load:w", "load:c"}, p.LoadFrac},
		{[]string{"store:h", "store:w", "store:c"}, p.StoreFrac},
		{[]string{"branch:f", "branch:b"}, p.BranchFrac},
	}
	for _, c := range checks {
		n := 0
		for _, k := range c.kinds {
			n += st.Mix[k]
		}
		want := int(c.frac*float64(p.BodyUnits) + 0.5)
		if n != want {
			t.Errorf("%v count = %d, want %d", c.kinds, n, want)
		}
	}
	// Flaky split is deterministic.
	nBranch := st.Mix["branch:f"] + st.Mix["branch:b"]
	wantFlaky := int(p.FlakyFrac*float64(nBranch) + 0.5)
	if st.Mix["branch:f"] != wantFlaky {
		t.Errorf("flaky branches = %d, want %d", st.Mix["branch:f"], wantFlaky)
	}
}

func TestGenerateAllBenchmarksValidate(t *testing.T) {
	for _, n := range SpecNames() {
		prog, err := Spec(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
		if prog.Len() < 100 {
			t.Errorf("%s: suspiciously small program (%d insts)", n, prog.Len())
		}
	}
}

// TestQuickGeneratedProgramsValid property: Generate accepts exactly
// the profiles Validate accepts, and every program it generates passes
// ISA validation. The draw's mix fractions can sum below the 0.5 that
// Validate requires (seed -6596045071730754473 sums to 0.47), and
// Generate must reject those.
func TestQuickGeneratedProgramsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fr := func() float64 { return rng.Float64() * 0.3 }
		p := Profile{
			Name:         "q",
			IntFrac:      0.2 + fr(),
			MulFrac:      rng.Float64() * 0.05,
			FPFrac:       fr(),
			LoadFrac:     0.1 + fr()/2,
			StoreFrac:    rng.Float64() * 0.1,
			BranchFrac:   rng.Float64() * 0.2,
			Accumulators: 1 + rng.Intn(8),
			FlakyFrac:    rng.Float64(),
			WarmFrac:     rng.Float64() * 0.5,
			ColdFrac:     rng.Float64() * 0.3,
			BodyUnits:    16 + rng.Intn(600),
		}
		prog, _, err := Generate(p, seed)
		if (err != nil) != (p.Validate() != nil) {
			return false
		}
		return err != nil || prog.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGenerateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{},
		{Name: "x", IntFrac: 5, Accumulators: 2, BodyUnits: 100},
		{Name: "x", IntFrac: 0.9, Accumulators: 0, BodyUnits: 100},
		{Name: "x", IntFrac: 0.9, Accumulators: 2, BodyUnits: 2},
		{Name: "x", IntFrac: 0.5, LoadFrac: 0.5, WarmFrac: 0.8, ColdFrac: 0.6, Accumulators: 2, BodyUnits: 100},
	}
	for i, p := range bad {
		if _, _, err := Generate(p, 1); err == nil {
			t.Errorf("profile %d should be rejected", i)
		}
	}
}

func TestVariant1Structure(t *testing.T) {
	prog, err := Variant1(DefaultVariant1())
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, in := range prog.Insts {
		switch in.Op {
		case isa.OpAdd:
			// Exactly the paper's addl $1, $2, $3.
			if in.Dst != 1 || in.Src1 != 2 || in.Src2 != 3 {
				t.Fatalf("unexpected add form %v", in)
			}
			adds++
		case isa.OpMovI, isa.OpBr:
		default:
			t.Fatalf("unexpected op in variant1: %v", in)
		}
	}
	if adds != DefaultVariant1().Adds {
		t.Fatalf("adds = %d, want %d", adds, DefaultVariant1().Adds)
	}
	if _, err := Variant1(Variant1Params{Adds: 0}); err == nil {
		t.Error("zero adds should fail")
	}
}

func TestVariant2ConflictingAddresses(t *testing.T) {
	p := DefaultVariant2()
	prog, err := Variant2(p)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the load addresses from the movi prologue; they must all
	// map to the same L2 set with a 2MB/8-way/128B geometry.
	const l2Sets = (2 << 20) / (8 * 128)
	var setIdx = int64(-1)
	loads := 0
	for _, in := range prog.Insts {
		if in.Op == isa.OpMovI && in.Imm >= coldBase {
			line := in.Imm / 128
			s := line % l2Sets
			if setIdx < 0 {
				setIdx = s
			} else if s != setIdx {
				t.Fatalf("conflict addresses map to different sets: %d vs %d", s, setIdx)
			}
		}
		if in.Op == isa.OpLoad {
			loads++
		}
	}
	if loads != p.MissLoads {
		t.Fatalf("loads = %d, want %d", loads, p.MissLoads)
	}
	if p.MissLoads <= 8 {
		t.Fatalf("miss loads %d must exceed L2 associativity 8 to conflict", p.MissLoads)
	}
}

func TestVariantParamErrors(t *testing.T) {
	bad := []Variant2Params{
		{Adds: 0, BurstIters: 1, MissIters: 1, MissLoads: 9, L2SetStride: 1},
		{Adds: 1, BurstIters: 0, MissIters: 1, MissLoads: 9, L2SetStride: 1},
		{Adds: 1, BurstIters: 1, MissIters: 1, MissLoads: 0, L2SetStride: 1},
		{Adds: 1, BurstIters: 1, MissIters: 1, MissLoads: 9, L2SetStride: 0},
	}
	for i, p := range bad {
		if _, err := Variant2(p); err == nil {
			t.Errorf("params %d should fail", i)
		}
	}
	if _, err := Variant(4); err == nil {
		t.Error("variant 4 should not exist")
	}
}

func TestVariantForScale(t *testing.T) {
	base, err := VariantForScale(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	slower, err := VariantForScale(2, 4) // 4x slower thermals -> 4x longer phases
	if err != nil {
		t.Fatal(err)
	}
	baseBurst := findMovI(t, base, 14)
	slowBurst := findMovI(t, slower, 14)
	if slowBurst != baseBurst*4 {
		t.Fatalf("burst iters %d, want %d", slowBurst, baseBurst*4)
	}
	if _, err := VariantForScale(2, 0); err == nil {
		t.Error("zero scale should fail")
	}
	if _, err := VariantForScale(1, 8); err != nil {
		t.Errorf("variant1 is scale-free: %v", err)
	}
}

// findMovI returns the first immediate loaded into register r.
func findMovI(t *testing.T, p *isa.Program, r uint8) int64 {
	t.Helper()
	for _, in := range p.Insts {
		if in.Op == isa.OpMovI && in.Dst == r {
			return in.Imm
		}
	}
	t.Fatalf("no movi to $%d in %s", r, p.Name)
	return 0
}

func TestPaperListingsAssemble(t *testing.T) {
	for name, text := range map[string]string{"fig1": FigureOneListing, "fig2": FigureTwoListing} {
		if _, err := isa.Assemble(name, text); err != nil {
			t.Errorf("%s listing does not assemble: %v", name, err)
		}
	}
}
