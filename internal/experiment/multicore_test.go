package experiment

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/sim"
	"github.com/heatstroke-sim/heatstroke/internal/sweep"
)

// multiOptions builds options for the multi-core experiments: one
// benchmark, a 16-cell grid, and 64x thermal acceleration so
// cross-core conduction (milliseconds of thermal time) is visible
// inside an affordable quantum.
func multiOptions() Options {
	cfg := config.Default()
	cfg.Run.QuantumCycles = 1_500_000
	cfg.Thermal.Scale = 64
	cfg.Topology = config.Topology{Cores: 2, Solver: config.SolverGrid, GridN: 16}
	return Options{
		Config:     &cfg,
		Benchmarks: []string{"gcc"},
		Warmup:     50_000,
	}
}

func cell(t *testing.T, tb *Table, row int, col string) string {
	t.Helper()
	for i, c := range tb.Columns {
		if c == col {
			return tb.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, tb.Columns)
	return ""
}

func cellF(t *testing.T, tb *Table, row int, col string) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tb, row, col), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("column %q = %q: %v", col, s, err)
	}
	return v
}

func TestNeighborHeatSmoke(t *testing.T) {
	tb, err := NeighborHeat(context.Background(), multiOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tb.Rows))
	}
	victim := cellF(t, tb, 0, "victim IntReg trojan K")
	trojanCore := cellF(t, tb, 0, "trojan core peak K")
	if victim < 300 || victim > 400 {
		t.Errorf("victim temperature %v K implausible", victim)
	}
	// The trojan core runs Variant2: it must end up hotter than the
	// victim core running a SPEC program.
	if trojanCore <= victim {
		t.Errorf("trojan core peak %v K not above victim %v K", trojanCore, victim)
	}
	if ipc := cellF(t, tb, 0, "victim IPC benign"); ipc <= 0 {
		t.Errorf("victim IPC %v", ipc)
	}
}

// TestNeighborHeatShowsCoupling runs long enough for conduction to
// arrive and checks the victim core is measurably hotter next to the
// trojan than next to a benign neighbor.
func TestNeighborHeatShowsCoupling(t *testing.T) {
	o := multiOptions()
	o.Config.Run.QuantumCycles = 2_500_000
	tb, err := NeighborHeat(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	benign := cellF(t, tb, 0, "victim IntReg benign K")
	trojan := cellF(t, tb, 0, "victim IntReg trojan K")
	if trojan <= benign {
		t.Errorf("victim IntReg %v K next to trojan not above %v K next to benign neighbor",
			trojan, benign)
	}
	slow := cellF(t, tb, 0, "slowdown")
	if slow < -100 || slow > 100 {
		t.Errorf("slowdown %v%% implausible", slow)
	}
}

func TestDTMScopeSmoke(t *testing.T) {
	o := multiOptions()
	o.Config.Run.QuantumCycles = 800_000
	tb, err := DTMScope(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tb.Rows))
	}
	for _, col := range []string{"IPC stopgo", "IPC sedation", "IPC chip-rr"} {
		if v := cellF(t, tb, 0, col); v <= 0 || v > 8 {
			t.Errorf("%s = %v implausible", col, v)
		}
	}
	for _, col := range []string{"stall% stopgo", "stall% sedation", "stall% chip-rr"} {
		if v := cellF(t, tb, 0, col); v < 0 || v > 100 {
			t.Errorf("%s = %v implausible", col, v)
		}
	}
}

// TestMultiExperimentDeterminism checks both multi-core experiments
// render byte-identically whether whole-die jobs share warm state or
// run cold (DisableWarmupReuse), at parallelism 1 and 4, and with the
// stall fast-forward on and off. Under parallelism, jobs race to warm
// a core key; the tables must not notice. The jobs' peak temperatures,
// which tables round, must agree to the last bit. A 4-core
// neighbor-heat run covers a program repeated inside one die (the
// benign neighbour on cores 2 and 3).
func TestMultiExperimentDeterminism(t *testing.T) {
	type variant struct {
		par        int
		cold, noFF bool
	}
	// Every pair of parallelism and fast-forward settings occurs once
	// among the shared variants.
	full := []variant{
		{par: 4, cold: true},
		{par: 1}, {par: 1, noFF: true},
		{par: 4}, {par: 4, noFF: true},
	}
	for _, tc := range []struct {
		sub, name string
		cores     int
		variants  []variant
		// wantRuns is the serial shared run's count of warm states
		// assembled (WarmupRuns): one per distinct warm identity.
		// neighbor-heat's benign and trojan jobs differ in core 0's
		// program; dtm-scope's three jobs run one die under three
		// policies.
		wantRuns int
	}{
		{NameNeighborHeat, NameNeighborHeat, 2, full, 2},
		{NameDTMScope, NameDTMScope, 2, full, 1},
		{"4-core", NameNeighborHeat, 4, []variant{{par: 1}, {par: 4}}, 2},
	} {
		tc := tc
		t.Run(tc.sub, func(t *testing.T) {
			t.Parallel()
			base := multiOptions()
			base.Config.Run.QuantumCycles = 600_000
			base.Config.Topology.Cores = tc.cores
			render := func(o Options) (string, *sweep.Summary) {
				tb, err := RunContext(context.Background(), tc.name, o)
				if err != nil {
					t.Fatal(err)
				}
				return tb.String(), tb.Summary
			}
			cold := base
			cold.DisableWarmupReuse = true
			cold.Parallelism = 1
			want, wantSum := render(cold)
			if wantSum.WarmupRuns != 0 || wantSum.WarmupReused != 0 {
				t.Errorf("cold run counts warmups: %+v", wantSum)
			}
			for _, v := range tc.variants {
				o := base
				o.Parallelism = v.par
				o.DisableWarmupReuse = v.cold
				o.DisableFastForward = v.noFF
				got, sum := render(o)
				if got != want {
					t.Errorf("%+v: render differs from the serial cold run:\n%s\n--- want ---\n%s", v, got, want)
				}
				if a, b := sum.Metrics[sweep.MetricPeakTempK], wantSum.Metrics[sweep.MetricPeakTempK]; a != b {
					t.Errorf("%+v: peak temperatures %+v, cold run %+v", v, a, b)
				}
				runs, reused := sum.WarmupRuns, sum.WarmupReused
				if !v.cold && runs+reused != sum.Jobs {
					t.Errorf("%+v: %d warm states built + %d reused for %d jobs", v, runs, reused, sum.Jobs)
				}
				if !v.cold && v.par == 1 && runs != tc.wantRuns {
					t.Errorf("%+v: %d warm states built, want %d", v, runs, tc.wantRuns)
				}
			}
		})
	}
}

func TestMultiExperimentRegistry(t *testing.T) {
	for _, name := range []string{NameNeighborHeat, NameDTMScope} {
		in, ok := Describe(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if in.Cores != 2 || in.Solver != config.SolverGrid {
			t.Errorf("%s: cores=%d solver=%q, want 2/grid", name, in.Cores, in.Solver)
		}
		if in.WarmupCycles != DefaultWarmupCycles {
			t.Errorf("%s: warmup %d", name, in.WarmupCycles)
		}
	}
	for _, in := range Infos() {
		switch in.Name {
		case NameNeighborHeat, NameDTMScope, NameTable1:
		default:
			if in.Cores != 1 || in.Solver != config.SolverLumped {
				t.Errorf("%s: cores=%d solver=%q, want 1/lumped", in.Name, in.Cores, in.Solver)
			}
		}
	}
}

// TestMultiExperimentWarmKeys: whole-die jobs list their core keys
// and their die key like every other job, so a fleet can ship a die's
// warm records — and enumeration must not simulate (the options here
// carry the full default 500M-cycle quantum; enumeration returning
// quickly is itself the proof).
func TestMultiExperimentWarmKeys(t *testing.T) {
	cfg := config.Default()
	o := Options{Config: &cfg, Benchmarks: []string{"gcc", "mcf"}}
	for _, tc := range []struct {
		name string
		// want counts the distinct keys: neighbor-heat's dies run art
		// or Variant2 next to gcc or mcf, dtm-scope's Variant2 next to
		// gcc or mcf, and every die is alike.
		want int
	}{{NameNeighborHeat, 5}, {NameDTMScope, 4}} {
		keys, err := WarmKeys(context.Background(), tc.name, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(keys) != tc.want {
			t.Errorf("%s: %d warm keys %v, want %d", tc.name, len(keys), keys, tc.want)
		}
		for _, k := range keys {
			if len(k) != 64 || strings.Trim(k, "0123456789abcdef") != "" {
				t.Errorf("%s: warm key %q is not a sha256 hex digest", tc.name, k)
			}
		}
	}
}

// TestCoreKeysIgnoreTopology: a job's per-core warm key names the
// core's programs and the warm configuration but not the die, so the
// same program keys alike on the paper's single core, on a 2-core and
// a 4-core die and at any grid resolution (TestCoreWarmTopologyInvariance
// in internal/sim proves the warm states equal), while a different
// program, warmup length or code version keys apart. The die key does
// name the topology.
func TestCoreKeysIgnoreTopology(t *testing.T) {
	gcc, err := specThread("gcc", 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := variantThread(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := func(o Options, cores, gridN int, warmup int64) []string {
		cfg := config.Default()
		cfg.Topology = config.Topology{Cores: cores, Solver: config.SolverGrid, GridN: gridN}
		ct := make([][]sim.Thread, cores)
		for c := range ct {
			ct[c] = []sim.Thread{gcc}
		}
		ct[0] = []sim.Thread{v2}
		return keysOf(o, job{cfg: cfg, cores: ct, opts: sim.Options{WarmupCycles: warmup}}).cores
	}
	o := Options{CodeVersion: "a"}
	want := key(o, 2, 32, 1000)
	if want[0] == want[1] {
		t.Fatal("different programs share a key")
	}
	for _, got := range [][]string{key(o, 2, 64, 1000), key(o, 4, 32, 1000), key(o, 4, 64, 1000)} {
		if got[0] != want[0] || got[1] != want[1] || got[len(got)-1] != want[1] {
			t.Errorf("keys %v differ from %v across topologies", got, want)
		}
	}
	if key(o, 2, 32, 2000)[1] == want[1] {
		t.Error("warmup length not keyed")
	}
	if key(Options{CodeVersion: "b"}, 2, 32, 1000)[1] == want[1] {
		t.Error("code version not keyed")
	}
	cfg0 := config.Default()
	solo := soloJob(Options{Config: &cfg0, Quantum: 1, Seed: 1, Warmup: 1000}, "solo", gcc, dtm.StopAndGo, false)
	if got := keysOf(o, solo).cores; got[0] != want[1] {
		t.Errorf("gcc keys %s on one core, %s on a die", got[0], want[1])
	}
	dies := make(map[string]bool)
	for _, gridN := range []int{32, 64} {
		cfg := config.Default()
		cfg.Topology = config.Topology{Cores: 2, Solver: config.SolverGrid, GridN: gridN}
		dies[keysOf(o, job{cfg: cfg, cores: [][]sim.Thread{{v2}, {gcc}}, opts: sim.Options{WarmupCycles: 1000}}).die] = true
	}
	dies[keysOf(o, solo).die] = true
	if len(dies) != 3 {
		t.Errorf("%d distinct die keys over three topologies", len(dies))
	}
}
