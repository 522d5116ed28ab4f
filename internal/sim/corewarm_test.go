package sim

import (
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/internal/config"
	"github.com/heatstroke-sim/heatstroke/internal/dtm"
	"github.com/heatstroke-sim/heatstroke/internal/thermal"
)

// warmParts warms a die cold, core by core, and returns every core's
// captured state and the die's post-warmup temperatures.
func warmParts(t *testing.T, cfg config.Config, coreThreads [][]Thread, mo Options) ([]*CoreWarm, thermal.SolverState) {
	t.Helper()
	m, err := NewMulti(cfg, coreThreads, mo)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*CoreWarm, len(coreThreads))
	for c := range coreThreads {
		if err := m.WarmCore(c); err != nil {
			t.Fatal(err)
		}
		cores[c] = m.CaptureCore(c)
	}
	if err := m.FinishWarmup(nil); err != nil {
		t.Fatal(err)
	}
	if !m.anchored {
		t.Fatal("warmup left the die unanchored")
	}
	return cores, m.solver.State()
}

// TestMultiWarmRestoreEquivalence: a die whose warmup is assembled from
// shared parts — every core and the die restored, or some cores warmed
// in place next to restored ones — holds a machine state deep-equal to
// the cold run's once its quantum opens, and measures a deep-equal
// Result, under every scope and policy.
func TestMultiWarmRestoreEquivalence(t *testing.T) {
	cfg := multiCfg(2)
	quantum := cfg.Run.QuantumCycles
	threads := attackVictimThreads(t)
	parts, die := warmParts(t, cfg, threads, Options{WarmupCycles: 50_000})
	for _, mo := range scopeOptions() {
		mo.WarmupCycles = 50_000
		mo.CollectEvents = true
		mo.TraceTemps = true
		cold, err := NewMulti(cfg, threads, mo)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.BeginRun(quantum); err != nil {
			t.Fatal(err)
		}
		wantState, err := cold.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cold.StepRun(quantum); err != nil {
			t.Fatal(err)
		}
		want, err := cold.FinishRun()
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range []struct {
			name    string
			restore []bool
			die     bool
		}{
			{"all shared", []bool{true, true}, true},
			{"core 1 warmed", []bool{true, false}, true},
			{"die anchored", []bool{false, true}, false},
		} {
			m, err := NewMulti(cfg, threads, mo)
			if err != nil {
				t.Fatal(err)
			}
			for c, r := range shape.restore {
				if r {
					err = m.RestoreCore(c, parts[c])
				} else {
					err = m.WarmCore(c)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			var ds *thermal.SolverState
			if shape.die {
				ds = &die
			}
			if err := m.FinishWarmup(ds); err != nil {
				t.Fatal(err)
			}
			if err := m.BeginRun(quantum); err != nil {
				t.Fatal(err)
			}
			if st, err := m.Snapshot(); err != nil || !reflect.DeepEqual(st, wantState) {
				t.Errorf("%s, %s: machine state at the quantum's start differs from the cold run's (%v)",
					mo.Policy, shape.name, err)
			}
			if _, err := m.StepRun(quantum); err != nil {
				t.Fatal(err)
			}
			got, err := m.FinishRun()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: result differs from the cold run", mo.Policy, shape.name)
			}
		}
	}
}

// TestCoreWarmTopologyInvariance proves the per-core sharing key sound
// to leave the topology out: a core's warm state is deep-equal on a
// 2-core and a 4-core die and at grid resolutions 32 and 64, whatever
// its neighbours run and whichever core index it sits on.
func TestCoreWarmTopologyInvariance(t *testing.T) {
	gcc, v2 := specThread(t, "gcc"), variantThread(t, 2)
	var want *CoreWarm
	for _, die := range []struct {
		cores, gridN, core int
	}{{2, 32, 1}, {2, 64, 1}, {4, 32, 3}, {4, 64, 2}} {
		cfg := config.Default()
		cfg.Topology = config.Topology{Cores: die.cores, Solver: config.SolverGrid, GridN: die.gridN}
		threads := make([][]Thread, die.cores)
		for c := range threads {
			threads[c] = []Thread{v2}
		}
		threads[die.core] = []Thread{gcc}
		m, err := NewMulti(cfg, threads, Options{WarmupCycles: 40_000})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WarmCore(die.core); err != nil {
			t.Fatal(err)
		}
		got := m.CaptureCore(die.core)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d-core die, grid %d, core %d: warm state differs", die.cores, die.gridN, die.core)
		}
	}
}

// TestMultiLazyAnchor: construction leaves the die unanchored; the
// first Solver or Snapshot call anchors it exactly as construction
// used to, and restoring the die's state skips the anchor.
func TestMultiLazyAnchor(t *testing.T) {
	cfg := multiCfg(2)
	threads := attackVictimThreads(t)
	a, err := NewMulti(cfg, threads, Options{WarmupCycles: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if a.anchored {
		t.Fatal("NewMulti anchored the die")
	}
	ms, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMulti(cfg, threads, Options{WarmupCycles: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Solver().State(), ms.Solver) {
		t.Error("Solver and Snapshot anchor the die differently")
	}
	amb := cfg.Thermal.AmbientK
	for _, temp := range ms.Solver.Temps {
		if temp <= amb {
			t.Fatalf("anchored die holds a node at %v K, not above ambient %v K", temp, amb)
		}
	}

	// A cold warmup leaves the die anchored once, from ambient.
	_, die := warmParts(t, cfg, threads, Options{WarmupCycles: 50_000})
	ref, err := thermal.NewSolver(cfg.Topology, cfg.Thermal)
	if err != nil {
		t.Fatal(err)
	}
	ref.InitSteadyCores(b.steadyPowers())
	if !reflect.DeepEqual(ref.State(), die) {
		t.Error("the post-warmup die is not the die anchored once from ambient")
	}
	c, err := NewMulti(cfg, threads, Options{WarmupCycles: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FinishWarmup(&die); err != nil {
		t.Fatal(err)
	}
	if !c.anchored || !reflect.DeepEqual(c.Solver().State(), die) {
		t.Error("a restored die was re-anchored")
	}
}

func TestMultiWarmErrors(t *testing.T) {
	cfg := multiCfg(2)
	threads := attackVictimThreads(t)
	parts, _ := warmParts(t, cfg, threads, Options{WarmupCycles: 20_000})
	m, err := NewMulti(cfg, threads, Options{Scope: dtm.ScopeChip, WarmupCycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreCore(0, parts[1]); err == nil {
		t.Error("restoring another program's warm state should fail")
	}
	if err := m.RestoreCore(2, parts[0]); err == nil {
		t.Error("restoring past the last core should fail")
	}
	if err := m.RestoreCore(0, parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.FinishWarmup(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.FinishWarmup(nil); err == nil {
		t.Error("a second FinishWarmup should fail")
	}
	if err := m.WarmCore(1); err == nil {
		t.Error("WarmCore after FinishWarmup should fail")
	}
}
